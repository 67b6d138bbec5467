"""halfwave-lab benchmark: the CLI run as a user runs it, timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in workloads.py, or ``all`` to run each in
turn. Run from anywhere inside a checkout; the program is taken from
``src/`` of the checkout, and everything a run writes goes to a temporary
directory under ``.perfbench_tmp/`` that is removed at the end.

--trace 0 repeats, for S seconds, a fresh ``python -m halfwave_lab.cli``
process on the generated scenario file, each preceded by a fresh set-up
process (setup_probe.py). It reports the end-to-end metrics as medians.
--trace 1 alternates untraced CLI processes with traced ones (tracer.py)
and then runs the N sweep (sweep.py, one process per kernel), S seconds
in all, and reports the per-layer metrics.

Every child gets HWL_THREADS=1 and the matching BLAS/OpenMP variables.
A run fails on a nonzero exit, an error.json, an output check outside
its tolerance, or artifacts that differ from the first run's bytes.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}
with the metric names and units listed in BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("HWL_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS")

# The benchmark must end within 180 s; stop starting runs well before.
BUDGET_S = 165.0
MIN_RUNS = 3          # CLI runs per --trace 0 invocation, even past --seconds
MIN_TRACED = 2        # traced (and untraced) runs per --trace 1 invocation
SETUP_EVERY = 3       # one set-up probe per this many CLI runs
SWEEP_S = 6.0         # seconds of a --trace 1 run kept for the N sweep

# Layers whose combined share of the traced run the profile predicts.
PROFILE_SHARES = {
    "flow-sphere": (("spectral", "algebra", "evolution"), 70.0),
    "lax-monitor": (("lax",), 80.0),
    "chain": (("chain", "algebra"), 80.0),
}
SHARE_LAYERS = ("spectral", "algebra", "evolution", "fields", "lax", "chain")
SWEEP_KERNELS = ("spectral.halfwave_op", "evolution.step",
                 "chain.chain_rhs_fft", "chain.chain_energy")


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run: no program, or set-up fails."""


def child_env():
    env = dict(os.environ, PYTHONPATH=SRC)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def spawn(argv, log_path, cwd, deadline):
    """Run argv to its exit; return (wall seconds, peak RSS in MB, exit code).

    Wall time runs from spawn to exit. The process is killed at
    ``deadline`` (time.monotonic) and then reports a negative exit code.
    """
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(max(deadline - time.monotonic(), 1.0),
                                proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def tail(path, lines=5):
    with open(path, errors="replace") as fh:
        return "".join(fh.readlines()[-lines:]).strip()


def file_digests(out_dir):
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


class Bench:
    """One workload at one seed: its scenario file, runs and results."""

    def __init__(self, workload, seed, tmp):
        self.workload = workload
        self.tmp = tmp
        self.subcommand, text, self.params = workloads.make_config(workload,
                                                                   seed)
        self.cfg_path = os.path.join(tmp, "scenario.cfg")
        with open(self.cfg_path, "w") as fh:
            fh.write(text)
        self.deadline = time.monotonic() + BUDGET_S
        self.reference = None  # artifact digests of the first good run
        self.count = 0
        self.checks = []       # (name, value, tolerance) of every good run

    def setup_probe(self):
        log = os.path.join(self.tmp, "setup.log")
        wall, _, code = spawn(
            [sys.executable, os.path.join(HERE, "setup_probe.py"),
             self.cfg_path], log, self.tmp, self.deadline)
        if code != 0:
            raise BenchmarkError(f"set-up process exited with {code}: "
                                 f"{tail(log)}")
        return wall

    def cli_run(self, tracer_spans=None):
        """One CLI process, checked. Returns (wall, rss, bytes, ok)."""
        self.count += 1
        tag = f"run{self.count}"
        out_dir = os.path.join(self.tmp, tag)
        log = os.path.join(self.tmp, tag + ".log")
        cli = [self.subcommand, "--config", self.cfg_path, "--out", out_dir]
        if tracer_spans is None:
            argv = [sys.executable, "-m", "halfwave_lab.cli"] + cli
        else:
            argv = [sys.executable, os.path.join(HERE, "tracer.py"),
                    tracer_spans, str(self.count)] + cli
        wall, rss, code = spawn(argv, log, self.tmp, self.deadline)

        problems = []
        if code != 0:
            problems.append(f"exit code {code}: {tail(log)}")
        elif os.path.exists(os.path.join(out_dir, "error.json")):
            problems.append("error.json written")
        else:
            try:
                checks = workloads.check(self.workload, out_dir, self.params)
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"artifacts unreadable: {exc!r}")
                checks = []
            problems += [f"{name} = {value!r} exceeds {tol!r}"
                         for name, value, tol in checks if not value <= tol]
            digests = file_digests(out_dir)
            if self.reference is None and not problems:
                self.reference = digests
            elif self.reference is not None and digests != self.reference:
                problems.append("artifacts differ from the first run's bytes")
            if not problems:
                self.checks += checks
        size = sum(os.path.getsize(os.path.join(out_dir, f))
                   for f in os.listdir(out_dir)) if os.path.isdir(out_dir) else 0
        shutil.rmtree(out_dir, ignore_errors=True)
        for problem in problems:
            print(f"FAILED {tag}: {problem}", file=sys.stderr)
        return wall, rss, size, not problems

    def enough(self, started, seconds, runs, need, last_wall):
        if self.deadline - time.monotonic() < 2.0 * last_wall + 5.0:
            return True
        return time.monotonic() - started >= seconds and runs >= need

    def print_checks(self):
        worst = {}
        for name, value, tol in self.checks:
            if name not in worst or value > worst[name][0]:
                worst[name] = (value, tol)
        for name, (value, tol) in worst.items():
            print(f"check {name}: worst {value:.3e} (tolerance {tol:.0e})")


def summary(name, values, unit):
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = f"q1 {q1:.6g}, q3 {q3:.6g}"
    else:
        spread = "single sample"
    print(f"{name}: median {statistics.median(values):.6g} {unit} "
          f"({spread}, n={len(values)})")


def end_to_end(bench, seconds):
    bench.setup_probe()  # untimed: compiles the bytecode caches once
    setups, walls, rss = [], [], []
    ok = 0
    started = time.monotonic()
    while True:
        if len(walls) % SETUP_EVERY == 0:
            setups.append(bench.setup_probe())
        wall, peak, _, passed = bench.cli_run()
        walls.append(wall)
        rss.append(peak)
        ok += passed
        if bench.enough(started, seconds, len(walls), MIN_RUNS, wall):
            break
    summary("wall_s", walls, "s")
    summary("setup_s", setups, "s")
    summary("peak_rss_mb", rss, "MB")
    print(f"ok_frac: {ok}/{len(walls)} runs passed every check")
    metrics = {"wall_s": statistics.median(walls),
               "setup_s": statistics.median(setups),
               "peak_rss_mb": statistics.median(rss),
               "ok_frac": ok / len(walls)}
    return metrics, len(walls), len(walls) - ok


def layer_metrics(trace, bytes_written):
    """Per-layer counts and self times of one traced run."""
    spans = trace["spans"]
    child_s = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += t1 - t0
    self_s, calls = defaultdict(float), Counter()
    root_s = 0.0
    rhs_in_step = 0
    for i, (name, t0, t1, parent, _) in enumerate(spans):
        self_s[name] += t1 - t0 - child_s[i]
        calls[name] += 1
        if parent < 0:
            root_s += t1 - t0
        elif name == "spectral.halfwave_op":
            while parent >= 0 and spans[parent][0] != "evolution.step":
                parent = spans[parent][3]
            rhs_in_step += parent >= 0

    def per(a, b):
        return a / b if b else 0.0

    rank_dim = trace["lax_rank_dim"]
    layer_s = defaultdict(float)
    for name, s in self_s.items():
        layer_s[name.split(".")[0]] += s
    metrics = {
        "spectral.halfwave_op.calls": calls["spectral.halfwave_op"],
        "spectral.halfwave_op.s": self_s["spectral.halfwave_op"],
        "spectral.symbol_builds_per_op": per(calls["spectral.modes"],
                                             calls["spectral.halfwave_op"]),
        "algebra.cross.calls": calls["algebra.cross"],
        "algebra.cross.s": self_s["algebra.cross"],
        "algebra.eta_cross.s": self_s["algebra.eta_cross"],
        "algebra.coeff_map.calls": calls["algebra.coeff_map"],
        "evolution.step.calls": calls["evolution.step"],
        "evolution.step.self_s": self_s["evolution.step"],
        "evolution.rhs_evals_per_step": per(rhs_in_step,
                                            calls["evolution.step"]),
        "evolution.diagnose.self_s": self_s["evolution.diagnose"],
        "fields.renormalized.s": self_s["fields.renormalized"],
        "lax.build_L.calls": calls["lax.build_L"],
        "lax.build_L.s": self_s["lax.build_L"],
        "lax.spectrum.s": self_s["lax.spectrum"],
        "lax.rank_fraction": per(sum(r / d for r, d in rank_dim),
                                 len(rank_dim)),
        "chain.chain_step.calls": calls["chain.chain_step"],
        "chain.chain_step.self_s": self_s["chain.chain_step"],
        "chain.kernel_builds_per_step": per(calls["chain.inverse_sin2_kernel"],
                                            calls["chain.chain_step"]),
        "chain.chain_energy.s": self_s["chain.chain_energy"],
        "chain.renormalized.s": self_s["chain.renormalized"],
        "config.build_initial_values.s": self_s["config.build_initial_values"],
        "runner.write_s": self_s["runner.write"],
        "runner.bytes_written": bytes_written,
    }
    for layer in SHARE_LAYERS:
        metrics[f"share.{layer}"] = 100.0 * per(layer_s[layer], root_s)
    return metrics


def traced(bench, seed, seconds):
    bench.setup_probe()
    plain, walls, per_run = [], [], []
    started = time.monotonic()
    ok = 0
    while True:
        wall, _, _, passed = bench.cli_run()
        plain.append(wall)
        ok += passed
        spans_path = os.path.join(bench.tmp, "spans.json")
        wall, _, size, passed = bench.cli_run(tracer_spans=spans_path)
        walls.append(wall)
        ok += passed
        if passed:
            with open(spans_path) as fh:
                trace = json.load(fh)
            per_run.append(layer_metrics(trace, size))
            for target in trace["missing"]:
                print(f"warning: trace target {target} does not exist",
                      file=sys.stderr)
        if bench.enough(started, seconds - SWEEP_S, len(walls), MIN_TRACED,
                        wall):
            break
    attempted = len(plain) + len(walls)
    if not per_run:
        raise BenchmarkError("no traced run succeeded")

    metrics = {name: statistics.median(run[name] for run in per_run)
               for name in per_run[0]}
    metrics["trace.overhead_s"] = (statistics.median(walls)
                                   - statistics.median(plain))
    summary("untraced wall_s", plain, "s")
    summary("traced wall_s", walls, "s")
    if bench.workload in PROFILE_SHARES:
        layers, expected = PROFILE_SHARES[bench.workload]
        share = sum(metrics[f"share.{layer}"] for layer in layers)
        print(f"profile: {' + '.join(layers)} take {share:.1f} % of the "
              f"traced run (expected >= {expected:.0f} %)")

    for kernel in SWEEP_KERNELS:
        log = os.path.join(bench.tmp, "sweep.log")
        _, _, code = spawn([sys.executable, os.path.join(HERE, "sweep.py"),
                            str(seed), kernel], log, bench.tmp, bench.deadline)
        if code != 0:
            raise BenchmarkError(f"N sweep of {kernel} exited with {code}: "
                                 f"{tail(log)}")
        fit = json.loads(tail(log, 1))
        metrics[f"sweep.{kernel}.exp"] = fit["exp"]
        metrics[f"sweep.{kernel}.n4096_s"] = fit["s"]["4096"]
        times = ", ".join(f"N={n}: {t:.3e} s" for n, t in fit["s"].items())
        print(f"sweep {kernel}: exponent {fit['exp']:.3f} ({times})")
    return metrics, attempted, attempted - ok


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(workload, seed, seconds, trace):
    units = declared_metrics(trace)
    os.makedirs(os.path.join(ROOT, ".perfbench_tmp"), exist_ok=True)
    tmp = os.path.join(ROOT, ".perfbench_tmp", f"{workload}-{os.getpid()}")
    os.makedirs(tmp)
    try:
        bench = Bench(workload, seed, tmp)
        print(f"workload {workload}, seed {seed}: {bench.params}")
        if trace:
            values, attempted, failed = traced(bench, seed, seconds)
        else:
            values, attempted, failed = end_to_end(bench, seconds)
        bench.print_checks()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if set(values) != set(units):
        raise BenchmarkError("computed metrics differ from BENCHMARK.json: "
                             f"{sorted(set(values) ^ set(units))}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "halfwave_lab", "cli.py")):
        print(f"error: no halfwave_lab sources under {SRC}", file=sys.stderr)
        return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         args.trace)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            os.rmdir(os.path.join(ROOT, ".perfbench_tmp"))
        except OSError:
            pass
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    for name, result in results.items():
        for metric, m in result["metrics"].items():
            print(f"{name:26s} {metric:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}:{metric}": m for name, r in results.items()
                    for metric, m in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
