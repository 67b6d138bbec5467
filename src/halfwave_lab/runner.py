"""Scenario dispatch and on-disk artifacts (CSV time series, JSON reports).

Each kind's branch of `dispatch` builds the texts of its OUTPUTS; one loop
writes them. Floats are serialized with 17 significant digits so drift
measurements survive a round trip; identical config + seed gives
bit-identical output.
"""

import contextlib
import functools
import json
import os
import pickle
import signal
from dataclasses import asdict

import numpy as np

from . import chain as chain_mod
from . import evolution, lax, solitons
from .config import ScenarioConfig, build_initial_values


# the files each scenario kind writes, in the order dispatch returns them
OUTPUTS = {"evolve-sphere": ("timeseries.csv", "final_state.json"),
           "evolve-hyperbolic": ("timeseries.csv", "final_state.json"),
           "chain": ("chain.csv",), "lax-spectrum": ("spectrum.json",),
           "hs-compare": ("compare.csv",), "soliton-check": ("soliton.json",)}

# An evolve run computes its Lax records on worker processes when records x
# dim^3 reaches this. Measured in process on a 2-core machine with one BLAS
# thread, two workers cost 12-15 ms to fork and end and break even near
# 3e7 at dim 194 (16 records, 1.2e8: 151 ms serial, 100 ms on workers).
# The margin covers the per-record costs that dim^3 does not count (the
# pickling, the pipes, the energy), which weigh more at small dim. The
# lax-monitor benchmark (61 x 194^3 = 4.5e8) is above, the H^2 midpoint
# one (41 x 66^3 = 1.2e7) below.
LAX_POOL_WORK = 1e8


def _fmt(x):
    return f"{float(x):.17g}"


def timeseries_csv(records):
    """The CSV text of rows {column: value}: a header, then a line a row."""
    lines = [records[0].keys()] + [map(_fmt, row.values()) for row in records]
    return "".join(",".join(cells) + "\n" for cells in lines)


def checkpoint_json(field):
    """Serialize a field state as a JSON array of triples."""
    return json.dumps({
        "time": field.time,
        "target": field.target,
        "values": [[float(v) for v in row] for row in field.values],
    })


def soliton_report(v, zeros):
    """The soliton-check JSON payload for a profile (v, zeros). The rank-4
    Lax data (eigenvalues, trace_sq = (8/pi) E) exist for degree 1 only; at
    any other degree a "lax" note stands in their place."""
    profile = solitons.BlaschkeProfile(v, zeros)
    x = np.linspace(-50.0, 50.0, 1001)
    report = {
        "energy": solitons.profile_energy(profile),
        "residual_max": solitons.profile_residual(profile, x),
    }
    if profile.degree != 1:
        report["lax"] = (f"rank-4 Lax data hold for degree 1 only; this "
                         f"profile has degree {profile.degree}")
        return report
    r4 = solitons.rank_four_lax(v)
    report["lax_eigenvalues"] = sorted(np.linalg.eigvalsh(r4).tolist())
    report["trace_sq"] = float(np.sum(np.abs(r4) ** 2))
    return report


def _usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _blas_threads(cpus):
    """The threads of each BLAS call, read as OpenBLAS and MKL read them at
    start-up: the first positive count in these variables, else one a CPU."""
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            return int(value)
    return cpus


def lax_workers(cfg):
    """The worker processes for an evolve run's Lax records, 0 to compute
    them in process. Workers need M set, records x dim^3 >= LAX_POOL_WORK
    (dim = 2(2M + 1)), os.fork, and usable CPUs for two or more of them;
    there is one a record at most. A forked worker calls BLAS with this
    process's threads, which keeps its rows bit-equal to the serial ones,
    so each worker takes that many CPUs. While BLAS uses every CPU there is
    room for none: two 2-thread workers on 2 CPUs took 26x the serial
    time."""
    if cfg.M is None:
        return 0
    nsteps = evolution.step_count(cfg.T, cfg.dt)
    records = 1 + -(-nsteps // cfg.record_interval)  # initial, each, final
    if records * (2 * (2 * cfg.M + 1)) ** 3 < LAX_POOL_WORK:
        return 0
    cpus = _usable_cpus()
    fits = cpus // _blas_threads(cpus)
    if fits < 2 or not hasattr(os, "fork"):
        return 0
    return min(fits, records)


def _fork_worker(record, inherited):
    """Fork a process that answers each state pickled into its job pipe, in
    order, with (True, record(state)) or (False, the exception it raised)
    pickled into its row pipe, and exits at the end of the jobs. It first
    closes the `inherited` files, the pipes of earlier workers. Returns
    (pid, job writer, row reader)."""
    jobs_r, jobs_w = os.pipe()
    rows_r, rows_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            for fd in [jobs_w, rows_r] + [f.fileno() for f in inherited]:
                os.close(fd)
            with open(jobs_r, "rb") as jobs, open(rows_w, "wb") as rows:
                while True:
                    try:
                        state = pickle.load(jobs)
                    except EOFError:
                        break
                    try:
                        reply = (True, record(state))
                    except Exception as exc:
                        reply = (False, exc)
                    pickle.dump(reply, rows)
                    rows.flush()
            status = 0
        finally:
            os._exit(status)
    os.close(jobs_r)
    os.close(rows_w)
    return pid, open(jobs_w, "wb"), open(rows_r, "rb")


def _run_on_workers(field, cfg, record, workers):
    """evolution.run(field, ..., record) with record k computed by forked
    worker k % workers while this process steps on. Each row depends only
    on its own state, so the rows are those of the serial run. At most
    2 x workers states are in flight, the earliest failure in time is the
    one raised, and no worker outlives the call."""
    pids, pipes, rows = [], [], []  # pipes: (job writer, row reader)
    sent, failed = 0, False

    def take():  # the row of the oldest record in flight
        nonlocal failed
        try:
            ok, row = pickle.load(pipes[len(rows) % workers][1])
        except (EOFError, pickle.UnpicklingError):
            ok, row = False, RuntimeError(
                "a Lax worker process ended before its record")
        failed = not ok
        if failed:
            raise row
        rows.append(row)

    def submit(state):
        nonlocal sent
        if sent - len(rows) == 2 * workers:
            take()
        jobs = pipes[sent % workers][0]
        pickle.dump(state, jobs)
        jobs.flush()
        sent += 1

    try:
        for _ in range(workers):
            pid, *pipe = _fork_worker(record, [f for p in pipes for f in p])
            pids.append(pid)
            pipes.append(pipe)
        try:
            final, _ = evolution.run(field, cfg.dt, cfg.T, cfg.record_interval,
                                     cfg.scheme, submit)
        finally:  # a record's failure outranks that of a later step
            while not failed and len(rows) < sent:
                take()
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for f in (f for p in pipes for f in p):
            with contextlib.suppress(OSError):  # the pipe of a dead worker
                f.close()
    return final, rows


def dispatch(cfg: ScenarioConfig, out_dir):
    """Run the scenario described by cfg; writes artifacts into out_dir.

    Returns the list of paths written. Exceptions propagate to the CLI,
    which converts them into a machine-readable error record.
    """
    os.makedirs(out_dir, exist_ok=True)

    if cfg.kind in ("evolve-sphere", "evolve-hyperbolic"):
        field = build_initial_values(cfg)
        record = evolution.diagnose if cfg.M is None else functools.partial(
            lax.diagnose, M=cfg.M, rank_tolerance=cfg.rank_tolerance)
        workers = lax_workers(cfg)
        if workers:
            final, records = _run_on_workers(field, cfg, record, workers)
        else:
            final, records = evolution.run(field, cfg.dt, cfg.T,
                                           cfg.record_interval, cfg.scheme,
                                           record)
        texts = [timeseries_csv(records), checkpoint_json(final)]
    elif cfg.kind == "chain":
        field = build_initial_values(cfg)
        _, records = evolution.run(field, cfg.dt, cfg.T, cfg.record_interval,
                                   cfg.scheme, chain_mod.chain_diagnose,
                                   chain_mod.chain_rhs)
        texts = [timeseries_csv(records)]
    elif cfg.kind == "lax-spectrum":
        field = build_initial_values(cfg)
        L = lax.build_L(field, cfg.M or cfg.N // 4)  # config has M >= 1
        report = lax.spectrum(L, field.target, cfg.rank_tolerance)
        texts = [json.dumps(asdict(report), indent=2)]
    elif cfg.kind == "hs-compare":
        rows = chain_mod.continuum_compare(
            float(cfg.initial["a"]), float(cfg.initial["c"]), cfg.N_list, cfg.T)
        texts = [timeseries_csv([{"N": N, "error": e} for N, e in rows])]
    elif cfg.kind == "soliton-check":
        report = soliton_report(cfg.soliton_v, cfg.soliton_zeros)
        texts = [json.dumps(report, indent=2)]
    else:
        raise ValueError(f"unknown scenario kind {cfg.kind!r}")

    paths = [os.path.join(out_dir, name) for name in OUTPUTS[cfg.kind]]
    for path, text in zip(paths, texts):
        with open(path, "w") as fh:
            fh.write(text)
    return paths
