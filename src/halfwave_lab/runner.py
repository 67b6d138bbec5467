"""Scenario dispatch and on-disk artifacts (CSV time series, JSON reports).

Each kind's branch of `dispatch` builds the texts of its OUTPUTS; one loop
writes them. Floats are serialized with 17 significant digits so drift
measurements survive a round trip; identical config + seed gives
bit-identical output.
"""

import functools
import itertools
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
# thread, two workers, each stepping the whole run itself, break even near
# 3e7 at dim 194 (4 records, 2.9e7: 39 ms serial, 36 ms on workers; 16
# records, 1.2e8: 150 ms serial, 108 ms on workers; medians of 15). The
# margin covers the per-record costs that dim^3 does not count (the
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
    """The threads of each BLAS call, read as numpy's OpenBLAS reads them at
    start-up: the first positive count in these variables, else one a CPU."""
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            return int(value)
    return cpus


def _record_count(cfg):
    """The rows of an evolve run: the initial, each record_interval-th and
    the final state's."""
    return 1 + -(-evolution.step_count(cfg.T, cfg.dt) // cfg.record_interval)


def lax_workers(cfg):
    """The worker processes for an evolve run's Lax records, 0 to compute
    them in process. Workers need M set, records x dim^3 >= LAX_POOL_WORK
    (dim = 2(2M + 1)), os.fork, and usable CPUs for two or more of them;
    there is one a record at most. A forked worker calls BLAS with this
    process's threads, which keeps its rows bit-equal to the serial ones,
    so each worker takes that many CPUs. While BLAS uses every CPU there is
    room for none (OpenBLAS ignores MKL_NUM_THREADS): two 2-thread workers
    on 2 CPUs took 26x the serial time."""
    if cfg.M is None:
        return 0
    records = _record_count(cfg)
    if records * (2 * (2 * cfg.M + 1)) ** 3 < LAX_POOL_WORK:
        return 0
    cpus = _usable_cpus()
    fits = cpus // _blas_threads(cpus)
    if fits < 2 or not hasattr(os, "fork"):
        return 0
    return min(fits, records)


def _replay(field, cfg, record, workers, index, rows):
    """Run cfg's evolution from field and pickle into the file `rows`, for
    each record k with k % workers == index, (True, record(state)); then, in
    the place of its next record, (True, final field) or (False, the
    exception that ended the run)."""
    slots = itertools.count()

    def send(reply):
        pickle.dump(reply, rows)
        rows.flush()

    def own_records(state):
        if next(slots) % workers == index:
            send((True, record(state)))

    try:
        final, _ = evolution.run(field, cfg.dt, cfg.T, cfg.record_interval,
                                 cfg.scheme, own_records)
        reply = (True, final)
    except Exception as exc:
        reply = (False, exc)
    send(reply)


def _run_on_workers(field, cfg, record, workers):
    """evolution.run(field, ..., record) on `workers` forked processes, each
    of which steps the whole run itself and computes every workers-th record
    (`_replay`). This process takes no step and computes no record: it reads
    record k from worker k % workers, in order, and then the final field, so
    the rows, the final state and the earliest failure in time are those of
    the serial run. A full pipe holds its worker back; no worker outlives
    the call."""
    pids, pipes = [], []  # pipes: the row reader of each worker
    try:
        for index in range(workers):
            rows_r, rows_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:  # without a reader left, a write fails, not hangs
                    for fd in [rows_r] + [f.fileno() for f in pipes]:
                        os.close(fd)
                    with open(rows_w, "wb") as rows:
                        _replay(field, cfg, record, workers, index, rows)
                finally:  # the outcome is in the pipe, not the exit status
                    os._exit(0)
            os.close(rows_w)
            pids.append(pid)
            pipes.append(open(rows_r, "rb"))
        replies = []
        for k in range(_record_count(cfg) + 1):  # the rows, the final field
            try:
                ok, reply = pickle.load(pipes[k % workers])
            except (EOFError, pickle.UnpicklingError):
                ok, reply = False, RuntimeError(
                    "a Lax worker process ended before its record")
            if not ok:
                raise reply
            replies.append(reply)
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for f in pipes:
            f.close()
    return replies[-1], replies[:-1]


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
