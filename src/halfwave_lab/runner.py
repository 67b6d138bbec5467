"""Scenario dispatch and on-disk artifacts (CSV time series, JSON reports).

Each kind's branch of `dispatch` builds the texts of its OUTPUTS; `write`
writes them (and the CLI's ERROR), all or none. Floats are serialized with
17 significant digits so drift measurements survive a round trip; identical
config + seed gives bit-identical output.
"""

import collections
import contextlib
import functools
import json
import os
import pickle
import signal
from dataclasses import asdict

from . import chain as chain_mod
from . import evolution, lax, solitons
from .config import ScenarioConfig, build_initial_values


# the files each scenario kind writes, in the order dispatch returns them
OUTPUTS = {"evolve-sphere": ("timeseries.csv", "final_state.json"),
           "evolve-hyperbolic": ("timeseries.csv", "final_state.json"),
           "chain": ("chain.csv",), "lax-spectrum": ("spectrum.json",),
           "hs-compare": ("compare.csv",), "soliton-check": ("soliton.json",)}
ERROR = "error.json"  # a failed run's record, alone in its out_dir

# An evolve run computes its Lax records on worker processes when records x
# dim^3 reaches this; they cost a fork each and a pickled state a record.
# Measured in CLI runs on a 2-core machine with one BLAS thread, two
# workers against the serial run (medians of 20 alternating pairs), the
# workers lose below it: 11 records of dim 26 (1.9e5) took 0.139 s against
# 0.122 s, 5 of dim 66 (1.4e6) 0.206 s against 0.183 s and 41 of dim 34
# (1.6e6) 0.143 s against 0.123 s. Above it (in process, 30 pairs) the H^2
# midpoint benchmark's 41 of dim 66 (1.2e7) gained 35 ms of 180 ms and
# lax-monitor's 61 of dim 194 (4.5e8) 127 ms of 364 ms (12 pairs).
LAX_POOL_WORK = 5e6


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
        "values": field.values.tolist(),
    })


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


def _serve(record, jobs, rows):
    """A Lax worker: for each state pickled into the file `jobs`, until its
    EOF, pickle (True, record(state)) or (False, the exception) into `rows`."""
    while True:
        try:
            state = pickle.load(jobs)
        except EOFError:
            return
        try:
            reply = (True, record(state))
        except Exception as exc:
            reply = (False, exc)
        pickle.dump(reply, rows)
        rows.flush()


def _evolve(field, cfg, record, rhs=evolution.rhs):
    """evolution.run(field, cfg.dt, ..., record, rhs). With lax_workers(cfg)
    > 0 the records run on that many forked processes (`_serve`): this
    process takes every step and computes no record, pickles record k's
    state to worker k % workers and reads the rows back in order, so the
    Lax records overlap the time loop. The rows, the final state and the
    earliest failure in time are those of the serial run. No worker
    outlives the call."""
    workers = lax_workers(cfg)
    if not workers:
        return evolution.run(field, cfg.dt, cfg.T, cfg.record_interval,
                             cfg.scheme, record, rhs)
    pids, jobs, rows = [], [], []  # of each worker: its state writer, row reader
    in_flight = collections.deque()  # the row reader of each unread record
    done = []  # the rows read
    ended = "a Lax worker process ended before its record"

    def read_oldest():
        try:
            ok, reply = pickle.load(in_flight.popleft())
        except (EOFError, pickle.UnpicklingError):
            ok, reply = False, RuntimeError(ended)
        if not ok:  # the earliest failure: the records after it do not count
            in_flight.clear()
            raise reply
        done.append(reply)

    def send(state):
        # with 2 records a worker at most in flight, a worker never waits on
        # its row pipe, so a state of any size reaches it
        if len(in_flight) == 2 * workers:
            read_oldest()
        i = (len(done) + len(in_flight)) % workers  # record k: worker k % w
        try:
            pickle.dump(state, jobs[i])
            jobs[i].flush()
        except BrokenPipeError:
            raise RuntimeError(ended) from None
        in_flight.append(rows[i])

    try:
        for _ in range(workers):
            jobs_r, jobs_w = os.pipe()
            rows_r, rows_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:  # keep only this worker's ends, so that EOF and a
                    # write with no reader left reach them
                    others = [f.fileno() for f in jobs + rows]
                    for fd in [jobs_w, rows_r] + others:
                        os.close(fd)
                    with open(jobs_r, "rb") as jobs_in, \
                            open(rows_w, "wb") as rows_out:
                        _serve(record, jobs_in, rows_out)
                finally:  # the outcome is in the pipe, not the exit status
                    os._exit(0)
            os.close(jobs_r)
            os.close(rows_w)
            pids.append(pid)
            jobs.append(open(jobs_w, "wb"))
            rows.append(open(rows_r, "rb"))
        try:
            final, _ = evolution.run(field, cfg.dt, cfg.T, cfg.record_interval,
                                     cfg.scheme, send, rhs)
        except Exception:  # a record sent before this failure fails first
            while in_flight:
                read_oldest()
            raise
        while in_flight:
            read_oldest()
    finally:
        for f in jobs:  # a dead worker's pipe may hold part of a state
            with contextlib.suppress(BrokenPipeError):
                f.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for f in rows:
            f.close()
    return final, done


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
        final, records = _evolve(field, cfg, record)
        texts = [timeseries_csv(records), checkpoint_json(final)]
    elif cfg.kind == "chain":
        _, records = _evolve(build_initial_values(cfg), cfg,
                             chain_mod.chain_diagnose, chain_mod.chain_rhs)
        texts = [timeseries_csv(records)]
    elif cfg.kind == "lax-spectrum":
        field = build_initial_values(cfg)
        L = lax.build_L(field, cfg.M or cfg.N // 4)  # config has M >= 1
        report = lax.spectrum(L, field.target, cfg.rank_tolerance)
        texts = [json.dumps(asdict(report), indent=2)]
    elif cfg.kind == "hs-compare":
        rows = chain_mod.continuum_compare(
            cfg.initial["a"], cfg.initial["c"], cfg.compare["N_list"], cfg.T)
        texts = [timeseries_csv([{"N": N, "error": e} for N, e in rows])]
    elif cfg.kind == "soliton-check":
        report = solitons.soliton_report(**cfg.soliton)
        texts = [json.dumps(report, indent=2)]
    else:
        raise ValueError(f"unknown scenario kind {cfg.kind!r}")

    return write(out_dir, dict(zip(OUTPUTS[cfg.kind], texts)))


def write(out_dir, texts):
    """Write each {name: text} as out_dir/name, all or none: each file takes
    its name from name.tmp once every write succeeded. Returns the paths."""
    paths = [os.path.join(out_dir, name) for name in texts]
    try:
        for path, text in zip(paths, texts.values()):
            with open(path + ".tmp", "w") as fh:
                fh.write(text)
        for path in paths:
            os.replace(path + ".tmp", path)
    except BaseException:  # a failed write: a full disk, a file size limit
        for path in paths + [path + ".tmp" for path in paths]:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        raise
    return paths


def clear(out_dir):
    """Make out_dir, and remove from it each file a run may leave there."""
    os.makedirs(out_dir, exist_ok=True)
    for name in sorted({ERROR}.union(*OUTPUTS.values())):
        for path in (os.path.join(out_dir, name + end) for end in ("", ".tmp")):
            if os.path.lexists(path):
                os.remove(path)
