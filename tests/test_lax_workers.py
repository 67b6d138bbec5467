"""Lax records on worker processes: the rule that picks them, the rows they
give and the failures they report, against the in-process path."""

import collections
import functools
import io
import json
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

import halfwave_lab
from halfwave_lab import cli, evolution, lax, runner
from halfwave_lab.config import build_initial_values, parse_config

SPHERE = """
[scenario]
kind = evolve-sphere
N = 64
M = 8
dt = 1e-2
T = 0.2
record_interval = 1
scheme = rk4

[initial]
family = random-band-limited
bandwidth = 6
"""
HYPERBOLIC = """
[scenario]
kind = evolve-hyperbolic
N = 64
M = 8
dt = 1e-2
T = 0.2
record_interval = 2
scheme = midpoint

[initial]
family = hyperbolic-circle
a = 0.5
"""
# the shapes of two benchmark workloads: lax-monitor (61 records of dim
# 194) and the H^2 midpoint one (41 records of dim 66)
LAX_MONITOR = SPHERE.replace("N = 64\nM = 8", "N = 128\nM = 48") \
    .replace("dt = 1e-2\nT = 0.2", "dt = 5e-3\nT = 0.3")
MIDPOINT_SHAPE = HYPERBOLIC.replace("N = 64\nM = 8", "N = 256\nM = 16") \
    .replace("dt = 1e-2\nT = 0.2\nrecord_interval = 2",
             "dt = 2e-3\nT = 2.0\nrecord_interval = 25")
# 5 x 66^3 = 1.4e6, below runner.LAX_POOL_WORK: serial
FIVE_RECORDS_OF_DIM_66 = MIDPOINT_SHAPE.replace("record_interval = 25",
                                                "record_interval = 250")
# 41 records at N = 4096: each pickled state (98 KB) outgrows a 64 KiB pipe
# buffer
BIG_STATE = SPHERE.replace("N = 64", "N = 4096") \
    .replace("dt = 1e-2\nT = 0.2", "dt = 1e-3\nT = 0.04")


def _no_child_process():
    """True when this process has no child, living or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _machine(monkeypatch, cpus, blas_threads):
    monkeypatch.setattr(runner, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(runner, "_blas_threads", lambda cpus: blas_threads)


@pytest.fixture
def two_workers(monkeypatch):
    """Every run with M set goes to two workers."""
    _machine(monkeypatch, 2, 1)
    monkeypatch.setattr(runner, "LAX_POOL_WORK", 0)


def test_rule_puts_lax_monitor_on_workers(monkeypatch):
    _machine(monkeypatch, 2, 1)
    assert runner.lax_workers(parse_config(LAX_MONITOR)) == 2
    _machine(monkeypatch, 8, 1)  # at most one worker a record
    three_records = LAX_MONITOR.replace("N = 128\nM = 48", "N = 512\nM = 200") \
        .replace("T = 0.3", "T = 1e-2")
    assert runner.lax_workers(parse_config(three_records)) == 3
    _machine(monkeypatch, 8, 2)  # the CPUs hold one worker a BLAS call
    assert runner.lax_workers(parse_config(LAX_MONITOR)) == 4


def test_rule_puts_the_midpoint_shape_on_workers(monkeypatch):
    _machine(monkeypatch, 2, 1)
    assert runner.lax_workers(parse_config(MIDPOINT_SHAPE)) == 2


@pytest.mark.parametrize("text, cpus, blas_threads", [
    (FIVE_RECORDS_OF_DIM_66, 2, 1),
    (LAX_MONITOR.replace("M = 48\n", ""), 2, 1),
    (LAX_MONITOR, 1, 1),
    (LAX_MONITOR, 2, 2)],
    ids=["five-records-of-dim-66", "M-unset", "one-cpu", "blas-on-every-cpu"])
def test_rule_keeps_serial(monkeypatch, text, cpus, blas_threads):
    _machine(monkeypatch, cpus, blas_threads)
    assert runner.lax_workers(parse_config(text)) == 0


def test_blas_threads_read_like_blas(monkeypatch):
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "MKL_NUM_THREADS",
                "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    assert runner._blas_threads(6) == 6
    monkeypatch.setenv("MKL_NUM_THREADS", "1")  # OpenBLAS ignores it
    assert runner._blas_threads(6) == 6
    monkeypatch.delenv("MKL_NUM_THREADS")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert runner._blas_threads(6) == 1
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    assert runner._blas_threads(6) == 3
    monkeypatch.setenv("GOTO_NUM_THREADS", "2")
    assert runner._blas_threads(6) == 2
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert runner._blas_threads(6) == 1
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "0")  # not a count: skipped
    assert runner._blas_threads(6) == 2


def test_mkl_alone_keeps_lax_monitor_serial(monkeypatch):
    # OpenBLAS ignores MKL_NUM_THREADS: with only that set it has a thread
    # on each of the 2 CPUs, and two workers would oversubscribe them
    monkeypatch.setattr(runner, "_usable_cpus", lambda: 2)
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "1")
    assert runner.lax_workers(parse_config(LAX_MONITOR)) == 0
    monkeypatch.delenv("MKL_NUM_THREADS")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # alone, as README says
    assert runner.lax_workers(parse_config(LAX_MONITOR)) == 2
    for var in ("OMP_NUM_THREADS", "MKL_NUM_THREADS"):  # as perfbench
        monkeypatch.setenv(var, "1")
    assert runner.lax_workers(parse_config(LAX_MONITOR)) == 2


# 601 records: many more than the 4 that two workers hold in flight
# 20 steps at record_interval 3: the last row is the final state's, after a
# short interval of 2 steps
# BIG_STATE: this process waits on a job pipe until its worker has read
# the state
@pytest.mark.parametrize("text", [SPHERE, HYPERBOLIC,
                                  SPHERE.replace("T = 0.2", "T = 6.0"),
                                  SPHERE.replace("record_interval = 1",
                                                 "record_interval = 3"),
                                  BIG_STATE],
                         ids=["sphere", "hyperbolic", "sphere-601-records",
                              "sphere-interval-3",
                              "sphere-state-outgrows-a-pipe"])
def test_worker_rows_are_the_serial_rows(tmp_path, two_workers, text):
    cfg = parse_config(text)
    assert runner.lax_workers(cfg) == 2
    record = functools.partial(lax.diagnose, M=cfg.M,
                               rank_tolerance=cfg.rank_tolerance)
    final, rows = evolution.run(build_initial_values(cfg), cfg.dt, cfg.T,
                                cfg.record_interval, cfg.scheme, record)
    assert len(rows) == runner._record_count(cfg)
    assert runner.dispatch(cfg, tmp_path)
    assert (tmp_path / "timeseries.csv").read_text() == \
        runner.timeseries_csv(rows)
    assert (tmp_path / "final_state.json").read_text() == \
        runner.checkpoint_json(final)  # 17 digits: float for float
    assert _no_child_process()


def _fail_at_record(monkeypatch, cfg, k, blow_up_step):
    """lax.spectrum raising at record k and at each record after it (in
    whichever process computes it), as a failure that persists does, and
    the projection that ends each step of evolution.run (the
    evolution.project it calls) raising a blow-up at step blow_up_step;
    cfg records every step."""
    states = evolution.run(build_initial_values(cfg), cfg.dt, cfg.T,
                           cfg.record_interval, cfg.scheme, lambda f: f)[1]
    bad_Ls = {j: lax.build_L(state, cfg.M)
              for j, state in enumerate(states) if j >= k}
    spectrum, project = lax.spectrum, evolution.project

    def failing_spectrum(L, target, rank_tolerance=1e-8):
        for j, bad_L in bad_Ls.items():
            if np.array_equal(L, bad_L):
                raise RuntimeError(f"record {j} failed")
        return spectrum(L, target, rank_tolerance)

    def blowing_project(*args, **kwargs):
        rows = project(*args, **kwargs)
        if blow_up_step < len(states) and np.array_equal(
                rows.T, states[blow_up_step].values):
            raise RuntimeError(f"step {blow_up_step} blew up (blow-up)")
        return rows

    monkeypatch.setattr(lax, "spectrum", failing_spectrum)
    monkeypatch.setattr(evolution, "project", blowing_project)


@pytest.mark.parametrize("k, blow_up_step, message", [
    (3, 4, "RuntimeError: record 3 failed"),    # blow-up at the next step
    (3, 15, "RuntimeError: record 3 failed"),   # blow-up 12 steps later
    (3, 99, "RuntimeError: record 3 failed"),   # no blow-up
    (0, 1, "RuntimeError: record 0 failed"),
    (6, 4, "RuntimeError: step 4 blew up (blow-up)")],
    ids=["in-flight", "past-window", "no-blow-up", "first", "blow-up-first"])
def test_earliest_failure_is_reported(tmp_path, monkeypatch, capsys, k,
                                      blow_up_step, message):
    cfg_path = tmp_path / "s.cfg"
    cfg_path.write_text(SPHERE)
    _fail_at_record(monkeypatch, parse_config(SPHERE), k, blow_up_step)
    outcomes = []
    for workers in (0, 2):  # in process, then on two workers
        monkeypatch.setattr(runner, "lax_workers", lambda cfg: workers)
        out = tmp_path / f"w{workers}"
        code = cli.main(["evolve", "--config", str(cfg_path),
                         "--out", str(out)])
        outcomes.append((code, json.loads((out / "error.json").read_text()),
                         os.listdir(out)))
        assert _no_child_process()
    assert outcomes[0] == outcomes[1]
    assert outcomes[1] == (1, {"status": "error", "message": message},
                           ["error.json"])
    assert capsys.readouterr().err == f"error: {message}\n" * 2


def test_no_worker_outlives_a_failed_dispatch(tmp_path, monkeypatch,
                                              two_workers):
    cfg = parse_config(SPHERE)
    _fail_at_record(monkeypatch, cfg, 2, 99)
    with pytest.raises(RuntimeError, match="record 2 failed"):
        runner.dispatch(cfg, tmp_path)
    assert _no_child_process()
    assert runner.dispatch(parse_config(HYPERBOLIC), tmp_path)
    assert _no_child_process()


def test_a_worker_that_dies_is_a_failure(tmp_path, monkeypatch, two_workers):
    spectrum, serve, parent = lax.spectrum, runner._serve, os.getpid()

    def dying_spectrum(L, target, rank_tolerance=1e-8):  # at its first record
        if os.getpid() != parent:
            os._exit(3)
        return spectrum(L, target, rank_tolerance)

    def serve_one_state(record, jobs, rows):  # dies after its first row
        serve(record, io.BytesIO(pickle.dumps(pickle.load(jobs))), rows)
        os._exit(3)

    # on BIG_STATE, this process is still writing worker 0's second state
    # when worker 0 ends after its first row: a job pipe with no reader
    for module, name, dying in [(lax, "spectrum", dying_spectrum),
                                (runner, "_serve", serve_one_state)]:
        for text in (SPHERE, BIG_STATE):
            with monkeypatch.context() as patch:
                patch.setattr(module, name, dying)
                with pytest.raises(RuntimeError,
                                   match="ended before its record"):
                    runner.dispatch(parse_config(text), tmp_path)
            assert _no_child_process()


def test_main_process_takes_every_step_and_computes_no_record(tmp_path,
                                                              monkeypatch):
    # run projects once a step, in the process that takes the step; each
    # call appends its pid to a file, which the workers' calls reach too
    main, log = os.getpid(), tmp_path / "calls"

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{name} {os.getpid()}\n")
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(evolution, "project")
    counted(lax, "spectrum")
    cfg = parse_config(SPHERE)
    for workers, calls in [(0, {("project", True): 20,  # in process
                                ("spectrum", True): 21}),
                           (2, {("project", True): 20,
                                ("spectrum", False): 21})]:
        monkeypatch.setattr(runner, "lax_workers", lambda cfg: workers)
        log.write_text("")
        assert runner.dispatch(cfg, tmp_path / f"w{workers}")
        # (name, in the main process): calls
        assert collections.Counter(
            (name, int(pid) == main) for name, pid in
            map(str.split, log.read_text().splitlines())) == calls
    assert _no_child_process()


def test_cli_import_and_serial_run_load_no_pool_modules(tmp_path):
    # no pool module is imported, by the serial run or on the worker path
    # (forked processes and pipes), and no run imports numpy.random: SPHERE's
    # random field comes from random.Random
    cfg_path = tmp_path / "s.cfg"
    cfg_path.write_text(SPHERE)
    run = (f"assert cli.main(['evolve', '--config', {str(cfg_path)!r}, "
           f"'--out', {str(tmp_path / 'out')!r}]) == 0\n"
           "assert not any(m in sys.modules for m in pool)\n")
    code = (
        "import sys\n"
        "import halfwave_lab.cli as cli\n"
        "from halfwave_lab import runner\n"
        "pool = ('multiprocessing', 'concurrent.futures')\n"
        "assert not any(m in sys.modules for m in pool)\n"
        + run +
        "runner.lax_workers = lambda cfg: 2\n"
        + run +
        "assert 'numpy.random' not in sys.modules\n")
    src = os.path.dirname(os.path.dirname(halfwave_lab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
