"""The command line as separate processes: the checks that only a fresh
interpreter can make. Each test starts `python -m halfwave_lab.cli` with the
tested package's source directory as PYTHONPATH (under ADOPTER, a parent
that adopts what the run leaves behind, where processes are counted).

- Two processes of one config write the same bytes.
- An evolve run whose Lax records go to forked worker processes (two of
  them, with one BLAS thread on a machine with two or more CPUs) writes the
  bytes that the same run pinned to one CPU writes, which computes its
  records in process, and leaves no process behind.
- A bandwidth of 10^30 exits 2 at once: a field build of that many modes
  would never finish.
- The command ends without the interpreter's teardown (cli.entry), and
  still loses nothing it prints to piped stdout and stderr.
- A run whose write of any one of its files fails (under a file size
  limit) leaves error.json alone in --out.

The in-process checks of the same entry point (exit codes, error records,
directory listings) are in test_config_cli.py.
"""

import json
import os
import subprocess
import sys

import pytest

import halfwave_lab
from halfwave_lab.config import parse_config
from halfwave_lab.runner import OUTPUTS

SRC = os.path.dirname(os.path.dirname(halfwave_lab.__file__))
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

# name -> (subcommand, config); each is run twice and must write the same
# bytes: a midpoint run, which carries state from step to step, an H^2 Lax
# spectrum, a soliton check, a chain run and a chain-vs-PDE comparison
RERUNS = {
    "hyperbolic-midpoint": ("evolve", """
[scenario]
kind = evolve-hyperbolic
N = 64
M = 8
dt = 1e-2
T = 0.1
record_interval = 2
scheme = midpoint

[initial]
family = hyperbolic-circle
a = 0.5
"""),
    "lax-spectrum": ("lax-spectrum", """
[scenario]
kind = lax-spectrum
N = 64
M = 12

[initial]
family = hyperbolic-circle
a = 0.75
"""),
    "soliton-check": ("soliton-check", """
[scenario]
kind = soliton-check

[soliton]
v = 0.5
zeros = 1j
"""),
    "chain": ("chain", """
[scenario]
kind = chain
N = 128
dt = 1e-4
T = 2e-3
record_interval = 5

[initial]
family = random-band-limited
bandwidth = 8
"""),
    "hs-compare": ("hs-compare", """
[scenario]
kind = hs-compare
T = 0.5

[initial]
family = tilted-circle
a = 0.6
c = 0.8

[compare]
N_list = 16, 32, 64
"""),
}

# evolve runs with 21 and 61 Lax records of dim 194, records x dim^3 above
# runner.LAX_POOL_WORK: on workers with one BLAS thread and two CPUs
POOLED = {
    "sphere-rk4": """
[scenario]
kind = evolve-sphere
N = 128
M = 48
dt = 5e-3
T = 0.1

[initial]
family = random-band-limited
bandwidth = 6
""",
    "hyperbolic-midpoint": """
[scenario]
kind = evolve-hyperbolic
N = 128
M = 48
dt = 5e-3
T = 0.3
scheme = midpoint

[initial]
family = hyperbolic-circle
a = 0.5
""",
}

# an evolve run whose final_state.json outgrows its timeseries.csv, so that
# a file size limit can fall inside either
SMALL_SERIES = """
[scenario]
kind = evolve-sphere
N = 256
dt = 2e-3
T = 0.1
record_interval = 10

[initial]
family = random-band-limited
bandwidth = 8
"""

HUGE_BANDWIDTH = """
[scenario]
kind = evolve-sphere
N = 64
dt = 1e-2
T = 0.1

[initial]
family = random-band-limited
bandwidth = 1000000000000000000000000000000
"""


# `python -c ADOPTER args` runs `python -m halfwave_lab.cli args` as a child
# subreaper (Linux prctl PR_SET_CHILD_SUBREAPER = 36), which adopts every
# process the run leaves behind, living or unreaped, and exits 3 if there is
# one; else with the run's exit code
ADOPTER = """
import ctypes, os, subprocess, sys
prctl = ctypes.CDLL(None, use_errno=True).prctl
prctl.argtypes, prctl.restype = [ctypes.c_int] + [ctypes.c_ulong] * 4, ctypes.c_int
if prctl(36, 1, 0, 0, 0) != 0:
    sys.exit(f"prctl: {os.strerror(ctypes.get_errno())}")
code = subprocess.run([sys.executable, "-m", "halfwave_lab.cli",
                       *sys.argv[1:]]).returncode
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    sys.exit(code)
print("a process outlived the run", file=sys.stderr)
sys.exit(3)
"""


def _cli(tmp_path, command, text, out, env=None, adopter=False, timeout=120,
         **kwargs):
    """Run `halfwave-lab command` on the config text in a new process with
    --out tmp_path/out, under ADOPTER if adopter; return the finished
    process."""
    cfg_path = tmp_path / f"{out}.cfg"
    cfg_path.write_text(text)
    start = ["-c", ADOPTER] if adopter else ["-m", "halfwave_lab.cli"]
    return subprocess.run(
        [sys.executable, *start, command,
         "--config", str(cfg_path), "--out", str(tmp_path / out)],
        env=dict(os.environ, PYTHONPATH=SRC, **(env or {})),
        capture_output=True, text=True, timeout=timeout, **kwargs)


def _outputs(tmp_path, out, kind):
    """{file name: bytes} of each file the kind writes, from tmp_path/out."""
    return {name: (tmp_path / out / name).read_bytes()
            for name in OUTPUTS[kind]}


@pytest.mark.parametrize("name", RERUNS)
def test_two_processes_write_the_same_bytes(tmp_path, name):
    command, text = RERUNS[name]
    kind = parse_config(text).kind
    for out in ("run1", "run2"):
        done = _cli(tmp_path, command, text, out)
        assert done.returncode == 0, done.stderr
    first = _outputs(tmp_path, "run1", kind)
    assert first == _outputs(tmp_path, "run2", kind)
    assert all(first.values())


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="Linux only: sched_setaffinity and prctl")
@pytest.mark.parametrize("name", POOLED)
def test_worker_runs_write_the_pinned_run_bytes_and_leave_no_process(
        tmp_path, name):
    text, cpu = POOLED[name], min(os.sched_getaffinity(0))
    kind = parse_config(text).kind
    runs = {"run1": None, "run2": None,  # on workers where CPUs allow
            "pinned": lambda: os.sched_setaffinity(0, {cpu})}  # in process
    for out, pin in runs.items():  # exit 3: a process outlived the run
        done = _cli(tmp_path, "evolve", text, out, ONE_THREAD, adopter=True,
                    preexec_fn=pin)
        assert done.returncode == 0, done.stderr
    first = _outputs(tmp_path, "run1", kind)
    for out in ("run2", "pinned"):
        assert _outputs(tmp_path, out, kind) == first, out


def test_huge_bandwidth_exits_2_at_once(tmp_path):
    done = _cli(tmp_path, "evolve", HUGE_BANDWIDTH, "bw", timeout=30)
    assert done.returncode == 2, done.stderr
    assert os.listdir(tmp_path / "bw") == ["error.json"]
    message = json.loads((tmp_path / "bw" / "error.json").read_text())["message"]
    assert "<= N/2 - 1" in message


def test_hard_exit_loses_no_output(tmp_path):
    # piped, and with PYTHONUNBUFFERED empty (unset), stdout is
    # block-buffered: the paths a run prints reach the pipe only through the
    # flush before os._exit (stderr is line-buffered even piped)
    text, buffered = RERUNS["hyperbolic-midpoint"][1], {"PYTHONUNBUFFERED": ""}
    done = _cli(tmp_path, "evolve", text, "good", buffered)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "".join(f"{tmp_path / 'good' / name}\n" for name
                                  in OUTPUTS["evolve-hyperbolic"])
    assert done.stderr == ""
    # exit 2: the config's kind is not the subcommand's; exit 1: the run's
    # first write outgrows a file size limit of 1 KiB (Python ignores
    # SIGXFSZ, so the write fails with EFBIG), and the error record fits
    resource = pytest.importorskip("resource")
    limit = (1024, 1024)
    for out, command, preexec, code in [
            ("kind", "chain", None, 2),
            ("fsize", "evolve",
             lambda: resource.setrlimit(resource.RLIMIT_FSIZE, limit), 1)]:
        done = _cli(tmp_path, command, text, out, buffered,
                    preexec_fn=preexec)
        assert done.returncode == code, done.stderr
        message = json.loads((tmp_path / out / "error.json").read_text())[
            "message"]
        assert done.stderr == f"error: {message}\n"
        assert done.stdout == ""


@pytest.mark.parametrize("command", ["evolve", "lax-spectrum"])
def test_a_failed_write_leaves_error_json_alone(tmp_path, command):
    # a file size limit one byte below an output's size, and above every
    # earlier output's, makes the write of that output fail with EFBIG
    resource = pytest.importorskip("resource")
    text = {"evolve": SMALL_SERIES,
            "lax-spectrum": RERUNS["lax-spectrum"][1]}[command]
    done = _cli(tmp_path, command, text, "full")
    assert done.returncode == 0, done.stderr
    sizes = [len(b) for b in
             _outputs(tmp_path, "full", parse_config(text).kind).values()]
    for i, size in enumerate(sizes):
        assert max(sizes[:i], default=0) < size
        limit = (size - 1, size - 1)
        done = _cli(tmp_path, command, text, f"limit{i}", preexec_fn=lambda:
                    resource.setrlimit(resource.RLIMIT_FSIZE, limit))
        assert done.returncode == 1, done.stderr
        assert "File too large" in done.stderr
        assert os.listdir(tmp_path / f"limit{i}") == ["error.json"]
