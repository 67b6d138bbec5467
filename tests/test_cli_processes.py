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
  limit) leaves error.json alone in --out. With the limit inside
  error.json too, a config error exits 2 and a failed run 1, each with its
  one error line and nothing in --out.
- SIGINT or SIGTERM, sent once a run's two Lax workers exist, leaves
  nothing in --out and no process alive.
- A run killed before its renames leaves its files under their .tmp
  names, and the next run removes them.

The in-process checks of the same entry point (exit codes, error records,
directory listings) are in test_config_cli.py.
"""

import errno
import json
import os
import re
import signal
import subprocess
import sys

import pytest

import halfwave_lab
from halfwave_lab.config import ConfigError, parse_config
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


# the start of ADOPTER and INTERRUPTER: the process becomes a child
# subreaper (Linux prctl PR_SET_CHILD_SUBREAPER = 36), which adopts every
# process the run leaves behind, living or unreaped
SUBREAPER = """
import ctypes, os, subprocess, sys, time
prctl = ctypes.CDLL(None, use_errno=True).prctl
prctl.argtypes, prctl.restype = [ctypes.c_int] + [ctypes.c_ulong] * 4, ctypes.c_int
if prctl(36, 1, 0, 0, 0) != 0:
    sys.exit(f"prctl: {os.strerror(ctypes.get_errno())}")
"""

# `python -c ADOPTER args` runs `python -m halfwave_lab.cli args` as a
# SUBREAPER, and exits 3 if a process outlived the run; else with the run's
# exit code
ADOPTER = SUBREAPER + """
code = subprocess.run([sys.executable, "-m", "halfwave_lab.cli",
                       *sys.argv[1:]]).returncode
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    sys.exit(code)
print("a process outlived the run", file=sys.stderr)
sys.exit(3)
"""

# `python -c "SIGNAL = s" + INTERRUPTER args` starts `python -m
# halfwave_lab.cli args` as a SUBREAPER, sends it signal s once it has two
# child processes (its Lax workers) and prints the run's return code. Then
# it reaps what the run left behind as it ends, and exits 3 if a process is
# still alive 10 s after the run ended
INTERRUPTER = SUBREAPER + """
run = subprocess.Popen([sys.executable, "-m", "halfwave_lab.cli",
                        *sys.argv[1:]])
while run.poll() is None:
    with open(f"/proc/{run.pid}/task/{run.pid}/children") as fh:
        if len(fh.read().split()) == 2:
            break
    time.sleep(1e-3)
run.send_signal(SIGNAL)
print(run.wait())
end = time.monotonic() + 10
while time.monotonic() < end:
    try:
        if os.waitpid(-1, os.WNOHANG) == (0, 0):
            time.sleep(1e-2)
    except ChildProcessError:
        sys.exit(0)
print("a process outlived the run", file=sys.stderr)
sys.exit(3)
"""

# `python -c KILLED_AT_RENAME args` runs halfwave-lab args, killed (SIGKILL)
# at its first rename: once it has written every file under its .tmp name
KILLED_AT_RENAME = """
import os, signal, sys
from halfwave_lab import cli
os.replace = lambda *args: os.kill(os.getpid(), signal.SIGKILL)
cli.main(sys.argv[1:])
"""


def _cli(tmp_path, command, text, out, env=None, script=None, timeout=120,
         **kwargs):
    """Run `halfwave-lab command` on the config text in a new process with
    --out tmp_path/out, through `python -c script` if script is given;
    return the finished process."""
    cfg_path = tmp_path / f"{out}.cfg"
    cfg_path.write_text(text)
    start = ["-c", script] if script else ["-m", "halfwave_lab.cli"]
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
        done = _cli(tmp_path, "evolve", text, out, ONE_THREAD, ADOPTER,
                    preexec_fn=pin)
        assert done.returncode == 0, done.stderr
    first = _outputs(tmp_path, "run1", kind)
    for out in ("run2", "pinned"):
        assert _outputs(tmp_path, out, kind) == first, out


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="Linux only, and two CPUs for two Lax workers")
@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM],
                         ids=["SIGINT", "SIGTERM"])
def test_a_signal_during_a_worker_run_leaves_nothing(tmp_path, signum):
    # SIGINT: KeyboardInterrupt, whose cleanup kills and reaps the workers;
    # SIGTERM ends the run at once, and its workers end at the EOF of their
    # state pipes. Neither leaves a file: every write comes after the loop.
    # The run starts with SIGINT at its default action: an ignored SIGINT,
    # which pytest has as a background job of a non-interactive shell, is
    # inherited, and the run then ends with exit 0
    script = f"SIGNAL = {int(signum)}\n" + INTERRUPTER
    done = _cli(tmp_path, "evolve", POOLED["hyperbolic-midpoint"], "out",
                ONE_THREAD, script, preexec_fn=lambda: signal.signal(
                    signal.SIGINT, signal.SIG_DFL))
    assert done.returncode == 0, done.stderr  # 3: a process outlived the run
    assert done.stdout == f"{-signum}\n"
    assert os.listdir(tmp_path / "out") == []


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
    # a limit inside error.json as well: a config error (N = 3) and a run
    # error leave --out empty, and the exit code and the error line still
    # tell (error.json was once written apart, and its write failed with
    # exit 1, a traceback and a truncated error.json)
    bad = re.sub(r"N = \d+", "N = 3", text)
    with pytest.raises(ConfigError) as config_error:
        parse_config(bad)
    too_large = OSError(errno.EFBIG, os.strerror(errno.EFBIG))
    limit = (50, 50)
    for out, cfg_text, code, message in [
            ("config50", bad, 2, str(config_error.value)),
            ("run50", text, 1, f"OSError: {too_large}")]:
        record = json.dumps({"status": "error", "message": message}, indent=2)
        assert len(record) > limit[0]
        done = _cli(tmp_path, command, cfg_text, out, preexec_fn=lambda:
                    resource.setrlimit(resource.RLIMIT_FSIZE, limit))
        assert done.returncode == code, done.stderr
        assert done.stderr == f"error: {message}\n"
        assert os.listdir(tmp_path / out) == []


def test_a_killed_run_leaves_no_file_beside_later_ones(tmp_path):
    # killed before its renames, an evolve run leaves its files under their
    # .tmp names; a later run of another kind, and then a config error,
    # each leave their own files alone in --out
    done = _cli(tmp_path, "evolve", SMALL_SERIES, "out",
                script=KILLED_AT_RENAME)
    assert done.returncode == -signal.SIGKILL, done.stderr
    assert sorted(os.listdir(tmp_path / "out")) == [
        "final_state.json.tmp", "timeseries.csv.tmp"]
    chain = RERUNS["chain"][1]
    for text, code, files in [(chain, 0, ["chain.csv"]),
                              (chain.replace("N = 128", "N = 3"), 2,
                               ["error.json"])]:
        done = _cli(tmp_path, "chain", text, "out")
        assert done.returncode == code, done.stderr
        assert os.listdir(tmp_path / "out") == files
