"""Golden artifacts: each config below, run in process through cli.main,
writes the bytes stored in tests/golden/<name>/, and only those files.

Every config runs everywhere, and its exit code, its file names, each
CSV's header and line count and each JSON's top-level keys must be those
stored. Bytes are compared only in the environment the files were made in
(tests/golden/environment.json: the numpy version, the machine and the
CPU features numpy dispatches on); elsewhere the test then skips and says
why.
A change that means to move an artifact regenerates the files, so that
the change shows in the diff:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import platform
import re
import shutil
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__

from halfwave_lab import cli, runner, solitons

GOLDEN = Path(__file__).parent / "golden"
ENVIRONMENT = {"numpy": np.__version__, "machine": platform.machine(),
               "cpu_features": sorted(k for k, v in __cpu_features__.items()
                                      if v)}

_SPHERE = """
[scenario]
kind = evolve-sphere
N = 32
M = 6
dt = 1e-2
T = 0.1
record_interval = 2

[initial]
family = random-band-limited
bandwidth = 4
"""
_HYPERBOLIC = """
[scenario]
kind = evolve-hyperbolic
N = 32
M = 6
dt = 1e-2
T = 0.1
record_interval = 2

[initial]
family = hyperbolic-circle
a = 0.7
"""
_CHAIN = """
[scenario]
kind = chain
N = 64
dt = 1e-4
T = 2e-3
record_interval = 5

[initial]
family = random-band-limited
bandwidth = 6
"""

# name -> (subcommand, config, exit code, Lax workers: runner.lax_workers
# patched to this count, so that no run depends on the machine's CPUs)
CONFIGS = {
    "sphere-rk4": ("evolve", _SPHERE, 0, 0),
    "sphere-midpoint": ("evolve", _SPHERE.replace(
        "M = 6\n", "").replace("T = 0.1\n", "T = 0.1\nscheme = midpoint\n")
        .replace("random-band-limited\nbandwidth = 4",
                 "tilted-circle\na = 0.6\nc = 0.8"), 0, 0),
    "hyperbolic-rk4": ("evolve", _HYPERBOLIC, 0, 0),
    "hyperbolic-midpoint": ("evolve", _HYPERBOLIC.replace(
        "T = 0.1\n", "T = 0.1\nscheme = midpoint\n"), 0, 0),
    # N not a power of two, so that dividing by N rounds, and an a where
    # sqrt(1 + a * a) and hypot(1, a) differ
    "hyperbolic-n48": ("evolve", _HYPERBOLIC.replace("N = 32", "N = 48")
                       .replace("a = 0.7", "a = 1.3"), 0, 0),
    # 11 Lax records of dim 34 on two forked workers
    "sphere-lax-workers": ("evolve", _SPHERE.replace("N = 32", "N = 64")
                           .replace("M = 6", "M = 8")
                           .replace("record_interval = 2\n", "")
                           .replace("dt = 1e-2\nT = 0.1", "dt = 5e-3\nT = 0.05"),
                           0, 2),
    "chain-rk4": ("chain", _CHAIN, 0, 0),
    "chain-midpoint": ("chain", _CHAIN.replace(
        "T = 2e-3\n", "T = 2e-3\nscheme = midpoint\n"), 0, 0),
    "lax-spectrum": ("lax-spectrum", """
[scenario]
kind = lax-spectrum
N = 64
M = 10
seed = 1

[initial]
family = random-band-limited
bandwidth = 4
""", 0, 0),
    "hs-compare": ("hs-compare", """
[scenario]
kind = hs-compare
T = 0.5

[initial]
family = tilted-circle
a = 0.6
c = 0.8

[compare]
N_list = 16, 32
""", 0, 0),
    "soliton-check": ("soliton-check", """
[scenario]
kind = soliton-check

[soliton]
v = 0.5
zeros = 1j, 1+2j
""", 0, 0),
    "config-error": ("evolve", _SPHERE.replace("dt = 1e-2", "dt = -1e-2")
                     .replace("bandwidth = 4", "bandwidth = 40"), 2, 0),
}


def produce(name, out, tmp):
    """Run config `name` through cli.main with --out out (its config file
    written into tmp); return the exit code."""
    command, text, _, workers = CONFIGS[name]
    path = Path(tmp) / f"{name}.cfg"
    path.write_text(text)
    with mock.patch.object(runner, "lax_workers", lambda cfg: workers):
        return cli.main([command, "--config", str(path), "--out", str(out)])


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


def _shape(name, data):
    """What a file keeps off the recorded environment: a CSV's header and
    line count, a JSON's top-level keys."""
    text = data.decode()
    if name.endswith(".csv"):
        return text.split("\n", 1)[0], text.count("\n")
    return sorted(json.loads(text))


@pytest.mark.parametrize("name", CONFIGS)
def test_artifacts_equal_the_golden_bytes(tmp_path, name):
    assert produce(name, tmp_path / "out", tmp_path) == CONFIGS[name][2]
    got, golden = _files(tmp_path / "out"), _files(GOLDEN / name)
    assert {n: _shape(n, b) for n, b in got.items()} == \
        {n: _shape(n, b) for n, b in golden.items()}
    recorded = json.loads((GOLDEN / "environment.json").read_text())
    if recorded != ENVIRONMENT:
        same_cpu = recorded["cpu_features"] == ENVIRONMENT["cpu_features"]
        pytest.skip(f"golden bytes made with numpy {recorded['numpy']} on "
                    f"{recorded['machine']}, this is numpy "
                    f"{ENVIRONMENT['numpy']} on {ENVIRONMENT['machine']}"
                    + ("" if same_cpu else " with other CPU features"))
    assert got == golden


def test_off_the_recorded_environment_only_the_bytes_skip(tmp_path,
                                                          monkeypatch):
    recorded = json.loads((GOLDEN / "environment.json").read_text())["numpy"]
    monkeypatch.setitem(ENVIRONMENT, "numpy", "0.0")
    for run in "ab":
        (tmp_path / run).mkdir()
    with pytest.raises(pytest.skip.Exception, match=(
            rf"numpy {re.escape(recorded)} on .*, this is numpy 0\.0 on ")):
        test_artifacts_equal_the_golden_bytes(tmp_path / "a", "soliton-check")
    # the run and its shape checks come first
    monkeypatch.setattr(solitons, "soliton_report", lambda v, zeros: {})
    with pytest.raises(AssertionError):
        test_artifacts_equal_the_golden_bytes(tmp_path / "b", "soliton-check")


if __name__ == "__main__":
    shutil.rmtree(GOLDEN, ignore_errors=True)
    GOLDEN.mkdir()
    with tempfile.TemporaryDirectory() as tmp:
        for name in CONFIGS:
            code = CONFIGS[name][2]
            if produce(name, GOLDEN / name, tmp) != code:
                sys.exit(f"{name}: exit code is not {code}")
    (GOLDEN / "environment.json").write_text(
        json.dumps(ENVIRONMENT, indent=1) + "\n")
