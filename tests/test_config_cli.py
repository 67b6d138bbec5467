import json
import os

import numpy as np
import pytest

from halfwave_lab import cli
from halfwave_lab.config import (RK4_STABILITY_LIMIT, ConfigError,
                                 build_initial_values, parse_config)
from halfwave_lab.lax import SpectrumReport
from halfwave_lab.runner import dispatch, soliton_report

TILTED = """
[scenario]
kind = evolve-sphere
N = 64
M = 8
dt = 1e-2
T = 0.1
record_interval = 2
seed = 0

[initial]
family = tilted-circle
a = 0.6
c = 0.8
"""


def test_parse_minimal_valid():
    cfg = parse_config(TILTED)
    assert cfg.kind == "evolve-sphere"
    assert cfg.N == 64 and cfg.M == 8
    assert cfg.initial["family"] == "tilted-circle"


def test_parse_rejects_bad_tilted_circle():
    bad = TILTED.replace("c = 0.8", "c = 0.9")
    with pytest.raises(ConfigError) as exc:
        parse_config(bad)
    assert any("a^2 + c^2" in e for e in exc.value.errors)


def test_parse_rejects_M_too_large():
    bad = TILTED.replace("M = 8", "M = 32")
    with pytest.raises(ConfigError) as exc:
        parse_config(bad)
    assert any("M <= N/2 - 1" in e for e in exc.value.errors)


def test_parse_rejects_unknown_key():
    bad = TILTED + "\nwhat = 3\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(bad)
    assert any("unknown key" in e for e in exc.value.errors)


def test_parse_rejects_odd_N_and_bad_dt():
    bad = TILTED.replace("N = 64", "N = 63").replace("dt = 1e-2", "dt = -1")
    with pytest.raises(ConfigError) as exc:
        parse_config(bad)
    msgs = "\n".join(exc.value.errors)
    assert "N must be even" in msgs and "dt must be positive" in msgs


def test_parse_rejects_T_not_multiple_of_dt(tmp_path):
    bad = TILTED.replace("dt = 1e-2", "dt = 0.3").replace("T = 0.1", "T = 1")
    with pytest.raises(ConfigError) as exc:
        parse_config(bad)
    assert any("whole number of steps" in e for e in exc.value.errors)
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(bad)
    assert cli.main(["evolve", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("kind, N, dt, T", [
    ("evolve-sphere", 64, 0.5, 1.0),   # energy 1.13 -> 58.6 if it ran
    ("chain", 128, 1e-2, 0.1)])        # H 5852 -> 4.0e5 if it ran
def test_parse_rejects_dt_past_rk4_stability(tmp_path, kind, N, dt, T):
    text = TILTED.replace("kind = evolve-sphere", f"kind = {kind}") \
        .replace("N = 64", f"N = {N}").replace("dt = 1e-2", f"dt = {dt}") \
        .replace("T = 0.1", f"T = {T}")
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert [e for e in exc.value.errors if "rk4 stability limit" in e] \
        == exc.value.errors
    cfg_path = tmp_path / "unstable.cfg"
    cfg_path.write_text(text)
    command = "chain" if kind == "chain" else "evolve"
    assert cli.main([command, "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 2
    error = json.load(open(tmp_path / "error.json"))
    assert "rk4 stability limit" in error["message"]
    # the implicit midpoint has no such limit
    parse_config(text.replace("T = ", "scheme = midpoint\nT = ", 1))


def test_rk4_stability_limit_edges():
    # dt * N/2 = 2 sqrt 2 exactly is allowed; just past it is not
    for kind, top in (("evolve-sphere", 32.0), ("chain", 64.0 ** 2 / 2)):
        text = TILTED.replace("kind = evolve-sphere", f"kind = {kind}") \
            .replace("T = 0.1\n", "").replace("M = 8\n", "")
        dt_max = RK4_STABILITY_LIMIT / top
        parse_config(text.replace("dt = 1e-2", f"dt = {dt_max!r}\nT = {dt_max!r}"))
        bad = dt_max * (1 + 1e-9)
        with pytest.raises(ConfigError):
            parse_config(text.replace("dt = 1e-2", f"dt = {bad!r}\nT = {bad!r}"))


def test_parse_rejects_family_of_the_other_target():
    hyper = TILTED.replace("family = tilted-circle\na = 0.6\nc = 0.8",
                           "family = hyperbolic-circle\na = 0.5")
    with pytest.raises(ConfigError) as exc:
        parse_config(hyper.replace("kind = evolve-sphere", "kind = chain"))
    assert any("H^2-valued" in e for e in exc.value.errors)
    # the Lax spectrum of a hyperbolic circle stays allowed
    parse_config(hyper.replace("kind = evolve-sphere", "kind = lax-spectrum"))
    with pytest.raises(ConfigError) as exc:
        parse_config(TILTED.replace("kind = evolve-sphere",
                                    "kind = evolve-hyperbolic"))
    assert any("sphere-valued" in e for e in exc.value.errors)


def test_parse_hs_compare_requires_tilted_circle():
    text = TILTED.replace("kind = evolve-sphere", "kind = hs-compare") \
        .replace("family = tilted-circle\na = 0.6\nc = 0.8",
                 "family = great-circle") + "\n[compare]\nN_list = 16, 32\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert any("hs-compare needs tilted-circle" in e for e in exc.value.errors)


def test_parse_unknown_kind():
    with pytest.raises(ConfigError):
        parse_config("[scenario]\nkind = explode\n")


def test_dispatch_evolve_monotone_time(tmp_path):
    cfg = parse_config(TILTED)
    paths = dispatch(cfg, str(tmp_path))
    csv = [p for p in paths if p.endswith(".csv")][0]
    lines = open(csv).read().splitlines()
    assert lines[0].startswith("t,energy,sx,sy,sz,trL1,trL2,trL3,trL4,rank,lam1")
    assert lines[0].endswith("defect")
    times = [float(l.split(",")[0]) for l in lines[1:]]
    assert times == sorted(times)
    assert len(times) >= 3


def test_dispatch_deterministic(tmp_path):
    cfg = parse_config(TILTED)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    dispatch(cfg, str(d1))
    dispatch(cfg, str(d2))
    assert (d1 / "timeseries.csv").read_bytes() == (d2 / "timeseries.csv").read_bytes()


def test_dispatch_lax_spectrum_round_trip(tmp_path):
    text = TILTED.replace("kind = evolve-sphere", "kind = lax-spectrum")
    paths = dispatch(parse_config(text), str(tmp_path))
    report = SpectrumReport.from_json(open(paths[0]).read())
    assert report.truncation == 8
    assert report.rank > 0


def test_dispatch_chain(tmp_path):
    text = TILTED.replace("kind = evolve-sphere", "kind = chain") \
                 .replace("T = 0.1", "T = 0.01").replace("dt = 1e-2", "dt = 1e-3")
    paths = dispatch(parse_config(text), str(tmp_path))
    lines = open(paths[0]).read().splitlines()
    assert lines[0] == "t,H_classical,sx,sy,sz,defect"
    assert len(lines) >= 3


def test_dispatch_hs_compare(tmp_path):
    text = TILTED.replace("kind = evolve-sphere", "kind = hs-compare") \
        .replace("dt = 1e-2\n", "").replace("record_interval = 2\n", "") \
        + "\n[compare]\nN_list = 16, 32, 64\n"
    paths = dispatch(parse_config(text), str(tmp_path))
    lines = open(paths[0]).read().splitlines()
    assert lines[0] == "N,error"
    assert len(lines) == 4


@pytest.mark.parametrize("key", ["dt = 1e-2", "scheme = midpoint",
                                 "record_interval = 2"])
def test_parse_hs_compare_rejects_unused_keys(tmp_path, key):
    text = f"""
[scenario]
kind = hs-compare
T = 0.1
{key}

[initial]
family = tilted-circle
a = 0.6
c = 0.8

[compare]
N_list = 16, 32
"""
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    name = key.split(" =")[0]
    assert any(f"{name} is not used by hs-compare" in e
               for e in exc.value.errors)
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(text)
    assert cli.main(["hs-compare", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 2
    assert json.load(open(tmp_path / "error.json"))["status"] == "error"


def test_dispatch_soliton_check(tmp_path):
    text = """
[scenario]
kind = soliton-check

[soliton]
v = 0.5
zeros = 1j
"""
    paths = dispatch(parse_config(text), str(tmp_path))
    report = json.load(open(paths[0]))
    assert report["energy"] == pytest.approx(0.75 * np.pi)
    assert report["residual_max"] < 1e-12
    assert report["trace_sq"] == pytest.approx(6.0)


def test_cli_main_and_error_record(tmp_path):
    cfg_path = tmp_path / "t.cfg"
    cfg_path.write_text(TILTED)
    out = tmp_path / "out"
    assert cli.main(["evolve", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "timeseries.csv").exists()

    # kind/subcommand mismatch produces a machine-readable error record
    out2 = tmp_path / "out2"
    rc = cli.main(["chain", "--config", str(cfg_path), "--out", str(out2)])
    assert rc != 0
    err = json.load(open(out2 / "error.json"))
    assert err["status"] == "error"


def test_cli_invalid_config_exit_code(tmp_path):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(TILTED.replace("c = 0.8", "c = 0.9"))
    rc = cli.main(["evolve", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert rc == 2
    assert (tmp_path / "error.json").exists()


def test_soliton_check_cli(capsys):
    rc = cli.soliton_check_main(["--v", "0.5", "--zeros", "1j"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["energy"] == pytest.approx(0.75 * np.pi)
    assert sorted(report) == ["energy", "lax_eigenvalues", "residual_max",
                              "trace_sq"]


@pytest.mark.parametrize("v", [0.0, 0.5, -0.9])
def test_soliton_trace_sq_is_8_over_pi_energy(v):
    report = soliton_report(v, (1j,))
    assert report["trace_sq"] == pytest.approx(8.0 / np.pi * report["energy"],
                                               rel=1e-12)


@pytest.mark.parametrize("zeros", [(), (1j, 1 + 2j)])
def test_soliton_report_omits_lax_data_off_degree_one(zeros):
    report = soliton_report(0.5, zeros)
    assert "trace_sq" not in report and "lax_eigenvalues" not in report
    assert "degree 1 only" in report["lax"]
    assert report["energy"] == pytest.approx(0.75 * np.pi * len(zeros))


def test_soliton_check_cli_rejects_bad_velocity(capsys):
    rc = cli.soliton_check_main(["--v", "1.5", "--zeros", "1j"])
    assert rc == 2


def test_checkpoint_round_trip(tmp_path):
    cfg = parse_config(TILTED)
    paths = dispatch(cfg, str(tmp_path))
    state = json.load(open([p for p in paths if "final_state" in p][0]))
    vals = np.array(state["values"])
    assert vals.shape == (64, 3)
    assert np.abs(np.linalg.norm(vals, axis=1) - 1.0).max() < 1e-12


CONSTANT = """
[scenario]
kind = evolve-hyperbolic
N = 16
dt = 1e-2
T = 0.02

[initial]
family = constant
"""


@pytest.mark.parametrize("kind, direction", [
    ("evolve-hyperbolic", "0, 0, 0"), ("evolve-hyperbolic", "1, 2"),
    ("evolve-hyperbolic", "x, y, z"), ("evolve-hyperbolic", "0, 1, 0"),
    ("evolve-sphere", "0, 0, 0"), ("evolve-sphere", "nan, 0, 1")])
def test_constant_direction_rejected(tmp_path, kind, direction):
    text = CONSTANT.replace("evolve-hyperbolic", kind) \
        + f"direction = {direction}\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert any("direction" in e for e in exc.value.errors)
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(text)
    assert cli.main(["evolve", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 2
    assert json.load(open(tmp_path / "error.json"))["status"] == "error"


def test_constant_direction_on_the_hyperboloid(tmp_path):
    default = build_initial_values(parse_config(CONSTANT)).values
    assert (default == [1.0, 0.0, 0.0]).all()
    cfg = parse_config(CONSTANT + "direction = 2, 1, 0\n")
    expected = np.array([2.0, 1.0, 0.0]) / np.sqrt(3.0)
    assert np.abs(build_initial_values(cfg).values - expected).max() < 1e-15
    paths = dispatch(cfg, str(tmp_path))
    state = json.load(open([p for p in paths if "final_state" in p][0]))
    assert state["target"] == "hyperbolic"
    assert np.abs(np.array(state["values"]) - expected).max() < 1e-14


BAND_LIMITED = TILTED.replace("tilted-circle\na = 0.6\nc = 0.8",
                              "random-band-limited\nbandwidth = {}")
HS_COMPARE = TILTED.replace("evolve-sphere", "hs-compare") \
    .replace("dt = 1e-2\n", "").replace("record_interval = 2\n", "") \
    + "[compare]\nN_list = {}\n"
SOLITON = "[scenario]\nkind = soliton-check\n[soliton]\nv = {}\nzeros = {}\n"


@pytest.mark.parametrize("command, text, needle", [
    ("evolve", BAND_LIMITED.format(0), "bandwidth must be >= 1"),
    ("evolve", BAND_LIMITED.format(-3), "bandwidth must be >= 1"),
    ("hs-compare", HS_COMPARE.format("16, 7, 0"), "even grid sizes >= 4"),
    ("soliton-check", SOLITON.format(1.5, "1j"), "|v| < 1"),
    ("soliton-check", SOLITON.format(0.5, "-1j"), "positive imaginary")],
    ids=["bandwidth-0", "bandwidth-minus-3", "N_list", "v", "zeros"])
def test_bad_input_rejected_before_any_work(tmp_path, command, text, needle):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(text)
    assert cli.main([command, "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 2
    assert sorted(os.listdir(tmp_path)) == ["bad.cfg", "error.json"]
    assert needle in json.load(open(tmp_path / "error.json"))["message"]
