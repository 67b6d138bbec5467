import functools
import json
import math
import os
import string

import numpy as np
import pytest
from hypothesis import given, strategies as st

from halfwave_lab import cli, lax
from halfwave_lab.config import (KINDS, ConfigError, ScenarioConfig,
                                 build_initial_values, parse_config)
from halfwave_lab.evolution import SCHEMES, run
from halfwave_lab.fields import hyperbolic_circle
from halfwave_lab.lax import SpectrumReport
from halfwave_lab.runner import OUTPUTS, dispatch
from halfwave_lab.solitons import soliton_report

RK4_STABILITY_LIMIT, MIDPOINT_LIMIT = SCHEMES["rk4"][0], SCHEMES["midpoint"][0]
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
# the same field for the kinds that do not read some of TILTED's keys
CHAIN = TILTED.replace("evolve-sphere", "chain").replace("M = 8\n", "") \
    .replace("dt = 1e-2", "dt = 1e-3")
HYPERBOLIC_MIDPOINT = TILTED.replace("evolve-sphere", "evolve-hyperbolic") \
    .replace("T = 0.1\n", "T = 0.1\nscheme = midpoint\n") \
    .replace("tilted-circle\na = 0.6\nc = 0.8", "hyperbolic-circle\na = 0.5")
LAX_SPECTRUM = TILTED.replace("evolve-sphere", "lax-spectrum") \
    .replace("dt = 1e-2\nT = 0.1\nrecord_interval = 2\n", "")


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
    assert exc.value.errors == ["[initial] unknown key 'what'"]


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
    ("chain", 128, 1e-2, 0.1),         # H 5852 -> 4.0e5 if it ran
    # the hyperbolic circle a = 1 at 0.99 x the S^2 limit: a blow-up at
    # t = 14.5 if it ran
    ("evolve-hyperbolic", 64, 0.0875, 17.5)])
def test_parse_rejects_dt_past_rk4_stability(tmp_path, kind, N, dt, T):
    text = TILTED.replace("kind = evolve-sphere", f"kind = {kind}") \
        .replace("N = 64", f"N = {N}").replace("dt = 1e-2", f"dt = {dt}") \
        .replace("T = 0.1", f"T = {T}").replace("M = 8\n", "")
    if kind == "evolve-hyperbolic":
        text = text.replace("tilted-circle\na = 0.6\nc = 0.8",
                            "hyperbolic-circle\na = 1.0")
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert [e for e in exc.value.errors if "rk4 stability limit" in e] \
        == exc.value.errors
    cfg_path = tmp_path / "unstable.cfg"
    cfg_path.write_text(text)
    command = "chain" if kind == "chain" else "evolve"
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg_path),
                     "--out", str(out)]) == 2
    assert os.listdir(out) == ["error.json"]
    error = json.load(open(out / "error.json"))
    assert "rk4 stability limit" in error["message"]
    # past rk4's limit the midpoint's is passed too, so neither is offered
    assert "midpoint" not in error["message"]
    with pytest.raises(ConfigError, match="midpoint convergence limit"):
        parse_config(text.replace("T = ", "scheme = midpoint\nT = ", 1))


def test_rk4_stability_limit_edges():
    # dt * N/2 = 2 sqrt 2 exactly is allowed; just past it is not; on H^2
    # N/2 is scaled by max |S_k| = sqrt(1 + 2a^2), which is 3 at a = 2
    for kind, top in (("evolve-sphere", 32.0), ("chain", 64.0 ** 2 / 2),
                      ("evolve-hyperbolic", 32.0 * 3.0)):
        text = TILTED.replace("kind = evolve-sphere", f"kind = {kind}") \
            .replace("T = 0.1\n", "").replace("M = 8\n", "")
        if kind == "evolve-hyperbolic":
            text = text.replace("tilted-circle\na = 0.6\nc = 0.8",
                                "hyperbolic-circle\na = 2.0")
        dt_max = RK4_STABILITY_LIMIT / top
        parse_config(text.replace("dt = 1e-2", f"dt = {dt_max!r}\nT = {dt_max!r}"))
        bad = dt_max * (1 + 1e-9)
        with pytest.raises(ConfigError):
            parse_config(text.replace("dt = 1e-2", f"dt = {bad!r}\nT = {bad!r}"))


@pytest.mark.parametrize("a", [1.0, 4.0])
def test_h2_rk4_inside_the_scaled_limit_runs_to_the_end(tmp_path, a):
    # 0.99 x the S^2 limit blows up (t = 14.5 at a = 1, 1.4 at a = 4), and
    # 0.99 x the limit scaled by 1/sqrt(1 + 2a^2) runs the circle to T = 17.5
    top = 32.0 * np.sqrt(1.0 + 2.0 * a * a)
    nsteps = math.ceil(17.5 / (0.99 * RK4_STABILITY_LIMIT / top))
    text = HYPERBOLIC_MIDPOINT.replace("scheme = midpoint", "scheme = rk4") \
        .replace("M = 8\n", "").replace("a = 0.5", f"a = {a}") \
        .replace("dt = 1e-2", f"dt = {17.5 / nsteps!r}") \
        .replace("T = 0.1", "T = 17.5") \
        .replace("record_interval = 2", f"record_interval = {nsteps}")
    cfg = parse_config(text)
    dispatch(cfg, str(tmp_path))
    state = json.load(open(tmp_path / "final_state.json"))
    assert state["time"] == pytest.approx(17.5)
    exact = hyperbolic_circle(64, a, 17.5).values
    assert np.abs(np.array(state["values"]) - exact).max() < 1e-2
    dt_old = 0.99 * RK4_STABILITY_LIMIT / 32.0
    with pytest.raises(RuntimeError, match="blow-up"):
        run(hyperbolic_circle(64, a), dt_old, dt_old * math.ceil(17.5 / dt_old),
            record_interval=10 ** 6)


def test_midpoint_limit_edges():
    # dt times the largest symbol may reach MIDPOINT_LIMIT; on H^2 N/2 is
    # scaled by max |S_k| = sqrt(1 + 2a^2), as for rk4
    for kind, top in (("evolve-sphere", 32.0), ("chain", 64.0 ** 2 / 2),
                      ("evolve-hyperbolic", 32.0 * 3.0)):
        text = TILTED.replace("kind = evolve-sphere", f"kind = {kind}") \
            .replace("T = 0.1\n", "scheme = midpoint\n").replace("M = 8\n", "")
        if kind == "evolve-hyperbolic":
            text = text.replace("tilted-circle\na = 0.6\nc = 0.8",
                                "hyperbolic-circle\na = 2.0")
        dt_max = MIDPOINT_LIMIT / top
        for dt in (dt_max, 0.99 * dt_max):
            parse_config(text.replace("dt = 1e-2", f"dt = {dt!r}\nT = {dt!r}"))
        bad = 1.05 * dt_max
        with pytest.raises(ConfigError, match="midpoint convergence limit"):
            parse_config(text.replace("dt = 1e-2", f"dt = {bad!r}\nT = {bad!r}"))


# the hardest cases measured: the midpoint failed from dt*N/2 = 1.55 on
# bandwidth N/2 - 1, from dt*N^2/2 = 1.51 on the chain at N = 32, and from
# dt*N/2 = 1.26 on the H^2 circle a = 4 at N = 64, where the limit's max |S|
# scaling keeps dt 5.7x below that
@pytest.mark.parametrize("kind, N, family, top, T", [
    ("evolve-sphere", 64, "random-band-limited\nbandwidth = 31", 32.0, 20.0),
    ("chain", 32, "random-band-limited\nbandwidth = 15", 32.0 ** 2 / 2, 1.0),
    ("evolve-hyperbolic", 64, "hyperbolic-circle\na = 4.0",
     32.0 * math.sqrt(33.0), 2.0)],
    ids=["sphere", "chain", "hyperbolic"])
def test_midpoint_inside_the_limit_runs_to_the_end(tmp_path, kind, N, family,
                                                   top, T):
    nsteps = math.ceil(T / (0.99 * MIDPOINT_LIMIT / top))
    text = TILTED.replace("kind = evolve-sphere", f"kind = {kind}") \
        .replace("N = 64", f"N = {N}").replace("M = 8\n", "") \
        .replace("dt = 1e-2", f"dt = {T / nsteps!r}") \
        .replace("T = 0.1", f"T = {T}\nscheme = midpoint") \
        .replace("record_interval = 2", f"record_interval = {nsteps}") \
        .replace("tilted-circle\na = 0.6\nc = 0.8", family)
    assert dispatch(parse_config(text), str(tmp_path))


def test_midpoint_repro_is_a_config_error(tmp_path):
    # it parsed, then exited 1 after its work ("failed to converge in 100
    # iterations"); rk4 at the same dt runs
    text = BAND_LIMITED.format(8).replace("N = 64", "N = 256") \
        .replace("M = 8\n", "").replace("dt = 1e-2", "dt = 0.02") \
        .replace("T = 0.1", "T = 2")
    parse_config(text)
    cfg_path = tmp_path / "repro.cfg"
    cfg_path.write_text(text.replace("T = 2", "T = 2\nscheme = midpoint"))
    out = tmp_path / "out"
    assert cli.main(["evolve", "--config", str(cfg_path),
                     "--out", str(out)]) == 2
    assert os.listdir(out) == ["error.json"]
    message = json.load(open(out / "error.json"))["message"]
    assert ("dt = 0.02 is past the midpoint convergence limit: dt*N/2 = 2.56 "
            "> 1.4; use dt <= 0.01094") in message


def test_parse_rejects_family_of_the_other_target():
    circle = "family = tilted-circle\na = 0.6\nc = 0.8"
    hyper = "family = hyperbolic-circle\na = 0.5"
    with pytest.raises(ConfigError) as exc:
        parse_config(CHAIN.replace(circle, hyper))
    assert any("H^2-valued" in e for e in exc.value.errors)
    # the Lax spectrum of a hyperbolic circle stays allowed
    parse_config(LAX_SPECTRUM.replace(circle, hyper))
    with pytest.raises(ConfigError) as exc:
        parse_config(TILTED.replace("kind = evolve-sphere",
                                    "kind = evolve-hyperbolic"))
    assert any("sphere-valued" in e for e in exc.value.errors)


def test_parse_hs_compare_requires_tilted_circle():
    text = HS_COMPARE.format("16, 32").replace(
        "family = tilted-circle\na = 0.6\nc = 0.8", "family = great-circle")
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert any("hs-compare needs tilted-circle" in e for e in exc.value.errors)


def test_parse_unknown_kind():
    with pytest.raises(ConfigError):
        parse_config("[scenario]\nkind = explode\n")


@pytest.mark.parametrize("kind, text, sections", [
    ("soliton-check", "[scenario]\nkind = soliton-check\n[soliton]\nv = 0.5\n"
     "zeros = 1j\n[initial]\nfamily = hyperbolic-circle\na = 0.5\n",
     ["initial"]),
    ("evolve-sphere", TILTED + "[soliton]\nv = 0.5\n[compare]\nN_list = 4\n",
     ["soliton", "compare"]),
    ("evolve-sphere", TILTED + "[ouput]\ndir = out\n", ["ouput"]),
    ("evolve-sphere", TILTED + "[output]\ndir = out\n", ["output"])],
    ids=["soliton-check-initial", "evolve-soliton-compare", "ouput", "output"])
def test_parse_rejects_unused_sections(tmp_path, kind, text, sections):
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert exc.value.errors == [f"[{section}] is not used by {kind}"
                                for section in sections]
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(text)
    assert cli.main([KINDS[kind][-1], "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 2
    assert sorted(os.listdir(tmp_path)) == ["bad.cfg", "error.json"]


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
    # the midpoint run carries its last increments from step to step
    for tag, text in (("rk4", TILTED), ("midpoint", HYPERBOLIC_MIDPOINT)):
        cfg = parse_config(text)
        d1, d2 = tmp_path / tag / "a", tmp_path / tag / "b"
        dispatch(cfg, str(d1))
        dispatch(cfg, str(d2))
        for name in ("timeseries.csv", "final_state.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_complex_trace_power_is_an_error(tmp_path, monkeypatch):
    # an H^2 Tr(L^k) is real: lax.diagnose reports an imaginary part past
    # 1e-12 (1 + |Re|) instead of keeping the real part alone
    real_spectrum = lax.spectrum

    def skewed(L, target, rank_tolerance, im):
        rep = real_spectrum(L, target, rank_tolerance)
        re = rep.trace_powers["2"][0]
        rep.trace_powers["2"] = [re, im * (1.0 + abs(re))]
        return rep

    monkeypatch.setattr(lax, "spectrum", functools.partial(skewed, im=1e-12))
    dispatch(parse_config(HYPERBOLIC_MIDPOINT), str(tmp_path / "ok"))
    monkeypatch.setattr(lax, "spectrum", functools.partial(skewed, im=2e-12))
    cfg_path = tmp_path / "h.cfg"
    cfg_path.write_text(HYPERBOLIC_MIDPOINT)
    out = tmp_path / "out"
    assert cli.main(["evolve", "--config", str(cfg_path),
                     "--out", str(out)]) == 1
    assert os.listdir(out) == ["error.json"]
    assert "imaginary part" in json.load(open(out / "error.json"))["message"]


def test_dispatch_lax_spectrum_round_trip(tmp_path):
    paths = dispatch(parse_config(LAX_SPECTRUM), str(tmp_path))
    report = SpectrumReport(**json.loads(open(paths[0]).read()))
    assert report.truncation == 8
    assert report.rank > 0


def test_dispatch_chain(tmp_path):
    text = CHAIN.replace("T = 0.1", "T = 0.01")
    paths = dispatch(parse_config(text), str(tmp_path))
    lines = open(paths[0]).read().splitlines()
    assert lines[0] == "t,H_classical,sx,sy,sz,defect"
    assert len(lines) >= 3


def test_dispatch_hs_compare(tmp_path):
    text = HS_COMPARE.format("16, 32, 64")
    paths = dispatch(parse_config(text), str(tmp_path))
    lines = open(paths[0]).read().splitlines()
    assert lines[0] == "N,error"
    assert len(lines) == 4


@pytest.mark.parametrize("kind, key", [
    pytest.param("hs-compare", "dt = 1e-2", id="dt = 1e-2"),
    pytest.param("hs-compare", "scheme = midpoint", id="scheme = midpoint"),
    pytest.param("hs-compare", "record_interval = 2", id="record_interval = 2"),
    ("hs-compare", "N = 64"), ("hs-compare", "seed = 0"),
    ("chain", "M = 4"), ("chain", "rank_tolerance = 1e-6"),
    ("lax-spectrum", "dt = 1e-2"), ("lax-spectrum", "T = 0.1"),
    ("lax-spectrum", "scheme = rk4"), ("soliton-check", "N = 64"),
    ("soliton-check", "T = 0.1")])
def test_parse_hs_compare_rejects_unused_keys(tmp_path, kind, key):
    text = {"hs-compare": HS_COMPARE.format("16, 32"), "chain": CHAIN,
            "lax-spectrum": LAX_SPECTRUM,
            "soliton-check": SOLITON.format(0.5, "1j")}[kind]
    text = text.replace(f"kind = {kind}\n", f"kind = {kind}\n{key}\n")
    parse_config(text.replace(f"{key}\n", ""))  # valid without the key
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    name = key.split(" =")[0]
    assert any(f"{name} is not used by {kind}" in e
               for e in exc.value.errors)
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(text)
    assert cli.main([kind, "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 2
    assert json.load(open(tmp_path / "error.json"))["status"] == "error"


@pytest.mark.parametrize("family, key", [
    ("tilted-circle", "bandwidth = 4"), ("constant", "a = 0.5"),
    ("great-circle", "c = 0.8"), ("hyperbolic-circle", "c = 0.8"),
    ("random-band-limited", "direction = 0, 0, 1")])
def test_parse_rejects_unused_initial_keys(tmp_path, family, key):
    text = {"tilted-circle": TILTED, "constant": CONSTANT,
            "great-circle": TILTED.replace("tilted-circle\na = 0.6\nc = 0.8",
                                           "great-circle"),
            "hyperbolic-circle": HYPERBOLIC_MIDPOINT,
            "random-band-limited": BAND_LIMITED.format(4)}[family]
    text = text.replace(f"family = {family}\n", f"family = {family}\n{key}\n")
    parse_config(text.replace(f"{key}\n", ""))  # valid without the key
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    name = key.split(" =")[0]
    # reported once, and not as an unknown key
    assert [e for e in exc.value.errors if name in e] \
        == [f"[initial] {name} is not used by {family}"]
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(text)
    assert cli.main(["evolve", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 2
    assert json.load(open(tmp_path / "error.json"))["status"] == "error"


def test_bandwidth_bound_edges():
    # 1 <= bandwidth <= N/2 - 1 against the scenario's N = 64
    for bandwidth in (1, 31):
        parse_config(BAND_LIMITED.format(bandwidth))
    with pytest.raises(ConfigError) as exc:
        parse_config(BAND_LIMITED.format(32))
    assert any("<= N/2 - 1" in e for e in exc.value.errors)


@pytest.mark.parametrize("kind, names", [
    ("evolve-sphere", ["timeseries.csv", "final_state.json"]),
    ("evolve-hyperbolic", ["timeseries.csv", "final_state.json"]),
    ("chain", ["chain.csv"]), ("lax-spectrum", ["spectrum.json"]),
    ("hs-compare", ["compare.csv"]), ("soliton-check", ["soliton.json"])])
def test_dispatch_writes_the_files_of_its_kind(tmp_path, kind, names):
    text = {"evolve-sphere": TILTED, "evolve-hyperbolic": HYPERBOLIC_MIDPOINT,
            "chain": CHAIN.replace("T = 0.1", "T = 0.01"),
            "lax-spectrum": LAX_SPECTRUM,
            "hs-compare": HS_COMPARE.format("16, 32"),
            "soliton-check": SOLITON.format(0.5, "1j")}[kind]
    assert list(OUTPUTS[kind]) == names and set(OUTPUTS) == set(KINDS)
    paths = dispatch(parse_config(text), str(tmp_path))
    assert paths == [str(tmp_path / name) for name in names]
    assert sorted(os.listdir(tmp_path)) == sorted(names)


def test_dispatch_rejects_unknown_kind(tmp_path):
    with pytest.raises(ValueError, match="unknown scenario kind 'bogus'"):
        dispatch(ScenarioConfig(kind="bogus"), str(tmp_path))
    assert os.listdir(tmp_path) == []


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


def test_cli_main_and_error_record(tmp_path, monkeypatch):
    cfg_path = tmp_path / "t.cfg"
    cfg_path.write_text(TILTED)
    out = tmp_path / "out"
    assert cli.main(["evolve", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "timeseries.csv").exists()

    # kind/subcommand mismatch, of an S^2 and an H^2 evolve config, produces
    # a machine-readable error record in --out, or in the working directory
    # without --out, and nowhere else
    (tmp_path / "h.cfg").write_text(HYPERBOLIC_MIDPOINT)
    for name, out2 in (("t.cfg", "out2"), ("h.cfg", "mm")):
        rc = cli.main(["chain", "--config", str(tmp_path / name),
                       "--out", str(tmp_path / out2)])
        assert rc == 2
        err = json.load(open(tmp_path / out2 / "error.json"))
        assert err["status"] == "error"
        assert os.listdir(tmp_path / out2) == ["error.json"]
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert cli.main(["chain", "--config", str(cfg_path)]) == 2
    assert "does not match" in json.load(open("error.json"))["message"]
    assert os.listdir(cwd) == ["error.json"]
    assert sorted(os.listdir(tmp_path)) == ["cwd", "h.cfg", "mm", "out",
                                            "out2", "t.cfg"]


def test_cli_good_run_removes_stale_error_record(tmp_path, capsys,
                                                monkeypatch):
    # a midpoint blow-up, then a good run, then the blow-up again, into one
    # directory: each leaves the files of its own outcome and no others
    blow_up = HYPERBOLIC_MIDPOINT.replace("dt = 1e-2", "dt = 0.5") \
        .replace("T = 0.1", "T = 1.0")
    for name, text in (("blow_up.cfg", blow_up), ("h.cfg", HYPERBOLIC_MIDPOINT)):
        (tmp_path / name).write_text(text)
    # the config's midpoint dt limit rejects this dt: exit 2, with the error
    # line and the one config error below it on stderr
    d = tmp_path / "config_error"
    for name, code in (("blow_up.cfg", 2), ("h.cfg", 0), ("blow_up.cfg", 2)):
        capsys.readouterr()
        assert cli.main(["evolve", "--config", str(tmp_path / name),
                         "--out", str(d)]) == code
        assert ("error.json" in os.listdir(d)) == (code == 2)
    assert os.listdir(d) == ["error.json"]
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration:\n") \
        and err.count("\n") == 2
    assert "past the midpoint convergence limit" in err
    # with the limit lifted, the run itself meets the blow-up: exit 1
    monkeypatch.setitem(SCHEMES, "midpoint", (math.inf, "convergence"))
    d = tmp_path / "d"
    assert cli.main(["evolve", "--config", str(tmp_path / "blow_up.cfg"),
                     "--out", str(d)]) == 1
    assert "blow-up" in json.load(open(d / "error.json"))["message"]
    assert cli.main(["evolve", "--config", str(tmp_path / "h.cfg"),
                     "--out", str(d)]) == 0
    assert sorted(os.listdir(d)) == ["final_state.json", "timeseries.csv"]
    capsys.readouterr()
    assert cli.main(["evolve", "--config", str(tmp_path / "blow_up.cfg"),
                     "--out", str(d)]) == 1
    assert os.listdir(d) == ["error.json"]
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    # a config error (N = 63) and a kind the subcommand does not run, each
    # after a good run: exit 2 leaves no earlier results either
    (tmp_path / "odd.cfg").write_text(
        HYPERBOLIC_MIDPOINT.replace("N = 64", "N = 63"))
    for command, name in (("evolve", "odd.cfg"), ("chain", "h.cfg")):
        assert cli.main(["evolve", "--config", str(tmp_path / "h.cfg"),
                         "--out", str(d)]) == 0
        assert cli.main([command, "--config", str(tmp_path / name),
                         "--out", str(d)]) == 2
        assert os.listdir(d) == ["error.json"]


@pytest.mark.parametrize("text", [TILTED, TILTED.replace("c = 0.8", "c = 0.9")],
                         ids=["good", "bad"])
def test_cli_unusable_out_exits_2(tmp_path, capsys, text):
    # --out names the config file itself, which cannot be a directory
    cfg_path = tmp_path / "t.cfg"
    cfg_path.write_text(text)
    assert cli.main(["evolve", "--config", str(cfg_path),
                     "--out", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1  # no traceback
    assert cfg_path.read_text() == text
    assert os.listdir(tmp_path) == ["t.cfg"]


def test_cli_invalid_config_exit_code(tmp_path):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(TILTED.replace("c = 0.8", "c = 0.9"))
    rc = cli.main(["evolve", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert rc == 2
    assert (tmp_path / "error.json").exists()


def test_soliton_check_cli(tmp_path):
    cfg_path = tmp_path / "soliton.cfg"
    cfg_path.write_text(SOLITON.format(0.5, "1j"))
    out = tmp_path / "out"
    assert cli.main(["soliton-check", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
    report = json.load(open(out / "soliton.json"))
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
    .replace("N = 64\nM = 8\ndt = 1e-2\n", "") \
    .replace("record_interval = 2\nseed = 0\n", "") + "[compare]\nN_list = {}\n"
SOLITON = "[scenario]\nkind = soliton-check\n[soliton]\nv = {}\nzeros = {}\n"


@pytest.mark.parametrize("command, text, needle", [
    ("evolve", BAND_LIMITED.format(0), "bandwidth must be >= 1"),
    ("evolve", BAND_LIMITED.format(-3), "bandwidth must be >= 1"),
    # past N/2 - 1 = 31: one loop step per mode would hang at 10**30, and
    # 40 would alias modes 33..40 onto 24..31 (no field is built)
    ("evolve", BAND_LIMITED.format(10 ** 30), "<= N/2 - 1"),
    ("evolve", BAND_LIMITED.format(40), "<= N/2 - 1"),
    ("hs-compare", HS_COMPARE.format("16, 7, 0"), "even grid sizes >= 4"),
    ("soliton-check", SOLITON.format(1.5, "1j"), "|v| < 1"),
    ("soliton-check", SOLITON.format(0.5, "-1j"), "positive imaginary"),
    ("evolve", TILTED.replace("T = 0.1", "T = inf"), "T must be positive and finite"),
    ("hs-compare", HS_COMPARE.format("16, 32").replace("T = 0.1", "T = inf"),
     "T must be positive and finite"),
    ("evolve", TILTED.replace("dt = 1e-2", "dt = nan"),
     "dt must be positive and finite"),
    ("evolve", TILTED.replace("M = 8", "M = -5"), "1 <= M <= N/2 - 1"),
    ("evolve", TILTED.replace("dt = 1e-2", "dt = 5%"), "cannot parse '5%'"),
    # grid sizes past MAX_N, on either scheme and in N_list (none allocated)
    ("chain", CHAIN.replace("N = 64", f"N = {10 ** 200}"), "is too large"),
    ("evolve", TILTED.replace("N = 64", f"N = {10 ** 320}"), "is too large"),
    ("chain", CHAIN.replace("N = 64", f"N = {10 ** 200}\nscheme = midpoint"),
     "is too large"),
    ("hs-compare", HS_COMPARE.format(f"16, {10 ** 30}"),
     "even grid sizes >= 4"),
    ("evolve", "\xff\xfe" + TILTED, "can't decode byte 0xff"),
    ("evolve", "[scenario\n" + TILTED, "syntax: File contains no section "
     "headers."),
    ("evolve", TILTED.replace("[scenario]", "[senario]"),
     "missing [scenario] section"),
    # non-finite family and soliton parameters, which a run would otherwise
    # report as a blow-up, a failed SVD or a NaN in soliton.json
    ("evolve", TILTED.replace("a = 0.6", "a = nan"), "a^2 + c^2 = 1"),
    ("evolve", HYPERBOLIC_MIDPOINT.replace("a = 0.5", "a = nan"), "requires finite a"),
    ("evolve", HYPERBOLIC_MIDPOINT.replace("a = 0.5", "a = inf"), "requires finite a"),
    ("lax-spectrum", LAX_SPECTRUM.replace("tilted-circle\na = 0.6\nc = 0.8",
                                          "hyperbolic-circle\na = nan"),
     "requires finite a"),
    ("soliton-check", SOLITON.format("nan", "1j"), "|v| < 1"),
    ("soliton-check", SOLITON.format(0.5, "nan+nanj"), "positive imaginary"),
    ("soliton-check", SOLITON.format(0.5, "1+infj"), "must be finite"),
    # random.Random would seed -1 like 1
    ("evolve", BAND_LIMITED.format(4).replace("seed = 0", "seed = -1"),
     "[scenario] seed must be >= 0, got -1")],
    ids=["bandwidth-0", "bandwidth-minus-3", "bandwidth-1e30",
         "N-64-bandwidth-40", "N_list", "v", "zeros", "T-inf",
         "hs-compare-T-inf", "dt-nan", "M-minus-5", "percent-sign",
         "chain-N-1e200", "evolve-N-1e320", "chain-midpoint-N-1e200",
         "N_list-1e30", "not-utf-8", "syntax", "no-scenario", "tilted-a-nan",
         "hyperbolic-a-nan", "hyperbolic-a-inf", "lax-spectrum-a-nan", "v-nan",
         "zeros-nan", "zeros-inf", "seed-negative"])
def test_bad_input_rejected_before_any_work(tmp_path, command, text, needle):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_bytes(text.encode("latin-1"))  # "\xff" is the byte 0xff
    assert cli.main([command, "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 2
    assert sorted(os.listdir(tmp_path)) == ["bad.cfg", "error.json"]
    assert needle in json.load(open(tmp_path / "error.json"))["message"]


@pytest.mark.parametrize("command, text, line", [
    ("soliton-check", SOLITON.format(0.5, "1j").replace("zeros", "zero"),
     "[soliton] unknown key 'zero'\n"
     "  [soliton] zeros is required for soliton-check"),
    ("soliton-check", SOLITON.format(0.5, "1j").replace("v =", "velocity ="),
     "[soliton] unknown key 'velocity'\n"
     "  [soliton] v is required for soliton-check"),
    ("hs-compare", HS_COMPARE.format("16, 32") + "extra = 3\n",
     "[compare] unknown key 'extra'"),
    ("hs-compare", HS_COMPARE.format("32, ,64"),
     "[compare] N_list: cannot parse '32, ,64'"),
    ("evolve", TILTED.replace("N = 64", "N = x"), "[scenario] N: cannot parse 'x'"),
    ("evolve", TILTED.replace("T = 0.1", "T = x"), "[scenario] T: cannot parse 'x'"),
    ("evolve", TILTED.replace("M = 8", "M = x"), "[scenario] M: cannot parse 'x'"),
    ("evolve", TILTED.replace("a = 0.6", "a = x"), "[initial] a: cannot parse 'x'"),
    # a key that is read and has no default is required, in every section
    ("evolve", TILTED[:TILTED.index("[initial]")],
     "[initial] family is required for evolve-sphere"),
    ("evolve", TILTED.replace("family = tilted-circle\n", ""),
     "[initial] family is required for evolve-sphere"),
    ("evolve", TILTED.replace("c = 0.8\n", ""),
     "[initial] c is required for tilted-circle"),
    ("evolve", BAND_LIMITED.format(4).replace("bandwidth = 4\n", ""),
     "[initial] bandwidth is required for random-band-limited"),
    ("hs-compare", HS_COMPARE.format("16").replace("[compare]\nN_list = 16\n", ""),
     "[compare] N_list is required for hs-compare"),
    ("soliton-check", SOLITON.format(0.5, "1j").replace("zeros = 1j\n", ""),
     "[soliton] zeros is required for soliton-check"),
    ("soliton-check", "[scenario]\nkind = soliton-check\n[soliton]\n",
     "[soliton] v is required for soliton-check\n"
     "  [soliton] zeros is required for soliton-check"),
    ("soliton-check", "[scenario]\nkind = soliton-check\n",
     "[soliton] v is required for soliton-check\n"
     "  [soliton] zeros is required for soliton-check")],
    ids=["soliton-zero", "soliton-velocity", "compare-extra", "N_list-gap",
         "N-x", "T-x", "M-x", "a-x", "no-initial", "no-family", "tilted-no-c",
         "band-limited-no-bandwidth", "no-compare", "soliton-no-zeros",
         "soliton-empty", "no-soliton"])
def test_compare_and_soliton_keys_are_checked(tmp_path, command, text, line):
    # the first three ran to exit 0 while [compare] and [soliton] were parsed
    # without a key check: a degree-0 profile with energy 0, v = 0 with energy
    # pi, and the comparison; the misspelled soliton key also leaves a
    # required one out. The gap in N_list is reported once. A key that does
    # not parse is spelled as documented, not as configparser lowercases it
    # (n_list, n, t, m). Of the missing keys, the empty [soliton] ran to exit
    # 0 as a degree-0 profile with v = 0 and energy 0, no [soliton] exited 2
    # as "[soliton] section required", and the others each in its own words
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(text)
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg_path),
                     "--out", str(out)]) == 2
    assert os.listdir(out) == ["error.json"]
    message = json.load(open(out / "error.json"))["message"]
    assert message.splitlines() == ["invalid configuration:",
                                    *("  " + line).splitlines()]


# the sections after [scenario] of a config each kind accepts, the keys of
# the last one apart, each with its value or None where it is left out
PROPERTY_SECTIONS = {
    "evolve-hyperbolic": ("[initial]\nfamily = hyperbolic-circle\na = 0.5\n",
                          {}),
    "hs-compare": ("[initial]\nfamily = tilted-circle\na = 0.6\nc = 0.8\n"
                   "[compare]\n", {"N_list": "16, 32", "stray": None}),
    "soliton-check": ("[soliton]\n", {"v": "0.5", "zeros": "1j",
                                      "stray": None})}
SCENARIO_VALUES = st.one_of(st.integers(), st.floats(),
                            st.text(string.printable)).map(str)
# N_list and zeros are comma-separated lists
SECTION_VALUES = st.one_of(SCENARIO_VALUES, st.lists(st.one_of(
    st.integers(), st.complex_numbers(), st.text(string.printable)).map(str))
    .map(", ".join))


@given(st.sampled_from(tuple(KINDS)), st.dictionaries(st.sampled_from(
    ["N", "M", "dt", "T", "record_interval", "scheme", "rank_tolerance",
     "seed"]), SCENARIO_VALUES), st.dictionaries(st.sampled_from(
         ["N_list", "v", "zeros", "stray"]), SECTION_VALUES))
def test_parse_config_raises_only_config_error(kind, values, section_values):
    head, keys = PROPERTY_SECTIONS.get(
        kind, ("[initial]\nfamily = random-band-limited\nbandwidth = 2\n", {}))
    keys = {**keys, **{k: v for k, v in section_values.items() if k in keys}}
    text = f"[scenario]\nkind = {kind}\n" \
        + "".join(f"{key} = {value}\n" for key, value in values.items()) \
        + head + "".join(f"{key} = {value}\n" for key, value in keys.items()
                         if value is not None)
    try:
        parse_config(text)
    except ConfigError:
        pass
