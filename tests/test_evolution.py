import itertools

import numpy as np
import pytest

from halfwave_lab import evolution
from halfwave_lab.chain import chain_diagnose, chain_rhs
from halfwave_lab.evolution import (SCHEMES, energy, rhs, run, step,
                                    total_spin)
from halfwave_lab.fields import (HYPERBOLIC, SpinField, bandwidth_of,
                                 constant_field, hyperbolic_circle,
                                 random_band_limited, random_rational,
                                 tilted_circle)
from halfwave_lab.lax import build_L, diagnose, spectrum
from halfwave_lab.runner import timeseries_csv
from halfwave_lab.spectral import grid
from oracles import (eta_dot, hyperbolic_off_circle, reference_chain_rhs,
                     reference_rhs, reference_run)


def test_rhs_constant_zero():
    assert np.abs(rhs(constant_field(64).values.T).T).max() < 1e-14


def test_rhs_great_circle_stationary():
    # |grad|S = S so the cross product vanishes: a half-harmonic map
    assert np.abs(rhs(tilted_circle(64, 1.0, 0.0).values.T).T).max() < 1e-13


def test_rhs_tilted_circle_hand_value():
    a, c = 0.6, 0.8
    x = grid(64)
    expected = np.stack([-a * c * np.sin(x), a * c * np.cos(x),
                         np.zeros(64)], axis=1)
    assert np.abs(rhs(tilted_circle(64, a, c).values.T).T - expected).max() < 1e-13


def test_rhs_orthogonal_to_field():
    f = random_band_limited(64, 6, seed=0)
    r = rhs(f.values.T).T
    assert np.abs((f.values * r).sum(axis=1)).max() < 1e-13


def test_hyperbolic_rhs_hand_value():
    a = 0.75
    b = np.sqrt(1 + a * a)
    x = grid(64)
    expected = np.stack([np.zeros(64), -a * b * np.sin(x),
                         a * b * np.cos(x)], axis=1)
    r = rhs(hyperbolic_circle(64, a).values.T, HYPERBOLIC).T
    assert np.abs(r - expected).max() < 1e-13


def _closure_arrays(fn):
    """The arrays a closure holds."""
    return [cell.cell_contents for cell in fn.__closure__
            if isinstance(cell.cell_contents, np.ndarray)]


@pytest.mark.parametrize("flow, make", [
    (rhs, lambda: random_band_limited(64, 6, seed=0)),
    (rhs, lambda: hyperbolic_off_circle(64)),
    (chain_rhs, lambda: random_band_limited(64, 6, seed=1)),
    (chain_rhs, lambda: _unit_spins(33, 5)),
    (chain_rhs, lambda: _unit_spins(2, 6))],
    ids=["sphere", "hyperbolic", "chain", "chain-N33", "chain-N2"])
def test_buffered_rhs_returns_no_buffer(flow, make):
    # a buffered rhs writes its result into out or a new array, never into
    # (or as a view of) the symbol and the buffers it keeps for a run
    f = make()
    Y, other = f.values.T.copy(), np.roll(f.values.T, 5, axis=1).copy()
    buffered = flow.buffered(f.N)
    buffers = _closure_arrays(buffered)
    assert len(buffers) >= 4  # the symbol, the modes and the (5, N) S and AS
    first = buffered(Y, f.target)
    kept = first.copy()
    second = buffered(other, f.target)
    assert first is not second and first.tobytes() == kept.tobytes()
    out = np.full((3, f.N), np.nan)
    assert buffered(Y, f.target, out) is out
    assert out.tobytes() == kept.tobytes()
    assert kept.tobytes() == flow(Y, f.target).tobytes()
    for result in (first, second, out):
        assert result.shape == (3, f.N)
        assert not any(np.shares_memory(result, b) for b in buffers + [Y])


def test_hyperbolic_rhs_eta_orthogonal():
    f = hyperbolic_circle(64, 0.5)
    r = rhs(f.values.T, HYPERBOLIC).T
    assert np.abs(eta_dot(f.values, r)).max() < 1e-13


def test_step_stationary_great_circle():
    f = tilted_circle(64, 1.0, 0.0)
    g = step(f, 1e-2)
    assert np.abs(g.values - f.values).max() < 1e-12


def test_step_rejects_zero_dt():
    with pytest.raises(ValueError):
        step(tilted_circle(64, 1.0, 0.0), 0.0)


def test_step_unknown_scheme():
    with pytest.raises(ValueError):
        step(tilted_circle(64, 1.0, 0.0), 1e-3, scheme="euler")


@pytest.mark.parametrize("make, force", [
    (lambda: random_band_limited(64, 6, seed=0), rhs),
    (lambda: hyperbolic_circle(64, 0.5), rhs),
    (lambda: SpinField(np.random.default_rng(0).standard_normal((16, 3)))
     .renormalized(), chain_rhs)],
    ids=["sphere", "hyperbolic", "chain"])
def test_rk4_blow_up_is_an_error(make, force):
    with pytest.raises(RuntimeError, match="non-finite"):
        step(make(), 1e300, rhs=force)


@pytest.mark.parametrize("dt", [1e3, 1e6])
def test_rk4_finite_blow_up_is_an_error(dt):
    # the new values stay finite, and the projection alone would map them
    # back to a unit field
    with pytest.raises(RuntimeError, match=f"blow-up; dt = {dt} is too large"):
        step(random_band_limited(64, 6, seed=0), dt)


@pytest.mark.parametrize("target", ["sphere", HYPERBOLIC])
def test_step_bounds_defect_before_projection(target):
    # dS/dt = S scales S by e^dt, off its target by |S.S - 1| on S^2 and
    # |S.eta.S + 1| on H^2: e^2dt - 1, on the sheet for any dt
    f = tilted_circle(64, 0.6, 0.8) if target == "sphere" \
        else hyperbolic_circle(64, 0.5)
    grow = lambda values, target, out: np.copyto(out, values)  # noqa: E731
    assert step(f, 0.1, rhs=grow).defect() < 1e-15
    with pytest.raises(RuntimeError, match=r"defect .* exceeds 0\.5 "
                       r"\(blow-up; dt = 1\.0 is too large\)"):
        step(f, 1.0, rhs=grow)


@pytest.mark.parametrize("make, force, top", [
    (lambda: random_band_limited(64, 6, seed=0), rhs, 32),
    (lambda: SpinField(np.random.default_rng(1).standard_normal((64, 3)))
     .renormalized(), rhs, 32),
    (lambda: SpinField(np.random.default_rng(0).standard_normal((64, 3)))
     .renormalized(), chain_rhs, 64 ** 2 / 2)],
    ids=["smooth flow", "rough flow", "chain"])
def test_rk4_inside_stability_limit_is_no_blow_up(make, force, top):
    # rough fields leave defects up to 0.1 per step here, under the bound
    f = make()
    dt = 0.99 * SCHEMES["rk4"][0] / top
    for _ in range(200):
        f = step(f, dt, rhs=force)
    assert f.defect() < 1e-14


def _counting(force):
    """force wrapped to count its calls, and the list that counts them."""
    calls = []
    return (lambda values, target, out: calls.append(1)
            or force(values, target, out)), \
        calls


def _unit_spins(N, seed):
    """N random unit spins, for any N (grid and the families take even N
    only): the smallest grid and odd N, whose rfft takes another branch."""
    return SpinField(np.random.default_rng(seed).standard_normal((N, 3))) \
        .renormalized()


@pytest.mark.parametrize("make, force, reference, dt", [
    (lambda: random_band_limited(128, 8, 1), rhs, reference_rhs, 2e-3),
    (lambda: hyperbolic_off_circle(128), rhs, reference_rhs, 2e-3),
    (lambda: random_band_limited(64, 8, 2), chain_rhs, reference_chain_rhs,
     1e-4),
    (lambda: _unit_spins(2, 3), chain_rhs, reference_chain_rhs, 1e-2),
    (lambda: _unit_spins(33, 4), chain_rhs, reference_chain_rhs, 1e-4)],
    ids=["sphere", "hyperbolic", "chain", "chain-N2", "chain-N33"])
@pytest.mark.parametrize("scheme, warm", [
    ("rk4", True), ("midpoint", False), ("midpoint", True)],
    ids=["rk4", "cold-midpoint", "warm-midpoint"])
def test_run_is_the_reference_step_bit_for_bit(make, force, reference, dt,
                                               scheme, warm):
    # run's (3, N) kernel against the plain (N, 3) step it replaced: every
    # record and the final state carry the same bits, in C order (a cold
    # midpoint is a bare step, from the Euler predictor, 120 times)
    nsteps, interval = 120, 7
    if warm:
        final, fields = run(make(), dt, nsteps * dt, interval, scheme,
                            record=lambda f: f, rhs=force)
    else:
        fields = [make()]
        for _ in range(nsteps):
            fields.append(step(fields[-1], dt, scheme, force))
        fields, final = fields[::interval] + [fields[-1]], fields[-1]
    states = reference_run(make(), dt, nsteps, scheme, reference, warm)
    expected = states[::interval] + [states[-1]]
    assert [f.values.tobytes() for f in fields] == \
        [s.tobytes() for s in expected]
    times = list(itertools.accumulate([0.0] + [dt] * nsteps))  # t += dt
    assert [f.time for f in fields] == times[::interval] + [times[-1]]
    assert all(f.values.flags.c_contiguous for f in fields)


def test_midpoint_blow_up_keeps_convergence_error():
    with pytest.raises(RuntimeError, match="failed to converge"):
        step(random_band_limited(64, 6, seed=0), 1e300, scheme="midpoint")


def test_midpoint_out_of_iterations_is_an_error(monkeypatch):
    # a finite iterate that has not met the tolerance after the last
    # iteration: one iteration from the start of the step leaves an update
    # of order dt
    monkeypatch.setattr(evolution, "MIDPOINT_MAXITER", 1)
    with pytest.raises(RuntimeError,
                       match="failed to converge in 1 iterations"):
        step(tilted_circle(32, 0.6, 0.8), 1e-2, scheme="midpoint")


def test_midpoint_blow_up_stops_at_first_non_finite_iterate():
    counting_rhs, calls = _counting(rhs)
    with pytest.raises(RuntimeError, match="non-finite"):
        step(random_band_limited(64, 6, seed=0), 1e300, scheme="midpoint",
             rhs=counting_rhs)
    assert len(calls) <= 3


def test_rk4_exact_rotating_solution_sphere():
    f, _ = run(tilted_circle(64, 0.6, 0.8), 1e-3, 1.0)
    exact = tilted_circle(64, 0.6, 0.8, 1.0)
    assert np.abs(f.values - exact.values).max() < 1e-6


def test_rk4_exact_rotating_solution_hyperbolic():
    f, _ = run(hyperbolic_circle(64, 0.75), 1e-3, 1.0)
    exact = hyperbolic_circle(64, 0.75, 1.0)
    assert np.abs(f.values - exact.values).max() < 1e-6


def test_fourth_order_convergence():
    errs = []
    for dt in (2e-2, 1e-2, 5e-3, 2.5e-3):
        f, _ = run(tilted_circle(64, 0.6, 0.8), dt, 1.0)
        exact = tilted_circle(64, 0.6, 0.8, 1.0)
        errs.append(np.abs(f.values - exact.values).max())
    for e1, e2 in zip(errs, errs[1:]):
        assert e1 / e2 == pytest.approx(16.0, rel=0.2)


def test_midpoint_scheme_runs():
    f, _ = run(tilted_circle(64, 0.6, 0.8), 1e-2, 0.1, scheme="midpoint")
    exact = tilted_circle(64, 0.6, 0.8, 0.1)
    assert np.abs(f.values - exact.values).max() < 1e-6


@pytest.mark.parametrize("make, dt, T, force, max_per_step", [
    (lambda: hyperbolic_circle(256, 0.5), 2e-3, 1.0, rhs, 2.1),
    (lambda: SpinField(tilted_circle(64, 0.6, 0.8).values), 1e-4, 0.02,
     chain_rhs, 4.1)],  # 6 per step from the Euler predictor
    ids=["hyperbolic", "chain"])
def test_midpoint_warm_start_matches_cold_steps(make, dt, T, force,
                                                max_per_step):
    # run starts the midpoint iteration from the extrapolated increments, a
    # bare step from the Euler predictor: one fixed point, fewer rhs calls
    cold = make()
    nsteps = round(T / dt)
    for _ in range(nsteps):
        cold = step(cold, dt, "midpoint", rhs=force)
    counting, calls = _counting(force)
    warm, _ = run(make(), dt, T, nsteps, "midpoint", rhs=counting,
                  record=lambda f: None)
    assert np.abs(warm.values - cold.values).max() < 1e-13
    assert len(calls) <= max_per_step * nsteps


def test_midpoint_warm_start_costs_no_more_on_a_stiff_field():
    # dt = 1e-2 at N = 256 makes the iteration contract slowly (about 34
    # sweeps per step); the extrapolated start may not cost more there
    make = lambda: random_band_limited(256, 32, 1)
    cold_rhs, cold_calls = _counting(rhs)
    cold = make()
    for _ in range(100):
        cold = step(cold, 1e-2, "midpoint", rhs=cold_rhs)
    warm_rhs, warm_calls = _counting(rhs)
    run(make(), 1e-2, 1.0, 100, "midpoint", rhs=warm_rhs,
        record=lambda f: None)
    assert len(warm_calls) <= 1.02 * len(cold_calls)


def test_constraint_defect_after_steps():
    f = random_band_limited(64, 4, seed=1)
    for _ in range(10):
        f = step(f, 1e-3)
        assert f.defect() < 1e-12


def test_time_reversal():
    f0 = random_band_limited(64, 4, seed=2)
    f = f0
    for _ in range(200):
        f = step(f, 1e-3)
    for _ in range(200):
        f = step(f, -1e-3)
    assert np.abs(f.values - f0.values).max() < 1e-8


def test_energy_values():
    assert abs(energy(constant_field(64))) < 1e-13
    assert energy(tilted_circle(64, 1.0, 0.0)) == pytest.approx(np.pi, abs=1e-12)
    assert energy(tilted_circle(64, 0.6, 0.8)) == pytest.approx(
        0.36 * np.pi, abs=1e-12)


def _columns(row, names):
    return np.array([row[name] for name in names.split()])


def test_run_conservation_and_isospectrality():
    f0 = tilted_circle(128, 0.6, 0.8)
    _, recs = run(f0, 1e-3, 1.0, record_interval=200,
                  record=lambda f: diagnose(f, 16))
    e0 = recs[0]["energy"]
    s0 = _columns(recs[0], "sx sy sz")
    lam0 = _columns(recs[0], "lam1 lam2 lam3 lam4")
    for r in recs[1:]:
        assert abs(r["energy"] - e0) / abs(e0) < 1e-8
        assert np.abs(_columns(r, "sx sy sz") - s0).max() < 1e-8
        for p in ("trL1", "trL2", "trL3", "trL4"):
            assert abs(r[p] - recs[0][p]) / abs(recs[0][p]) < 1e-6
        lam = _columns(r, "lam1 lam2 lam3 lam4")
        assert np.abs(np.sort(lam) - np.sort(lam0)).max() < 1e-8
        assert r["defect"] < 1e-10


SPIN = ["t", "energy", "sx", "sy", "sz"]
LAX = ["trL1", "trL2", "trL3", "trL4", "rank", "lam1", "lam2", "lam3", "lam4"]


@pytest.mark.parametrize("make, record, force, columns", [
    (lambda: tilted_circle(64, 0.6, 0.8), evolution.diagnose, rhs,
     SPIN + ["defect"]),
    (lambda: SpinField(tilted_circle(64, 0.6, 0.8).values), chain_diagnose,
     chain_rhs, ["t", "H_classical", "sx", "sy", "sz", "defect"]),
    (lambda: random_band_limited(64, 4, seed=0), lambda f: diagnose(f, 8), rhs,
     SPIN + LAX + ["defect"]),
    (lambda: hyperbolic_circle(64, 0.5), lambda f: diagnose(f, 8), rhs,
     SPIN + LAX + ["defect"])],
    ids=["evolution", "chain", "lax-sphere", "lax-hyperbolic"])
def test_record_is_a_csv_row(make, record, force, columns):
    _, rows = run(make(), 1e-4, 3e-4, record=record, rhs=force)
    assert [list(row) for row in rows] == [columns] * 4
    lines = timeseries_csv(rows).splitlines()
    assert lines[0] == ",".join(columns)
    for line, row in zip(lines[1:], rows, strict=True):
        cells = dict(zip(columns, line.split(","), strict=True))
        assert {c: float(v) for c, v in cells.items()} == row
        if "rank" in row:
            assert cells["rank"] == str(row["rank"]) and row["rank"] > 0


def test_lax_record_eigenvalues():
    # the sphere's largest-magnitude eigenvalues, in ascending order; H^2
    # reports none, so its lam columns are the 0.0 padding
    f = random_band_limited(64, 4, seed=0)
    row = diagnose(f, 8)
    lams = [row[f"lam{i}"] for i in range(1, 5)]
    eigs = np.abs(spectrum(build_L(f, 8), f.target).eigenvalues)
    assert list(np.sort(np.abs(lams))) == list(np.sort(eigs)[-4:])
    assert lams == sorted(lams)
    h = diagnose(hyperbolic_circle(64, 0.5), 8)
    assert [h[f"lam{i}"] for i in range(1, 5)] == [0.0] * 4


def test_hyperbolic_energy_is_conserved_off_the_circles():
    # energy pairs S and |grad|S by eta; on the circles the Euclidean pairing
    # agrees with it, off them it drifts (4.3e-3 by T = 0.5 here)
    _, recs = run(hyperbolic_off_circle(128), 1e-3, 0.5, record_interval=100)
    assert max(abs(r["energy"] - recs[0]["energy"]) for r in recs) < 1e-13


def test_total_spin_of_constant():
    s = total_spin(constant_field(64, (0, 0, 1)))
    assert np.allclose(s, [0, 0, 2 * np.pi], atol=1e-13)


def test_hyperbolic_sheet_violation_detected():
    f = SpinField(np.tile([-1.0, 0.0, 0.0], (8, 1)), target=HYPERBOLIC)
    with pytest.raises(ValueError, match="sheet"):
        f.renormalized()


def test_hyperbolic_nan_sample_detected():
    f = SpinField([[np.nan, 1.0, 0.0]] * 4, target=HYPERBOLIC)
    with pytest.raises(ValueError, match="sheet"):
        f.renormalized()


def test_field_shape_validation():
    with pytest.raises(ValueError):
        SpinField(np.zeros((8, 2)))


@pytest.mark.parametrize("direction", [(0, 0, 0), (np.nan, 0, 1)])
def test_constant_field_rejects_degenerate_direction(direction):
    with pytest.raises(ValueError, match="direction"):
        constant_field(4, direction)


@pytest.mark.parametrize("target, direction", [
    ("sphere", (0.3, 0.3, 0.3)),  # np.linalg.norm rounds this one otherwise
    (HYPERBOLIC, (1.0, 0.0, 0.0))], ids=["sphere", "hyperbolic-default"])
def test_constant_field_is_its_tiled_direction_renormalized(target, direction):
    # the projection every step applies, on both targets, to the last bit
    expected = SpinField(np.tile(direction, (8, 1)), target=target).renormalized()
    given = None if target == HYPERBOLIC else direction
    got = constant_field(8, given, target)
    assert got.target == target
    assert np.array_equal(got.values, expected.values)


def test_band_limited_field_rejects_bandwidth_below_one():
    # config checks the bandwidth against N first; this is the library's own
    with pytest.raises(ValueError, match="bandwidth must be >= 1, got 0"):
        random_band_limited(16, 0, seed=0)


def test_bandwidth_of_a_field_without_modes_is_zero():
    # a constant field has mode 0 alone, and the zero field no mode above
    # the tolerance
    assert bandwidth_of(constant_field(8).values) == 0
    assert bandwidth_of(np.zeros((8, 3))) == 0


@pytest.mark.parametrize("family", [random_band_limited, random_rational],
                         ids=["band-limited", "rational"])
def test_random_families_reject_bad_seeds(family):
    # random.Random would seed -1 like 1 and hash 1.5 without a word
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        family(16, 3, -1)
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        family(16, 3, 1.5)
    # an integer seed of any type draws the same field, and another seed not
    values = family(16, 3, 7).values
    assert (family(16, 3, np.int64(7)).values == values).all()
    assert not (family(16, 3, 8).values == values).all()


def test_odd_grid_rejected_on_first_use():
    # the constructor accepts any N (the chain runs on 2 sites); the
    # spectral operators reject an odd grid when first applied
    f = SpinField(np.tile([0.0, 0.0, 1.0], (7, 1)))
    for use in (lambda: step(f, 1e-3), lambda: energy(f), lambda: build_L(f, 2)):
        with pytest.raises(ValueError, match="grid size"):
            use()


def test_run_rejects_T_not_multiple_of_dt():
    f = tilted_circle(16, 0.6, 0.8)
    with pytest.raises(ValueError, match="whole number of steps"):
        run(f, 0.3, 1.0)
    with pytest.raises(ValueError, match="whole number of steps"):
        run(f, 0.3, 1.0, record=chain_diagnose, rhs=chain_rhs)
    # T/dt that is not a finite number
    for dt, T in ((1e-310, 1e10), (1e-3, np.inf), (1e-3, np.nan)):
        with pytest.raises(ValueError, match="whole number of steps"):
            run(f, dt, T)


def test_run_rejects_fewer_than_one_step():
    f = tilted_circle(16, 0.6, 0.8)
    for go in (lambda: run(f, -1e-3, 1.0), lambda: run(f, 1e-3, 0.0),
               lambda: run(f, -1e-3, 1.0, record=chain_diagnose,
                           rhs=chain_rhs)):
        with pytest.raises(ValueError, match="whole number of steps"):
            go()


@pytest.mark.parametrize("interval", [0, -1, 2.5])
def test_run_rejects_a_bad_record_interval_before_any_work(interval):
    # 0 divided by zero after a step, -1 recorded every step, and 2.5 moved
    # the records off the schedule runner._record_count counts
    counting_rhs, calls = _counting(rhs)
    records = []
    with pytest.raises(ValueError, match="record_interval must be an integer"):
        run(tilted_circle(16, 0.6, 0.8), 1e-3, 4e-3, interval,
            record=records.append, rhs=counting_rhs)
    assert calls == [] and records == []


@pytest.mark.parametrize("dt", [0.0, 0, -0.0])
def test_zero_dt_and_an_unknown_scheme_fail_before_any_work(dt):
    # T / dt was a ZeroDivisionError from step_count; an unknown scheme
    # came after the initial record
    counting_rhs, calls = _counting(rhs)
    records = []
    f = tilted_circle(16, 0.6, 0.8)
    for go, match in [
            (lambda: run(f, dt, 4e-3, record=records.append,
                         rhs=counting_rhs), "whole number of steps dt = "),
            (lambda: run(f, dt, 0.0, 1, "midpoint", records.append,
                         counting_rhs), "whole number of steps dt = "),
            (lambda: step(f, dt, "midpoint", counting_rhs), "whole number"),
            (lambda: step(f, dt, rhs=counting_rhs), "whole number"),
            (lambda: run(f, 1e-3, 4e-3, 1, "euler", records.append,
                         counting_rhs), "unknown scheme 'euler'")]:
        with pytest.raises(ValueError, match=match):
            go()
    assert calls == [] and records == []


def test_midpoint_tolerance_scales_with_the_largest_spin():
    # inside the config limit (dt N/2 max|S| = 1.39), the absolute tolerance
    # 1e-13 failed on this circle: "failed to converge in 100 iterations
    # (last update 1.137e-13)", as rounding of |S_k| ~ 1414 exceeds it
    a = 1000.0
    dt = 1.39 / (32.0 * np.sqrt(1.0 + 2.0 * a * a))
    final, rows = run(hyperbolic_circle(64, a), dt, 20 * dt, 20, "midpoint")
    exact = hyperbolic_circle(64, a, 20 * dt).values
    assert len(rows) == 2
    assert np.abs(final.values - exact).max() < 1e-4 * np.abs(exact).max()
