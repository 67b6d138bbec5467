import numpy as np
import pytest

from halfwave_lab import (SpinField, build_L, chain_run, constant_field,
                          energy, rhs, hyperbolic_circle, random_band_limited,
                          run, step, tilted_circle, total_spin)
from halfwave_lab.algebra import eta_dot
from halfwave_lab.lax import diagnose
from halfwave_lab.fields import HYPERBOLIC, ConstraintError
from halfwave_lab.spectral import grid


def test_rhs_constant_zero():
    assert np.abs(rhs(constant_field(64).values)).max() < 1e-14


def test_rhs_great_circle_stationary():
    # |grad|S = S so the cross product vanishes: a half-harmonic map
    assert np.abs(rhs(tilted_circle(64, 1.0, 0.0).values)).max() < 1e-13


def test_rhs_tilted_circle_hand_value():
    a, c = 0.6, 0.8
    x = grid(64)
    expected = np.stack([-a * c * np.sin(x), a * c * np.cos(x),
                         np.zeros(64)], axis=1)
    assert np.abs(rhs(tilted_circle(64, a, c).values) - expected).max() < 1e-13


def test_rhs_orthogonal_to_field():
    f = random_band_limited(64, 6, seed=0)
    r = rhs(f.values)
    assert np.abs((f.values * r).sum(axis=1)).max() < 1e-13


def test_hyperbolic_rhs_hand_value():
    a = 0.75
    b = np.sqrt(1 + a * a)
    x = grid(64)
    expected = np.stack([np.zeros(64), -a * b * np.sin(x),
                         a * b * np.cos(x)], axis=1)
    r = rhs(hyperbolic_circle(64, a).values, HYPERBOLIC)
    assert np.abs(r - expected).max() < 1e-13


def test_hyperbolic_rhs_eta_orthogonal():
    f = hyperbolic_circle(64, 0.5)
    r = rhs(f.values, HYPERBOLIC)
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


@pytest.mark.parametrize("make", [lambda: random_band_limited(64, 6, seed=0),
                                  lambda: hyperbolic_circle(64, 0.5)],
                         ids=["sphere", "hyperbolic"])
def test_rk4_blow_up_is_an_error(make):
    with np.errstate(all="ignore"), \
            pytest.raises(RuntimeError, match="non-finite"):
        step(make(), 1e300)


def test_midpoint_blow_up_keeps_convergence_error():
    with np.errstate(all="ignore"), \
            pytest.raises(RuntimeError, match="failed to converge"):
        step(random_band_limited(64, 6, seed=0), 1e300, scheme="midpoint")


def test_midpoint_blow_up_stops_at_first_non_finite_iterate():
    calls = []
    counting_rhs = lambda values, target: calls.append(1) or rhs(values, target)
    with np.errstate(all="ignore"), \
            pytest.raises(RuntimeError, match="non-finite"):
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


def test_run_conservation_and_isospectrality():
    f0 = tilted_circle(128, 0.6, 0.8)
    _, recs = run(f0, 1e-3, 1.0, record_interval=200,
                  record=lambda f: diagnose(f, 16))
    e0 = recs[0].energy
    s0 = recs[0].total_spin
    tp0 = recs[0].trace_powers
    lam0 = np.array(recs[0].eigenvalues)
    for r in recs[1:]:
        assert abs(r.energy - e0) / abs(e0) < 1e-8
        assert np.abs(r.total_spin - s0).max() < 1e-8
        for p in "1234":
            assert abs(r.trace_powers[p] - tp0[p]) / abs(tp0[p]) < 1e-6
        assert np.abs(np.sort(r.eigenvalues) - np.sort(lam0)).max() < 1e-8
        assert r.defect < 1e-10


def test_total_spin_of_constant():
    s = total_spin(constant_field(64, (0, 0, 1)))
    assert np.allclose(s, [0, 0, 2 * np.pi], atol=1e-13)


def test_hyperbolic_sheet_violation_detected():
    f = SpinField(np.tile([-1.0, 0.0, 0.0], (8, 1)), target=HYPERBOLIC)
    with pytest.raises(ConstraintError):
        f.renormalized()


def test_hyperbolic_nan_sample_detected():
    f = SpinField([[np.nan, 1.0, 0.0]] * 4, target=HYPERBOLIC)
    with pytest.raises(ConstraintError):
        f.renormalized()


def test_field_shape_validation():
    with pytest.raises(ValueError):
        SpinField(np.zeros((8, 2)))


@pytest.mark.parametrize("direction", [(0, 0, 0), (np.nan, 0, 1)])
def test_constant_field_rejects_degenerate_direction(direction):
    with pytest.raises(ValueError, match="direction"):
        constant_field(4, direction)


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
        chain_run(f, 0.3, 1.0)


def test_run_rejects_fewer_than_one_step():
    f = tilted_circle(16, 0.6, 0.8)
    for go in (lambda: run(f, -1e-3, 1.0), lambda: run(f, 1e-3, 0.0),
               lambda: chain_run(f, -1e-3, 1.0)):
        with pytest.raises(ValueError, match="whole number of steps"):
            go()
