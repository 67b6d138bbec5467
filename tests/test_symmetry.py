"""Symmetries of the flow and of the Lax spectrum on general fields, with the
group elements drawn by hypothesis: rotations on S^2, boosts on H^2, shifts
by sites, the reflection x -> -x and time reversal S(x, t) -> -S(x, -t).

Tolerances, from the largest differences over 300 random group elements
and fields (N = 128, dt = 1e-2 on S^2, 5e-3 on H^2), with about a 3x margin:
- rk4 steps: 3.3e-16 measured, RK4_TOL = 1e-15.
- midpoint steps: 2.1e-14 under rotation and 3.4e-14 forward and back,
  where the transformed iteration stops one update earlier or later than
  the original; bounded by the stopping update itself, MIDPOINT_TOL
  max(1, max_k |S_k|) (2.2e-16 under shifts and reflections).
- H^2 boosts (midpoint, |w| <= 1, max_k |S_k| up to 3.9): 6.7e-15 measured,
  bounded by the same stopping update.
- Lax eigenvalues at M = 48 (largest about 0.37): 1.6e-15 measured,
  LAX_TOL = 5e-15.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from halfwave_lab.evolution import MIDPOINT_TOL, step
from halfwave_lab.fields import HYPERBOLIC, SpinField, random_band_limited
from halfwave_lab.lax import build_L, spectrum
from oracles import hyperbolic_off_circle

N = 128
RK4_TOL = 1e-15
LAX_TOL = 5e-15
FIELD = random_band_limited(N, 6, seed=0)
H2_FIELD = hyperbolic_off_circle(N)
TOLERANCE = {"rk4": RK4_TOL, "midpoint": MIDPOINT_TOL}

angles = st.floats(0.0, 2.0 * np.pi)
shifts = st.integers(1, N - 1)
examples = settings(max_examples=25, deadline=None)


def _rotation(a, b, c):
    """R_z(a) R_y(b) R_z(c), an element of SO(3)."""
    def rz(t):
        return np.array([[np.cos(t), -np.sin(t), 0.0],
                         [np.sin(t), np.cos(t), 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[np.cos(b), 0.0, np.sin(b)], [0.0, 1.0, 0.0],
                   [-np.sin(b), 0.0, np.cos(b)]])
    return rz(a) @ ry @ rz(c)


def _boost(w, phi):
    """The boost of rapidity w along (cos phi, sin phi) in the (X2, X3)
    plane, an element of SO+(2, 1) (it keeps -X1^2 + X2^2 + X3^2 and X1 > 0)."""
    n = np.array([np.cos(phi), np.sin(phi)])
    boost = np.eye(3)
    boost[0, 0] = np.cosh(w)
    boost[0, 1:] = boost[1:, 0] = np.sinh(w) * n
    boost[1:, 1:] += (np.cosh(w) - 1.0) * np.outer(n, n)
    return boost


def _reflect(values):
    """S(x) -> S(-x) on the grid: site k -> site -k mod N."""
    return np.roll(values[::-1], 1, axis=0)


def _stepped(values, dt, scheme, target="sphere"):
    return step(SpinField(values, target=target), dt, scheme).values


@pytest.mark.parametrize("scheme", ["rk4", "midpoint"])
@examples
@given(a=angles, b=angles, c=angles)
def test_step_commutes_with_rotations(scheme, a, b, c):
    R = _rotation(a, b, c)
    once = _stepped(FIELD.values, 1e-2, scheme)
    rotated = _stepped(FIELD.values @ R.T, 1e-2, scheme)
    assert np.abs(rotated - once @ R.T).max() <= TOLERANCE[scheme]


@pytest.mark.parametrize("scheme", ["rk4", "midpoint"])
@examples
@given(k=shifts, reflect=st.booleans())
def test_step_commutes_with_shifts_and_the_reflection(scheme, k, reflect):
    def move(values):
        values = np.roll(values, k, axis=0)
        return _reflect(values) if reflect else values
    once = _stepped(FIELD.values, 1e-2, scheme)
    moved = _stepped(move(FIELD.values), 1e-2, scheme)
    assert np.abs(moved - move(once)).max() <= TOLERANCE[scheme]


@pytest.mark.parametrize("scheme", ["rk4", "midpoint"])
@examples
@given(seed=st.integers(0, 2 ** 16), dt=st.floats(1e-3, 1e-2))
def test_time_reversal_is_exact(scheme, seed, dt):
    # -S stepped with -dt is -step(S, dt): negating a factor is exact in
    # every product, transform, stage and iterate
    values = random_band_limited(N, 6, seed).values
    assert np.array_equal(_stepped(-values, -dt, scheme),
                          -_stepped(values, dt, scheme))


@examples
@given(seed=st.integers(0, 2 ** 16), dt=st.floats(1e-3, 1e-2))
def test_midpoint_step_back_returns_the_start(seed, dt):
    # the implicit midpoint rule is symmetric: a step of -dt undoes one of dt
    values = random_band_limited(N, 6, seed).values
    back = _stepped(_stepped(values, dt, "midpoint"), -dt, "midpoint")
    assert np.abs(back - values).max() <= MIDPOINT_TOL


@examples
@given(w=st.floats(-1.0, 1.0), phi=angles)
def test_midpoint_step_commutes_with_h2_boosts(w, phi):
    boost = _boost(w, phi)
    boosted = H2_FIELD.values @ boost.T
    once = _stepped(H2_FIELD.values, 5e-3, "midpoint", HYPERBOLIC)
    moved = _stepped(boosted, 5e-3, "midpoint", HYPERBOLIC)
    largest = np.linalg.norm(boosted, axis=1).max()
    assert np.abs(moved - once @ boost.T).max() <= MIDPOINT_TOL * largest


@settings(max_examples=10, deadline=None)
@given(a=angles, b=angles, c=angles, k=shifts)
def test_lax_eigenvalues_are_invariant_under_rotation_and_shift(a, b, c, k):
    def eigenvalues(values):
        return np.array(spectrum(build_L(SpinField(values), 48),
                                 "sphere").eigenvalues)
    lam = eigenvalues(FIELD.values)
    for values in (FIELD.values @ _rotation(a, b, c).T,
                   np.roll(FIELD.values, k, axis=0)):
        assert np.abs(eigenvalues(values) - lam).max() <= LAX_TOL
