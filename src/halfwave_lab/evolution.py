"""Time integration of the half-wave maps flow (both targets) and the chain.

The flow is dS/dt = S x |grad|S (sphere) or S x_eta |grad|S (hyperbolic),
applied componentwise through the |n| Fourier multiplier. Steps are taken
with classical RK4 or implicit midpoint and the target constraint is
restored exactly by pointwise renormalization after every step.
"""

import numpy as np

from . import spectral
from .algebra import cross, eta_cross, eta_dot
from .fields import SPHERE, ConstraintError, SpinField

SCHEMES = ("rk4", "midpoint")
MIDPOINT_TOL = 1e-13  # max-norm update that ends the midpoint iteration
MIDPOINT_MAXITER = 100
# Largest defect (fields.SpinField.defect) a step may leave before its
# projection back onto the target. rk4 steps inside the stability limit
# leave up to 0.1 on random unit fields, for the flow and the chain alike;
# a step past it leaves 5 at dt = 1 and 1e40 at dt = 1e3 on a smooth field.
BLOWUP_DEFECT = 0.5


def rhs(values, target=SPHERE):
    """dS/dt of the flow on (N, 3) samples; pointwise (eta-)orthogonal to S."""
    grad = spectral.halfwave_op(values.T).T
    if target == SPHERE:
        return cross(values, grad)
    return eta_cross(values, grad)


def step(field, dt, scheme="rk4", rhs=rhs, start=None):
    """Advance dS/dt = rhs(S, target) one step and renormalize onto the target.

    Schemes: "rk4" (default) or "midpoint" (implicit midpoint, fixed-point
    iteration; it conserves every quadratic invariant, the chain energy
    included). The midpoint iteration starts from `start`, an (N, 3) guess
    of the new state, or, when it is None (as for a bare step), from the
    Euler predictor S + dt*rhs(S); rk4 ignores it. Raises RuntimeError if
    the midpoint iteration stalls or meets a non-finite iterate, or the new
    state is not finite, off the H^2 sheet or more than BLOWUP_DEFECT off
    its target before the projection.
    """
    if dt == 0:
        raise ValueError("dt must be nonzero")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    S = field.values
    target = field.target
    # the checks below report a blow-up, not numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        if scheme == "rk4":
            k1 = rhs(S, target)
            k2 = rhs(S + 0.5 * dt * k1, target)
            k3 = rhs(S + 0.5 * dt * k2, target)
            k4 = rhs(S + dt * k3, target)
            new = S + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        else:
            new = S + dt * rhs(S, target) if start is None else start
            for _ in range(MIDPOINT_MAXITER):
                mid = 0.5 * (S + new)
                nxt = S + dt * rhs(mid, target)
                delta = np.abs(nxt - new).max()
                new = nxt
                if delta < MIDPOINT_TOL:
                    break
                if not np.isfinite(delta):
                    raise RuntimeError(
                        "implicit midpoint failed to converge: non-finite "
                        f"iterate (blow-up; dt = {dt} is too large)")
            else:
                raise RuntimeError(
                    "implicit midpoint failed to converge in "
                    f"{MIDPOINT_MAXITER} iterations (last update {delta:.3e})")
        # a non-finite sample fails the bound (or the H^2 sheet) too
        try:
            return SpinField(new, field.time + dt, target).renormalized(
                BLOWUP_DEFECT)
        except ConstraintError as exc:
            what = (" gave non-finite values" if not np.isfinite(new).all()
                    else f": {exc}")
            raise RuntimeError(f"{scheme} step to t = {field.time + dt:.6g}"
                               f"{what} (blow-up; dt = {dt} is too large)"
                               ) from None


def energy(field):
    """E = (1/2) Integral S . |grad|S dx (eta inner product on H^2 target)."""
    grad = spectral.halfwave_op(field.values.T).T
    if field.target == SPHERE:
        dens = (field.values * grad).sum(axis=1)
    else:
        dens = eta_dot(field.values, grad)
    return float(0.5 * dens.sum() * 2.0 * np.pi / field.N)


def total_spin(field):
    """Integral of S over the torus (conserved 3-vector)."""
    return field.values.sum(axis=0) * (2.0 * np.pi / field.N)


def diagnose(field):
    """The record of field: a CSV row {column: value}."""
    sx, sy, sz = map(float, total_spin(field))
    return {"t": field.time, "energy": energy(field), "sx": sx, "sy": sy,
            "sz": sz, "defect": field.defect()}


def step_count(T, dt):
    """T/dt, or ValueError unless T is a whole number >= 1 of steps dt."""
    ratio = T / dt
    nsteps = round(ratio) if np.isfinite(ratio) else 0
    if nsteps < 1 or abs(ratio - nsteps) > 1e-9 * max(1.0, abs(ratio)):
        raise ValueError(f"T = {T} is not a positive whole number of steps "
                         f"dt = {dt}")
    return nsteps


def run(field, dt, T, record_interval=1, scheme="rk4", record=diagnose,
        rhs=rhs):
    """Step dS/dt = rhs(S, target) T/dt times; return (final_field, records),
    with the row record(field) of the initial, every record_interval-th and
    final state (lax.diagnose adds the Lax columns; the chain passes
    chain.chain_rhs and chain.chain_diagnose).

    From the fourth midpoint step on, the iteration starts from the
    quadratic extrapolation S + 3(D1 - D2) + D3 of the last three accepted
    increments (D1 the newest), within O(dt^4) of the new state, in place
    of the Euler predictor of the first three steps (Hairer, Lubich &
    Wanner, Geometric Numerical Integration, Sect. VIII.6). The fixed point
    and the stopping rule are those of `step`, so the result agrees with
    stepping by `step` alone to the iteration tolerance.
    """
    nsteps = step_count(T, dt)
    records = [record(field)]
    increments = []  # the last three midpoint S_(k+1) - S_k, oldest first
    for i in range(1, nsteps + 1):
        start = None
        if len(increments) == 3:
            d3, d2, d1 = increments
            start = field.values + 3.0 * (d1 - d2) + d3
        new = step(field, dt, scheme, rhs, start)
        if scheme == "midpoint":
            increments = increments[-2:] + [new.values - field.values]
        field = new
        if i % record_interval == 0 or i == nsteps:
            records.append(record(field))
    return field, records
