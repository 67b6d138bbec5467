"""Time integration of the half-wave maps flow (both targets) and the chain.

The flow is dS/dt = S x |grad|S (sphere) or S x_eta |grad|S (hyperbolic),
applied componentwise through the |n| Fourier multiplier. Steps are taken
with classical RK4 or implicit midpoint and the target constraint is
restored exactly by pointwise renormalization after every step.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import spectral
from .algebra import cross, eta_cross, eta_dot
from .fields import SPHERE, SpinField

SCHEMES = ("rk4", "midpoint")
MIDPOINT_TOL = 1e-13  # max-norm update that ends the midpoint iteration
MIDPOINT_MAXITER = 100


def rhs(values, target=SPHERE):
    """dS/dt of the flow on (N, 3) samples; pointwise (eta-)orthogonal to S."""
    grad = spectral.halfwave_op(values.T).T
    if target == SPHERE:
        return cross(values, grad)
    return eta_cross(values, grad)


def step(field, dt, scheme="rk4", rhs=rhs):
    """Advance dS/dt = rhs(S, target) one step and renormalize onto the target.

    Schemes: "rk4" (default) or "midpoint" (implicit midpoint, fixed-point
    iteration; it conserves every quadratic invariant, the chain energy
    included). Raises RuntimeError if the midpoint iteration stalls or
    meets a non-finite iterate, or the new state is not finite.
    """
    if dt == 0:
        raise ValueError("dt must be nonzero")
    S = field.values
    target = field.target
    if scheme == "rk4":
        k1 = rhs(S, target)
        k2 = rhs(S + 0.5 * dt * k1, target)
        k3 = rhs(S + 0.5 * dt * k2, target)
        k4 = rhs(S + dt * k3, target)
        new = S + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    elif scheme == "midpoint":
        new = S + dt * rhs(S, target)
        for _ in range(MIDPOINT_MAXITER):
            mid = 0.5 * (S + new)
            nxt = S + dt * rhs(mid, target)
            delta = np.abs(nxt - new).max()
            new = nxt
            if delta < MIDPOINT_TOL:
                break
            if not np.isfinite(delta):
                raise RuntimeError(
                    "implicit midpoint failed to converge: non-finite iterate "
                    f"(blow-up; dt = {dt} is too large)")
        else:
            raise RuntimeError(
                f"implicit midpoint failed to converge in {MIDPOINT_MAXITER} "
                f"iterations (last update {delta:.3e})")
    else:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")

    if not np.isfinite(new).all():
        raise RuntimeError(f"{scheme} step to t = {field.time + dt:.6g} gave "
                           f"non-finite values (blow-up; dt = {dt} is too large)")
    return SpinField(new, field.time + dt, target).renormalized()


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


@dataclass
class DiagnosticsRecord:
    """One record of a run; only lax.diagnose fills the last three fields."""
    time: float
    energy: float
    total_spin: np.ndarray
    defect: float
    trace_powers: dict = dc_field(default_factory=dict)
    eigenvalues: list = dc_field(default_factory=list)
    rank: int = -1


def diagnose(field):
    return DiagnosticsRecord(field.time, energy(field), total_spin(field),
                             field.defect())


def step_count(T, dt):
    """T/dt, or ValueError unless T is a whole number >= 1 of steps dt."""
    nsteps = round(T / dt)
    if nsteps < 1 or abs(T / dt - nsteps) > 1e-9 * max(1.0, abs(T / dt)):
        raise ValueError(f"T = {T} is not a positive whole number of steps "
                         f"dt = {dt}")
    return nsteps


def time_loop(field, dt, T, record_interval, advance, record):
    """Apply advance(field) T/dt times; return (final_field, records), with
    record(field) of the initial, every record_interval-th and final state."""
    nsteps = step_count(T, dt)
    records = [record(field)]
    for i in range(1, nsteps + 1):
        field = advance(field)
        if i % record_interval == 0 or i == nsteps:
            records.append(record(field))
    return field, records


def run(field, dt, T, record_interval=1, scheme="rk4", record=diagnose):
    """Integrate the flow to time T; returns (final_field, [record(field)])
    as time_loop records them (lax.diagnose adds the Lax spectrum)."""
    return time_loop(field, dt, T, record_interval,
                     lambda f: step(f, dt, scheme), record)
