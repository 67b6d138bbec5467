"""Time integration of the half-wave maps flow (both targets) and the chain.

The flow is dS/dt = S x |grad|S (sphere) or S x_eta |grad|S (hyperbolic),
applied componentwise through the |n| Fourier multiplier. Steps are taken
with classical RK4 or implicit midpoint and the target constraint is
restored exactly by pointwise renormalization after every step.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import lax, spectral
from .algebra import cross, eta_cross, eta_dot
from .fields import SPHERE, SpinField

SCHEMES = ("rk4", "midpoint")
MIDPOINT_TOL = 1e-13  # max-norm update that ends the midpoint iteration
MIDPOINT_MAXITER = 100
TOP_EIGENVALUES = 4  # largest-magnitude Lax eigenvalues kept per record


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
    included). Raises RuntimeError if the midpoint iteration stalls.
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
        else:
            raise RuntimeError(
                f"implicit midpoint failed to converge in {MIDPOINT_MAXITER} "
                f"iterations (last update {delta:.3e})")
    else:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")

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
    """One record of a run; the chain fills only the first four fields."""
    time: float
    energy: float
    total_spin: np.ndarray
    defect: float
    trace_powers: dict = dc_field(default_factory=dict)
    eigenvalues: list = dc_field(default_factory=list)
    rank: int = -1


@dataclass
class LaxDiagnostics:
    """Settings for per-record Lax spectrum monitoring."""
    M: int
    rank_tolerance: float = 1e-8


def diagnose(field, lax_diag=None):
    rec = DiagnosticsRecord(field.time, energy(field), total_spin(field),
                            field.defect())
    if lax_diag is not None:
        L = lax.build_L(field, lax_diag.M)
        rep = lax.spectrum(L, rank_tolerance=lax_diag.rank_tolerance)
        rec.trace_powers = rep.trace_powers
        rec.rank = rep.rank
        if rep.eigenvalues:
            by_mag = sorted(rep.eigenvalues, key=abs, reverse=True)
            # re-sort by value so degenerate +/- pairs keep a stable order
            rec.eigenvalues = sorted(by_mag[:TOP_EIGENVALUES])
    return rec


def step_count(T, dt):
    """T/dt, or ValueError when T is not a whole number of steps dt."""
    nsteps = round(T / dt)
    if abs(T / dt - nsteps) > 1e-9 * max(1.0, abs(T / dt)):
        raise ValueError(f"T = {T} is not a whole number of steps dt = {dt}")
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


def run(field, dt, T, record_interval=1, scheme="rk4", lax_diag=None):
    """Integrate the flow to time T; returns (final_field, [DiagnosticsRecord])
    as time_loop records them."""
    return time_loop(field, dt, T, record_interval,
                     lambda f: step(f, dt, scheme),
                     lambda f: diagnose(f, lax_diag))
