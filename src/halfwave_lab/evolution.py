"""Time integration of the half-wave maps flow (both targets) and the chain.

The flow is dS/dt = S x |grad|S (sphere) or S x_eta |grad|S (hyperbolic),
applied componentwise through the |n| Fourier multiplier. The rhs protocol
of step and run: rhs(Y, target, out) writes dS/dt of the (3, N) samples Y
into out (apart from Y); on (N, 3) values call rhs(values.T).T.
"""

import math
import numbers

import numpy as np

from . import spectral
from .fields import SPHERE, SpinField, project

# scheme -> (its dt limit, the largest dt times the largest symbol of the
# linearized flow that config accepts; what bounds it): RK4 is stable on the
# imaginary axis up to |dt * lambda| = 2 sqrt(2), and the midpoint iteration
# failed from 1.51 up (README, "Midpoint dt rule")
SCHEMES = {"rk4": (2.0 * math.sqrt(2.0), "stability"),
           "midpoint": (1.4, "convergence")}
ETA = np.array([-1.0, 1.0, 1.0])  # Minkowski metric diag(-1, 1, 1) of H^2
# max-norm update, relative to max(1, max_k |S_k|) of the step's start, that
# ends the midpoint iteration
MIDPOINT_TOL = 1e-13
MIDPOINT_MAXITER = 100
# Largest defect (fields.SpinField.defect) a step may leave before its
# projection back onto the target. rk4 steps inside the stability limit
# leave up to 0.1 on random unit fields, for the flow and the chain alike;
# a step past it leaves 5 at dt = 1 and 1e40 at dt = 1e3 on a smooth field.
BLOWUP_DEFECT = 0.5


class Flow:
    """The rhs S x A S (S x_eta A S on H^2), A the Fourier multiplier
    symbol(N) on the real-transform modes 0..N//2; buffered(N) is it on
    (3, N) arrays with its symbol built and its transform buffers made once."""

    def __init__(self, symbol):
        self.symbol = symbol

    def __call__(self, Y, target=SPHERE, out=None):  # out None: a new array
        return self.buffered(Y.shape[-1])(Y, target, out)

    def buffered(self, N):
        # numpy's pocketfft gufuncs, called as np.fft.rfft and irfft call them
        # (factor 1 forward, 1/N back: the same bits) without their 2-3 us of
        # argument handling a call; np.fft loads here, not at import
        pocketfft = np.fft._pocketfft_umath
        rfft = pocketfft.rfft_n_even if N % 2 == 0 else pocketfft.rfft_n_odd
        irfft, scale = pocketfft.irfft, 1.0 / N
        symbol = self.symbol(N).astype(complex)  # as multiply casts it
        modes = np.empty((3, N // 2 + 1), complex)
        # S and AS hold the rows 0, 1, 2, 0, 1, so the rows (i + 1, i + 2)
        # mod 3 are the slices 1:4 and 2:5: row i of S x AS is
        # S_(i+1) AS_(i+2) - S_(i+2) AS_(i+1), rounded as np.cross rounds it,
        # with the first product made in out (one temporary fewer)
        S, AS = np.empty((2, 5, N))

        def rhs(Y, target, out=None):
            np.multiply(rfft(Y, 1, out=modes), symbol, out=modes)
            irfft(modes, scale, out=AS[:3])
            S[:3], S[3:], AS[3:] = Y, Y[:2], AS[:2]
            out = np.multiply(S[1:4], AS[2:5], out=out)
            np.subtract(out, S[2:5] * AS[1:4], out=out)
            if target != SPHERE:  # eta: the sign of row 0
                np.negative(out[0], out=out[0])
            return out
        return rhs


rhs = Flow(spectral.halfwave_symbol)  # dS/dt of the half-wave maps flow


def step(field, dt, scheme="rk4", rhs=rhs):
    """One step of :func:`run`, with no record (midpoint: Euler-predicted)."""
    return run(field, dt, dt, 1, scheme, lambda f: None, rhs)[0]


def energy(field):
    """E = (1/2) Integral S . |grad|S dx (eta inner product on H^2 target)."""
    grad = spectral.halfwave_op(field.values.T).T
    metric = 1.0 if field.target == SPHERE else ETA  # 1.0 * x is x: exact
    dens = (metric * field.values * grad).sum(axis=1)
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
    ratio = T / dt if dt != 0 else np.inf
    nsteps = round(ratio) if np.isfinite(ratio) else 0
    if nsteps < 1 or abs(ratio - nsteps) > 1e-9 * max(1.0, abs(ratio)):
        raise ValueError(f"T = {T} is not a positive whole number of steps "
                         f"dt = {dt}")
    return nsteps


def run(field, dt, T, record_interval=1, scheme="rk4", record=diagnose,
        rhs=rhs):
    """Step dS/dt = rhs(S, target) T/dt times, each step renormalized onto
    the target; return (final_field, records), with the row record(field) of
    the initial, every record_interval-th and final state (lax.diagnose adds
    the Lax columns; the chain passes chain.chain_rhs and chain_diagnose).

    Schemes: "rk4" (default) or "midpoint" (implicit midpoint, fixed-point
    iteration until the update is below MIDPOINT_TOL max(1, max_k |S_k|);
    it keeps every quadratic invariant, the chain energy too).
    ValueError, before any record or rhs call: record_interval is not an
    integer >= 1, T is not a whole number >= 1 of steps dt (dt = 0 included)
    or scheme is not in SCHEMES.
    RuntimeError: a midpoint iteration stalls or meets a non-finite iterate,
    or a new state is not finite, off the H^2 sheet or more than
    BLOWUP_DEFECT off its target before the projection.

    From the fourth midpoint step on, the iteration starts from the
    quadratic extrapolation S + 3(D1 - D2) + D3 of the last three accepted
    increments (D1 the newest), within O(dt^4) of the new state, in place
    of the Euler predictor of the first three steps (Hairer, Lubich &
    Wanner, Geometric Numerical Integration, Sect. VIII.6). The fixed point
    and the stopping rule are those of `step`, so the result agrees with
    stepping by `step` alone to the iteration tolerance.
    """
    if not isinstance(record_interval, numbers.Integral) or record_interval < 1:
        raise ValueError("record_interval must be an integer >= 1, got "
                         f"{record_interval!r}")
    nsteps = step_count(T, dt)
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {tuple(SCHEMES)}")
    target, t, Y = field.target, field.time, field.values.T.copy()  # (3, N)
    rows = [record(field)]
    rhs = rhs.buffered(Y.shape[1]) if isinstance(rhs, Flow) else rhs
    a, b, s = np.empty((3,) + Y.shape)
    increments = []  # the last three midpoint S_(k+1) - S_k, oldest first
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, nsteps + 1):
            if scheme == "rk4":  # a accumulates k1 + 2 k2 + 2 k3 + k4
                rhs(Y, target, a)
                # k: the last stage; w: the new stage's weight, None for
                # k4's 1 (b is added as it is)
                for k, c, w in ((a, 0.5 * dt, 2.0), (b, 0.5 * dt, 2.0),
                                (b, dt, None)):
                    np.add(Y, np.multiply(k, c, out=s), out=s)
                    rhs(s, target, b)
                    np.add(a, b if w is None else np.multiply(b, w, out=s),
                           out=a)
                np.add(Y, np.multiply(a, dt / 6.0, out=a), out=a)
            else:  # a holds the iterate, from S + 3(D1 - D2) + D3 or Euler
                if len(increments) == 3:
                    d3, d2, d1 = increments
                    np.multiply(np.subtract(d1, d2, out=a), 3.0, out=a)
                    np.add(np.add(Y, a, out=a), d3, out=a)
                else:
                    rhs(Y, target, b)
                    np.add(Y, np.multiply(b, dt, out=a), out=a)
                size = np.sqrt(np.multiply(Y, Y, out=s).sum(axis=0).max())
                tol = MIDPOINT_TOL * max(1.0, size)
                for _ in range(MIDPOINT_MAXITER):
                    np.multiply(np.add(Y, a, out=s), 0.5, out=s)
                    rhs(s, target, b)
                    np.add(Y, np.multiply(b, dt, out=b), out=b)
                    delta = np.abs(np.subtract(b, a, out=s), out=s).max()
                    a, b = b, a
                    if delta < tol:
                        break
                    if not np.isfinite(delta):
                        raise RuntimeError(
                            "implicit midpoint failed to converge: non-finite "
                            f"iterate (blow-up; dt = {dt} is too large)")
                else:
                    raise RuntimeError("implicit midpoint failed to converge "
                                       f"in {MIDPOINT_MAXITER} iterations "
                                       f"(last update {delta:.3e})")
            try:  # a non-finite sample fails the bound (or the H^2 sheet) too
                project(a, target, BLOWUP_DEFECT, out=a)
            except ValueError as exc:
                what = (" gave non-finite values" if not np.isfinite(a).all()
                        else f": {exc}")
                raise RuntimeError(f"{scheme} step to t = {t + dt:.6g}{what} "
                                   f"(blow-up; dt = {dt} is too large)") from None
            if scheme == "midpoint":  # reuse the oldest of three
                d = increments.pop(0) if len(increments) == 3 else Y.copy()
                increments.append(np.subtract(a, Y, out=d))
            Y, a, t = a, Y, t + dt
            if i % record_interval == 0 or i == nsteps:
                field = SpinField(Y.T.copy(), t, target)  # C order (N, 3)
                rows.append(record(field))
    return field, rows
