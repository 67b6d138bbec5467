"""Blaschke-product traveling-wave profiles on the real line.

A profile of degree m with velocity |v| < 1 is

    Q_v(x) = (alpha_v Re B(x), alpha_v Im B(x), v),  alpha_v = sqrt(1 - v^2),

with B(z) = prod (z - z_k)/(z - conj(z_k)) a finite Blaschke product whose
zeros lie in the upper half-plane. B is unimodular on the real line, its
energy is quantized as (1 - v^2) pi m, and the degree-1 profile has an
explicit rank-4 Lax matrix with spectrum {-2 alpha_v, 0, 0, +2 alpha_v}.
The real-line quadratures that check the energy and the traveling-wave
residual are test oracles, in tests/oracles.py.

Real-line Hilbert convention: (Hf)(x) = (1/pi) p.v. Integral f(y)/(x-y) dy.
Boundary values of functions analytic and decaying in the upper half-plane
satisfy H f = -i f, which gives |grad| B = -i B' in closed form for every
Blaschke product; the degree-1 case reduces to the classical partial
fractions H[1/(1+x^2)] = x/(1+x^2), H[x/(1+x^2)] = -1/(1+x^2).
"""

from dataclasses import dataclass, field

import numpy as np

from .algebra import cross


@dataclass
class BlaschkeProfile:
    velocity: float
    zeros: tuple = ()
    alpha: float = field(init=False)

    def __post_init__(self):
        if not abs(self.velocity) < 1.0:  # a NaN fails it too
            raise ValueError(
                f"|v| < 1 required for a non-trivial profile, got v={self.velocity}")
        self.zeros = tuple(complex(z) for z in self.zeros)
        if not all(z.imag > 0 for z in self.zeros):
            raise ValueError("all Blaschke zeros must have positive imaginary part")
        if not np.isfinite(self.zeros).all():
            raise ValueError(f"Blaschke zeros must be finite, got {self.zeros}")
        self.alpha = float(np.sqrt(1.0 - self.velocity ** 2))

    @property
    def degree(self):
        return len(self.zeros)


def blaschke_eval(profile, x):
    """B(x) = prod (x - z_k)/(x - conj(z_k)); unimodular for real x."""
    x = np.asarray(x, dtype=complex)
    out = np.ones_like(x)
    for z in profile.zeros:
        out *= (x - z) / (x - np.conj(z))
    return out


def profile_eval(profile, x):
    """Q_v(x) as an (..., 3) array of unit vectors; third component = v."""
    B = blaschke_eval(profile, x)
    return np.stack([profile.alpha * B.real, profile.alpha * B.imag,
                     np.broadcast_to(profile.velocity, B.shape)], axis=-1)


def profile_deriv(profile, x):
    """Q_v'(x), with B' by logarithmic differentiation of the product."""
    x = np.asarray(x, dtype=complex)
    logd = np.zeros_like(x)
    for z in profile.zeros:
        logd += 1.0 / (x - z) - 1.0 / (x - np.conj(z))
    Bp = blaschke_eval(profile, x) * logd
    return np.stack([profile.alpha * Bp.real, profile.alpha * Bp.imag,
                     np.zeros_like(Bp.real)], axis=-1)


def profile_energy(profile):
    """Quantized energy (1 - v^2) * pi * m."""
    return (1.0 - profile.velocity ** 2) * np.pi * profile.degree


def profile_residual(profile, x):
    """Max norm of Q x |grad|Q - v Q' over the sample points, with the
    closed form |grad|B = -i B': |grad|Q is Q' turned a quarter turn in its
    first two components. Identically zero (to rounding) on the Blaschke
    family; the quadrature residual in tests/oracles.py covers fields off it.
    """
    x = np.asarray(x, dtype=float)
    Q = profile_eval(profile, x)
    Qp = profile_deriv(profile, x)
    gQ = np.stack([Qp[..., 1], -Qp[..., 0], Qp[..., 2]], axis=-1)
    resid = cross(Q.T, gQ.T).T - profile.velocity * Qp
    return float(np.abs(resid).max())


RANK4_CORE = np.array([
    [0, 0, 1j, 1],
    [0, 0, 1, -1j],
    [-1j, 1, 0, 0],
    [1, 1j, 0, 0],
], dtype=complex)


def rank_four_lax(v):
    """The 4x4 Lax matrix of the degree-1 profile: alpha_v times a fixed
    Hermitian core; spectrum {-2 alpha_v, 0, 0, +2 alpha_v}, squared
    Hilbert-Schmidt norm 8 alpha_v^2. Basis: (phi, 0), (psi, 0), (0, phi),
    (0, psi) with phi = sqrt(2/pi)/(1+x^2), psi = sqrt(1/2pi) 2x/(1+x^2)."""
    if not abs(v) < 1.0:  # a NaN fails it too
        raise ValueError("|v| < 1 required")
    alpha = np.sqrt(1.0 - v * v)
    return alpha * RANK4_CORE
