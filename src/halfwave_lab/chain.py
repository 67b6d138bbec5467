"""Classical Haldane-Shastry spin chain with 1/sin^2 long-range forces.

Sites live at x_k = 2*pi*k/N with unit spins S_k. The equations of motion

    dS_k/dt = S_k x sum_{j != k} (S_k - S_j) / sin^2((x_j - x_k)/2)

are evaluated either by the O(N^2) double loop (reference path) or in
O(N log N) via circular convolution with the fixed kernel
w_d = 1/sin^2(pi d / N), d = 1..N-1. Running the chain in rescaled time
tau = t / (2N) approximates the half-wave maps flow on the torus: the
Riemann sum of the singular-integral form of |grad| carries the factor
(1/4pi)(2pi/N) = 1/(2N). The chain state is a sphere-target SpinField,
stepped by evolution.step with the chain force as right-hand side.
"""

import numpy as np

from . import evolution
from .algebra import cross
from .fields import SpinField

CONTINUUM_RESCALE = 2.0  # chain force ~ (RESCALE * N) |grad|S

SpinChain = SpinField  # the former chain class name, kept as an alias


def inverse_sin2_kernel(N):
    """w_d = 1/sin^2(pi d/N) for d = 0..N-1 with w_0 = 0."""
    d = np.arange(N)
    w = np.zeros(N)
    w[1:] = 1.0 / np.sin(np.pi * d[1:] / N) ** 2
    return w


def chain_energy(chain):
    """H = sum_{j<k} (1 - S_j . S_k) / sin^2((x_j - x_k)/2)."""
    S = chain.values
    x = 2 * np.pi * np.arange(chain.N) / chain.N
    dx = x[:, None] - x[None, :]
    s2 = np.sin(dx / 2.0) ** 2
    np.fill_diagonal(s2, 1.0)
    dots = 1.0 - S @ S.T
    np.fill_diagonal(dots, 0.0)
    return float((dots / s2).sum() / 2.0)


def chain_rhs_direct(chain):
    """Reference O(N^2) force evaluation, one site at a time."""
    S = chain.values
    N = chain.N
    x = 2 * np.pi * np.arange(N) / N
    out = np.empty_like(S)
    for k in range(N):
        s2 = np.sin((x - x[k]) / 2.0) ** 2
        s2[k] = 1.0
        w = 1.0 / s2
        w[k] = 0.0
        force = S[k] * w.sum() - w @ S
        out[k] = np.cross(S[k], force)
    return out


def chain_rhs_fft(chain):
    """Same force as :func:`chain_rhs_direct` via circular convolution.

    sum_j S_j w_{k-j} is a circular convolution per component; the
    self-interaction term only needs the precomputed kernel sum.
    """
    S = chain.values
    N = chain.N
    w = inverse_sin2_kernel(N)
    what = np.fft.fft(w)
    conv = np.fft.ifft(np.fft.fft(S, axis=0) * what[:, None], axis=0).real
    force = S * w.sum() - conv
    return cross(S, force)


def chain_step(chain, dt, scheme="rk4", rhs=chain_rhs_fft):
    """One RK4 or implicit-midpoint step of the chain force, renormalized."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    return evolution.step(chain, dt, scheme,
                          rhs=lambda values, target: rhs(SpinField(values)))


def chain_diagnose(chain):
    return evolution.DiagnosticsRecord(chain.time, chain_energy(chain),
                                       chain.values.sum(axis=0), chain.defect())


def chain_run(chain, dt, T, record_interval=1, scheme="rk4", rhs=chain_rhs_fft):
    """Integrate the chain to time T; returns (final_chain, [records])."""
    return evolution.time_loop(chain, dt, T, record_interval,
                               lambda c: chain_step(c, dt, scheme, rhs),
                               chain_diagnose)


def continuum_compare(initial_field_fn, exact_field_fn, N_list, T):
    """Chain-vs-PDE continuum-limit error table.

    For each N: sample the initial field on the lattice, integrate the
    chain to tau = T / (2N), and report the max-norm deviation from the
    exact PDE solution at time T. initial_field_fn(N) and
    exact_field_fn(N, T) must return (N, 3) sample arrays.

    Returns a list of (N, error) rows.
    """
    rows = []
    for N in N_list:
        chain = SpinField(initial_field_fn(N))
        tau_end = T / (CONTINUUM_RESCALE * N)
        # explicit RK4 stability: the chain force spectrum grows like N^2
        dt = 0.5 / N ** 2
        nsteps = max(int(np.ceil(tau_end / dt)), 1)
        dt = tau_end / nsteps
        for _ in range(nsteps):
            chain = chain_step(chain, dt)
        err = float(np.abs(chain.values - exact_field_fn(N, T)).max())
        rows.append((N, err))
    return rows


def rescale_ratio(field_values, pde_rhs_values):
    """Fitted ratio |chain force| / (2N |PDE rhs|) on a sampled field.

    Pins the continuum time rescaling numerically: the ratio tends to 1
    as N grows.
    """
    chain = SpinField(field_values)
    chain_rhs = chain_rhs_fft(chain)
    scaled = CONTINUUM_RESCALE * chain.N * pde_rhs_values
    num = float(np.sqrt((chain_rhs ** 2).sum()))
    den = float(np.sqrt((scaled ** 2).sum()))
    return num / den
