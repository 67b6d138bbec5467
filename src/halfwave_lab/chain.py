"""Classical Haldane-Shastry spin chain with 1/sin^2 long-range forces.

Sites live at x_k = 2*pi*k/N with unit spins S_k. The equations of motion

    dS_k/dt = S_k x sum_{j != k} (S_k - S_j) / sin^2((x_j - x_k)/2)

are evaluated either by the O(N^2) double loop (reference path) or in
O(N log N) as S x A S: since sum_d sin^2(pi d n/N) / sin^2(pi d/N) = n(N - n),
the coupling is the Fourier multiplier A with symbol 2|n|(N - |n|). As
A/(2N) = |n| - n^2/N, the chain in rescaled time tau = t / (2N) approximates
the half-wave maps flow on the torus, and rescale_ratio is 1 - 1/N at
bandwidth 1. The chain state is a sphere-target SpinField, stepped by
evolution.step with the chain force as right-hand side.
"""

import numpy as np

from . import evolution
from .algebra import cross
from .fields import SpinField, tilted_circle

CONTINUUM_RESCALE = 2.0  # chain force ~ (RESCALE * N) |grad|S

SpinChain = SpinField  # the former chain class name, kept as an alias


def chain_op(values):
    """A: the multiplier 2|n|(N - |n|) along the site axis of a real (N, 3)
    array, applied with the real transform on the modes 0..N//2."""
    N = values.shape[0]
    n = np.arange(N // 2 + 1)  # n(N - n) = |n|(N - |n|), for even and odd N
    symbol = 2.0 * n * (N - n)
    return np.fft.irfft(np.fft.rfft(values, axis=0) * symbol[:, None], n=N, axis=0)


def chain_energy(chain):
    """H = sum_{j<k} (1 - S_j . S_k) / sin^2((x_j - x_k)/2).

    For unit spins H = (1/2) sum_k S_k . (A S)_k with A = :func:`chain_op`.
    """
    S = chain.values
    return float(0.5 * (S * chain_op(S)).sum())


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
        out[k] = cross(S[k], force)
    return out


def chain_rhs_fft(chain):
    """Same force as :func:`chain_rhs_direct`, S x A S with A = :func:`chain_op`."""
    S = chain.values
    return cross(S, chain_op(S))


def chain_step(chain, dt, scheme="rk4"):
    """One RK4 or implicit-midpoint step of the chain force, renormalized."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    return evolution.step(chain, dt, scheme,
                          rhs=lambda values, _: chain_rhs_fft(SpinField(values)))


def chain_diagnose(chain):
    return evolution.DiagnosticsRecord(chain.time, chain_energy(chain),
                                       chain.values.sum(axis=0), chain.defect())


def chain_run(chain, dt, T, record_interval=1, scheme="rk4"):
    """Integrate the chain to time T; returns (final_chain, [records])."""
    return evolution.time_loop(chain, dt, T, record_interval,
                               lambda c: chain_step(c, dt, scheme),
                               chain_diagnose)


def continuum_compare(a, c, N_list, T):
    """Chain-vs-PDE continuum-limit error table for the tilted circle (a, c).

    For each N: sample the circle on the lattice, integrate the chain to
    tau = T / (2N), and report the max-norm deviation from the exact PDE
    solution tilted_circle(N, a, c, T).

    Returns a list of (N, error) rows.
    """
    rows = []
    for N in N_list:
        chain = tilted_circle(N, a, c)
        tau_end = T / (CONTINUUM_RESCALE * N)
        # explicit RK4 stability: the chain force spectrum grows like N^2
        dt = 0.5 / N ** 2
        nsteps = max(int(np.ceil(tau_end / dt)), 1)
        dt = tau_end / nsteps
        for _ in range(nsteps):
            chain = chain_step(chain, dt)
        err = float(np.abs(chain.values - tilted_circle(N, a, c, T).values).max())
        rows.append((N, err))
    return rows


def rescale_ratio(field_values, pde_rhs_values):
    """Fitted ratio |chain force| / (2N |PDE rhs|) on a sampled field.

    Pins the continuum time rescaling numerically: the ratio is 1 - 1/N at
    bandwidth 1 and tends to 1 as N grows.
    """
    force = chain_rhs_fft(SpinField(field_values))
    scaled = CONTINUUM_RESCALE * len(field_values) * pde_rhs_values
    return float(np.linalg.norm(force) / np.linalg.norm(scaled))
