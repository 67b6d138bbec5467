"""Classical Haldane-Shastry spin chain with 1/sin^2 long-range forces.

Sites live at x_k = 2*pi*k/N with unit spins S_k. The equations of motion

    dS_k/dt = S_k x sum_{j != k} (S_k - S_j) / sin^2((x_j - x_k)/2)

are evaluated in O(N log N) as S x A S: since
sum_d sin^2(pi d n/N) / sin^2(pi d/N) = n(N - n), the coupling is the Fourier
multiplier A with symbol 2|n|(N - |n|). As A/(2N) = |n| - n^2/N, the chain in
rescaled time tau = t / (2N) approximates the half-wave maps flow on the
torus (force ratio 1 - 1/N to 2N |grad| at bandwidth 1; the O(N^2) loop and
this ratio are test oracles, in tests/oracles.py). The chain state is a
sphere-target SpinField, stepped by evolution.step and evolution.run with
rhs=chain_rhs, an evolution.Flow on (3, N) spins.
"""

import numpy as np

from . import evolution
from .fields import SpinField, tilted_circle

CONTINUUM_RESCALE = 2.0  # chain force ~ (RESCALE * N) |grad|S

# the former chain class name; kept only because perfbench reaches it (the
# N sweep builds its chain with it, the tracer wraps its renormalized)
SpinChain = SpinField


def chain_symbol(N):
    """2|n|(N - |n|), the symbol of A on the real-transform modes 0..N//2."""
    n = np.arange(N // 2 + 1)  # n(N - n) = |n|(N - |n|), for even and odd N
    return 2.0 * n * (N - n)


def chain_op(values):
    """A, the multiplier :func:`chain_symbol`, on the sites of (N, 3) values."""
    N = values.shape[0]
    return np.fft.irfft(np.fft.rfft(values, axis=0) * chain_symbol(N)[:, None],
                        n=N, axis=0)


def chain_energy(chain):
    """H = sum_{j<k} (1 - S_j . S_k) / sin^2((x_j - x_k)/2).

    For unit spins H = (1/2) sum_k S_k . (A S)_k with A = :func:`chain_op`.
    """
    S = chain.values
    return float(0.5 * (S * chain_op(S)).sum())


# the chain force S x A S on (3, N) spins, A = chain_op, for evolution.run
chain_rhs = evolution.Flow(chain_symbol)


def chain_rhs_fft(chain):
    """:func:`chain_rhs` of a field's (N, 3) spins. Kept only because
    perfbench's N sweep times it by this name."""
    return chain_rhs(chain.values.T).T


def chain_diagnose(chain):
    """evolution.diagnose's row with H_classical and the plain spin sum."""
    sx, sy, sz = map(float, chain.values.sum(axis=0))
    return {"t": chain.time, "H_classical": chain_energy(chain), "sx": sx,
            "sy": sy, "sz": sz, "defect": chain.defect()}


def continuum_compare(a, c, N_list, T):
    """Chain-vs-PDE continuum-limit error table for the tilted circle (a, c).

    For each N: sample the circle on the lattice, integrate the chain to
    tau = T / (2N), and report the max-norm deviation from the exact PDE
    solution tilted_circle(N, a, c, T).

    Returns a list of (N, error) rows.
    """
    rows = []
    for N in N_list:
        tau_end = T / (CONTINUUM_RESCALE * N)
        # explicit RK4 stability: the chain force spectrum grows like N^2
        dt = 0.5 / N ** 2
        nsteps = max(int(np.ceil(tau_end / dt)), 1)
        chain, _ = evolution.run(tilted_circle(N, a, c), tau_end / nsteps,
                                 tau_end, nsteps, record=chain_diagnose,
                                 rhs=chain_rhs)
        err = float(np.abs(chain.values - tilted_circle(N, a, c, T).values).max())
        rows.append((N, err))
    return rows
