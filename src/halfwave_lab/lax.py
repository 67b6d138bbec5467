"""Finite Fourier truncations of the Lax pair L = [H, mu_S] and its partner B.

Basis: Fourier modes -M..M ascending, spinor index fastest, so row
2*(m+M) + s corresponds to mode m, spinor component s. With the Hilbert
symbol -i*sgn(n), the blocks are

    L(m, n) = -i (sgn m - sgn n) * map(S_hat(m - n))
    B(m, n) = -(i/2) (|m| + |n| - |m - n|) * map(S_hat(m - n))

where map is the Pauli map (sphere target) or su(1,1) map (hyperbolic
target) applied to the componentwise Fourier coefficient vector. The L
factor vanishes unless m and n straddle the mode-sign boundary, which is
the Hankel structure that makes L finite rank on rational fields.
"""

import itertools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import evolution, spectral
from .fields import SPHERE, HYPERBOLIC, bandwidth_of

TRACE_POWERS = 4  # Tr|L|^p (sphere) or Tr(L^p) (hyperbolic), p = 1..TRACE_POWERS
TOP_EIGENVALUES = 4  # largest-magnitude Lax eigenvalues kept per record
TRACE_IMAG_TOL = 1e-12  # relative imaginary part allowed in an H^2 Tr(L^k)


def pauli_map(a):
    """Map a 3-vector to its Pauli-matrix image.

        [[a3, a1 - i a2],
         [a1 + i a2, -a3]]

    Hermitian and traceless for real a; squares to the identity exactly
    when |a| = 1. Linear, so it maps complex coefficient vectors too.
    """
    a1, a2, a3 = np.asarray(a)
    return np.array([[a3, a1 - 1j * a2],
                     [a1 + 1j * a2, -a3]], dtype=complex)


def su11_map(a):
    """Map a 3-vector to its su(1,1) image (Minkowski metric diag(-1, 1, 1)).

        [[i a1, a2 + i a3],
         [a2 - i a3, -i a1]]

    Squares to minus the identity exactly when a .eta. a = -1.
    """
    a1, a2, a3 = np.asarray(a)
    return np.array([[1j * a1, a2 + 1j * a3],
                     [a2 - 1j * a3, -1j * a1]], dtype=complex)


def _coeff_blocks(values, target, M):
    """2x2 matrix images of the coefficient vectors S_hat(p), p = -2M..2M."""
    N = values.shape[0]
    if M > N // 2 - 1:
        raise ValueError(f"truncation M={M} too large for grid N={N}")
    coeffs = spectral.fft(values.T)  # (3, N), fft order
    p = np.arange(-2 * M, 2 * M + 1)
    mapf = pauli_map if target == SPHERE else su11_map
    blocks = mapf(coeffs[:, p % N])  # (2, 2, 4M+1)
    blocks[..., np.abs(p) > N // 2 - 1] = 0.0  # aliased modes
    return np.moveaxis(blocks, -1, 0)


def _assemble(values, target, M, factor):
    """Block matrix with block (m, n) = factor(m, n) * map(S_hat(m - n))."""
    K = 2 * M + 1
    m = np.arange(-M, M + 1)
    fac = factor(m[:, None], m[None, :])
    # reversed, the blocks run p = 2M..-2M, and their window M - m holds
    # p = m - n for n = -M..M: block row m (a (K, 2, 2, K) view)
    window = sliding_window_view(_coeff_blocks(values, target, M)[::-1], K,
                                 axis=0)[::-1]
    full = np.multiply(fac[:, None, :, None], window.transpose(0, 1, 3, 2),
                       out=np.empty((K, 2, K, 2), complex))
    return full.reshape(2 * K, 2 * K)


def _L_factor(m, n):
    return -1j * (np.sign(m) - np.sign(n))


def _B_factor(m, n):
    return -0.5j * (np.abs(m) + np.abs(n) - np.abs(m - n))


def build_L(field, M):
    """Entries of the truncated Lax operator [H, mu_S], a complex
    (2(2M+1), 2(2M+1)) array; Hermitian for the sphere target."""
    return _assemble(field.values, field.target, M, _L_factor)


def build_B(field, M):
    """Entries of the truncated partner operator; anti-Hermitian for the
    sphere target."""
    return _assemble(field.values, field.target, M, _B_factor)


def lax_residual(field, M):
    """Max-magnitude entry of dL/dt - [B, L] over the central mode block.

    dL/dt is assembled analytically as [H, mu_{dS/dt}] with dS/dt from the
    evolution equation, so no time-stepping error enters. For the
    hyperbolic target the Lax equation carries a factor i. Commutators
    widen bandwidth by the field's bandwidth b (bandwidth_of), so only the
    block |m|, |n| <= M - b is exact under truncation and the residual is
    measured there.
    """
    bandwidth = bandwidth_of(field.values)
    if bandwidth > M // 2:
        raise ValueError(
            f"field bandwidth {bandwidth} too large for truncation M={M}")
    L = build_L(field, M)
    B = build_B(field, M)
    dL = _assemble(evolution.rhs(field.values.T, field.target).T,
                   field.target, M, _L_factor)

    modes = np.arange(-M, M + 1)
    keep = np.repeat(np.abs(modes) <= M - bandwidth, 2)
    comm = B[keep] @ L[:, keep] - L[keep] @ B[:, keep]
    if field.target == HYPERBOLIC:
        comm = 1j * comm
    return float(np.abs(dL[np.ix_(keep, keep)] - comm).max())


@dataclass
class SpectrumReport:
    eigenvalues: list          # sorted ascending; empty for hyperbolic target
    singular_values: list      # sorted descending
    rank: int
    trace_powers: dict         # {"1": Tr|L|^1, ...}; complex Tr(L^k) as [re, im]
    truncation: int


def spectrum(L, target, rank_tolerance=1e-8):
    """Spectral diagnostics of a Lax matrix L = build_L(f, M), f on `target`.

    Sphere-target L is Hermitian: one eigendecomposition gives the real
    eigenvalues, the singular values |eigenvalues| and Tr(|L|^p).
    Hyperbolic-target L is non-normal: its singular values come from an
    SVD and the conserved quantities reported are Tr(L^k). Both report
    the powers 1..TRACE_POWERS.
    """
    if not (0.0 < rank_tolerance < 1.0):
        raise ValueError("rank_tolerance must lie in (0, 1)")
    powers = range(1, TRACE_POWERS + 1)
    try:
        if target == SPHERE:
            eigs = np.linalg.eigvalsh(L)  # ascending
            sv = np.sort(np.abs(eigs))[::-1]
            trace_powers = {str(p): float((sv ** p).sum()) for p in powers}
        else:
            eigs = np.array([])
            sv = np.linalg.svd(L, compute_uv=False)  # descending
            Lk = itertools.accumulate(itertools.repeat(L), np.matmul)  # L^k
            trace_powers = {str(k): [t.real, t.imag] for k, t in
                            zip(powers, map(complex, map(np.trace, Lk)))}
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise RuntimeError(f"Lax spectrum decomposition failed: {exc}")
    top = sv[0] if sv.size else 0.0
    rank = int((sv > rank_tolerance * top).sum()) if top > 0 else 0
    return SpectrumReport(list(map(float, eigs)), list(map(float, sv)),
                          rank, trace_powers, (L.shape[0] - 2) // 4)


def diagnose(field, M, rank_tolerance=1e-8):
    """:func:`evolution.diagnose` with trL1..trL4, rank and lam1..lam4 (the
    largest-magnitude eigenvalues on S^2, padded by 0.0) of the Lax spectrum
    of build_L(field, M) before defect. An H^2 Tr(L^k) must be real to
    TRACE_IMAG_TOL (1 + |re|), or a RuntimeError is raised."""
    row = evolution.diagnose(field)
    defect = row.pop("defect")
    rep = spectrum(build_L(field, M), field.target, rank_tolerance)
    for k, power in rep.trace_powers.items():
        re, im = (power, 0.0) if field.target == SPHERE else power
        if abs(im) > TRACE_IMAG_TOL * (1.0 + abs(re)):
            raise RuntimeError(
                f"Tr(L^{k}) at t = {field.time:.6g} has imaginary part "
                f"{im:.3e} (real part {re:.6g}); the Lax matrix is not "
                "the real one of an H^2 field")
        row[f"trL{k}"] = re
    row["rank"] = rep.rank
    by_mag = sorted(rep.eigenvalues, key=abs, reverse=True)[:TOP_EIGENVALUES]
    # re-sort by value so degenerate +/- pairs keep a stable order
    lams = sorted(by_mag) + [0.0] * (TOP_EIGENVALUES - len(by_mag))
    row.update({f"lam{i}": lam for i, lam in enumerate(lams, 1)}, defect=defect)
    return row
