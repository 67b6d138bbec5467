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

import json
from dataclasses import dataclass, asdict

import numpy as np

from . import spectral
from .algebra import pauli_map, su11_map
from .fields import SPHERE, HYPERBOLIC, bandwidth_of

TRACE_POWERS = 4  # sphere target: Tr|L|^p for p = 1..TRACE_POWERS


@dataclass
class LaxMatrix:
    entries: np.ndarray  # (2*(2M+1), 2*(2M+1)) complex
    truncation: int
    target: str
    kind: str  # "L" or "B"

    @property
    def dim(self):
        return self.entries.shape[0]


def _coeff_blocks(values, target, M):
    """2x2 matrix images of the coefficient vectors S_hat(p), p = -2M..2M."""
    N = values.shape[0]
    if M > N // 2 - 1:
        raise ValueError(f"truncation M={M} too large for grid N={N}")
    coeffs = spectral.fft(values.T)  # (3, N), fft order
    mapf = pauli_map if target == SPHERE else su11_map
    blocks = np.zeros((4 * M + 1, 2, 2), dtype=complex)
    for i, p in enumerate(range(-2 * M, 2 * M + 1)):
        if abs(p) <= N // 2 - 1:
            blocks[i] = mapf(coeffs[:, p % N])
    return blocks


def _assemble(values, target, M, factor):
    """Block matrix with block (m, n) = factor(m, n) * map(S_hat(m - n))."""
    blocks = _coeff_blocks(values, target, M)
    m = np.arange(-M, M + 1)
    fac = factor(m[:, None], m[None, :])
    pidx = (m[:, None] - m[None, :]) + 2 * M
    full = fac[:, :, None, None] * blocks[pidx]
    dim = 2 * (2 * M + 1)
    return full.transpose(0, 2, 1, 3).reshape(dim, dim)


def _L_factor(m, n):
    return -1j * (np.sign(m) - np.sign(n))


def _B_factor(m, n):
    return -0.5j * (np.abs(m) + np.abs(n) - np.abs(m - n))


def build_L(field, M):
    """Truncated Lax operator [H, mu_S]; Hermitian for the sphere target."""
    return LaxMatrix(_assemble(field.values, field.target, M, _L_factor),
                     M, field.target, "L")


def build_B(field, M):
    """Truncated partner operator; anti-Hermitian for the sphere target."""
    return LaxMatrix(_assemble(field.values, field.target, M, _B_factor),
                     M, field.target, "B")


def lax_residual(field, M, bandwidth=None):
    """Max-magnitude entry of dL/dt - [B, L] over the central mode block.

    dL/dt is assembled analytically as [H, mu_{dS/dt}] with dS/dt from the
    evolution equation, so no time-stepping error enters. For the
    hyperbolic target the Lax equation carries a factor i. Commutators
    widen bandwidth by b, so only the block |m|, |n| <= M - b is exact
    under truncation and the residual is measured there.
    """
    if bandwidth is None:
        bandwidth = bandwidth_of(field.values)
    if bandwidth > M // 2:
        raise ValueError(
            f"field bandwidth {bandwidth} too large for truncation M={M}")
    L = build_L(field, M).entries
    B = build_B(field, M).entries

    from .evolution import rhs  # evolution imports this module
    dL = _assemble(rhs(field.values, field.target), field.target, M, _L_factor)

    comm = B @ L - L @ B
    if field.target == HYPERBOLIC:
        comm = 1j * comm
    resid = dL - comm

    modes = np.arange(-M, M + 1)
    keep = np.abs(modes) <= M - bandwidth
    mask = np.repeat(keep, 2)
    return float(np.abs(resid[np.ix_(mask, mask)]).max())


@dataclass
class SpectrumReport:
    eigenvalues: list          # sorted ascending; empty for hyperbolic target
    singular_values: list      # sorted descending
    rank: int
    trace_powers: dict         # {"1": Tr|L|^1, ...}; complex Tr(L^k) as [re, im]
    truncation: int

    def to_json(self):
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        data["trace_powers"] = {str(k): v for k, v in data["trace_powers"].items()}
        return cls(**data)


def spectrum(lm, rank_tolerance=1e-8, K=6):
    """Spectral diagnostics of a Lax matrix.

    Sphere-target L is Hermitian: real eigenvalues and Tr(|L|^p) from
    singular values. Hyperbolic-target matrices are non-normal, so the
    conserved quantities reported are the trace powers Tr(L^k), k <= K.
    """
    if not (0.0 < rank_tolerance < 1.0):
        raise ValueError("rank_tolerance must lie in (0, 1)")
    A = lm.entries
    try:
        sv = np.linalg.svd(A, compute_uv=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise RuntimeError(f"singular value decomposition failed: {exc}")
    sv = np.sort(sv)[::-1]
    top = sv[0] if sv.size else 0.0
    rank = int((sv > rank_tolerance * top).sum()) if top > 0 else 0

    trace_powers = {}
    if lm.target == SPHERE:
        if lm.kind == "L":
            try:
                eigs = np.sort(np.linalg.eigvalsh(A))
            except np.linalg.LinAlgError as exc:  # pragma: no cover
                raise RuntimeError(f"eigendecomposition failed: {exc}")
        else:
            eigs = np.array([])
        for p in range(1, TRACE_POWERS + 1):
            trace_powers[str(p)] = float((sv ** p).sum())
        return SpectrumReport(list(map(float, eigs)), list(map(float, sv)),
                              rank, trace_powers, lm.truncation)

    Ak = np.eye(lm.dim, dtype=complex)
    for k in range(1, K + 1):
        Ak = Ak @ A
        t = complex(np.trace(Ak))
        trace_powers[str(k)] = [t.real, t.imag]
    return SpectrumReport([], list(map(float, sv)), rank, trace_powers,
                          lm.truncation)


def kernel_trace_oracle(field):
    """Tr(|L_S|^2) by direct double quadrature of the commutator kernel.

    With the Hilbert symbol -i*sgn(n), L has kernel
    (1/2pi) cot((x-y)/2) (S(x)-S(y)).sigma, so

        Tr(|L|^2) = (1/2pi^2) Integral |S(x)-S(y)|^2 cot^2((x-y)/2) dx dy.

    The integrand has a removable diagonal singularity with limit
    4|S'(x)|^2; the derivative is taken by finite differences to keep this
    path independent of the Fourier machinery.
    """
    S = field.values
    N = field.N
    h = 2.0 * np.pi / N
    x = spectral.grid(N)
    dx = x[:, None] - x[None, :]
    sin2 = np.sin(dx / 2.0)
    np.fill_diagonal(sin2, 1.0)
    cot2 = (np.cos(dx / 2.0) / sin2) ** 2
    dS2 = ((S[:, None, :] - S[None, :, :]) ** 2).sum(axis=-1)
    G = dS2 * cot2
    Sp = spectral.fd_deriv(S)
    np.fill_diagonal(G, 4.0 * (Sp ** 2).sum(axis=-1))
    return float(G.sum() * h * h / (2.0 * np.pi ** 2))


def trace_sq_closed_form(field, energy):
    """Closed form for Tr(|L_S|^2) under the -i*sgn(n) symbol convention:

        (8/pi) E[S] + (1/pi^2) |Integral S dx|^2 - 4.

    The constants were locked in by matching :func:`kernel_trace_oracle`
    on constant, great-circle, and tilted-circle fields.
    """
    total = field.values.sum(axis=0) * (2.0 * np.pi / field.N)
    return (8.0 / np.pi) * energy + float(total @ total) / np.pi ** 2 - 4.0
