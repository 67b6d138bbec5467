"""Fourier-multiplier operators on the uniform periodic grid x_k = 2*pi*k/N.

Conventions:
  * Fourier coefficients are f_hat(n) = (1/N) sum_k f(x_k) exp(-i n x_k),
    stored in numpy fft order (modes 0, 1, ..., N/2-1, -N/2, ..., -1).
  * The Hilbert transform is the multiplier -i*sgn(n) with sgn(0) = 0,
    which makes H^2 = -1 on mean-zero functions and H |grad| = -d/dx
    exact at every retained mode.
  * |grad| is the multiplier |n|, d/dx the multiplier i*n.
"""

import numpy as np


def grid(N):
    """Sample points x_k = 2*pi*k/N."""
    _check_size(N)
    return 2.0 * np.pi * np.arange(N) / N


def _check_size(N):
    if N < 4 or N % 2 != 0:
        raise ValueError(f"grid size must be even and >= 4, got {N}")


def modes(N):
    """Integer mode numbers in fft order: 0..N/2-1, -N/2..-1."""
    return np.fft.fftfreq(N, d=1.0 / N)


def fft(f):
    """Forward transform to normalized Fourier coefficients (fft order)."""
    f = np.asarray(f)
    _check_size(f.shape[-1])
    return np.fft.fft(f, axis=-1) / f.shape[-1]


def ifft(c):
    """Inverse of :func:`fft`; returns grid samples (complex in general)."""
    c = np.asarray(c)
    _check_size(c.shape[-1])
    return np.fft.ifft(c, axis=-1) * c.shape[-1]


def _apply_multiplier(f, symbol):
    """Apply the multiplier symbol(n) of the mode numbers n along the last axis.

    Real input takes the real transform on the modes 0..N/2. At the Nyquist
    mode an odd symbol gives an imaginary coefficient that irfft drops, as
    the real part of the full complex path does.
    """
    f = np.asarray(f)
    N = f.shape[-1]
    if np.isrealobj(f):
        _check_size(N)
        return np.fft.irfft(symbol(np.arange(N // 2 + 1)) * np.fft.rfft(f),
                            n=N)
    return ifft(symbol(modes(N)) * fft(f))


def halfwave_op(f):
    """Apply |grad|, the Fourier multiplier |n|. Annihilates constants."""
    return _apply_multiplier(f, np.abs)


def hilbert(f):
    """Periodic Hilbert transform, multiplier -i*sgn(n) with sgn(0) = 0."""
    return _apply_multiplier(f, lambda n: -1j * np.sign(n))


def deriv(f):
    """Spectral derivative d/dx, multiplier i*n."""
    return _apply_multiplier(f, lambda n: 1j * n)


def halfwave_quadrature(f):
    """Quadrature reference for |grad| from the singular-integral form

        (|grad| f)(x) = (1/4pi) p.v. Integral (f(x)-f(y)) / sin^2((x-y)/2) dy

    evaluated by the punctured trapezoid rule (diagonal dropped). The
    difference kernel regularizes the p.v.; the dropped diagonal costs an
    O(1/N) error per unit bandwidth, which halves as N doubles.
    """
    f = np.asarray(f, dtype=float)
    N = f.shape[-1]
    _check_size(N)
    x = grid(N)
    dx = x[:, None] - x[None, :]
    s2 = np.sin(dx / 2.0) ** 2
    np.fill_diagonal(s2, 1.0)  # dummy, the diagonal numerator is zeroed
    diff = f[:, None] - f[None, :]
    np.fill_diagonal(diff, 0.0)
    return (diff / s2).sum(axis=1) * (2.0 * np.pi / N) / (4.0 * np.pi)


def fd_deriv(f):
    """Eighth-order centered finite-difference derivative on the periodic grid.

    Independent of the FFT path; used by quadrature oracles that need a
    pointwise derivative without touching Fourier space.
    """
    coef = (4 / 5, -1 / 5, 4 / 105, -1 / 280)  # offsets 1..4, antisymmetric
    f = np.asarray(f, dtype=float)
    out = np.zeros_like(f)
    for k, c in enumerate(coef, start=1):
        out += c * (np.roll(f, -k, axis=0) - np.roll(f, k, axis=0))
    return out / (2.0 * np.pi / f.shape[0])
