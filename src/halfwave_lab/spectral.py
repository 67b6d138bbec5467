"""Fourier-multiplier operators on the uniform periodic grid x_k = 2*pi*k/N.

Conventions:
  * Fourier coefficients are f_hat(n) = (1/N) sum_k f(x_k) exp(-i n x_k),
    stored in numpy fft order (modes 0, 1, ..., N/2-1, -N/2, ..., -1).
  * |grad| is the multiplier |n|. The flow runs on real fields, so
    halfwave_op takes the real transform; complex input raises TypeError.
  * The Hilbert transform H in the Lax operator L = [H, mu_S] is the
    multiplier -i*sgn(n) with sgn(0) = 0, which makes H^2 = -1 on
    mean-zero functions and H |grad| = -d/dx (d/dx: the multiplier i*n)
    exact at every retained mode. lax.py builds L from this symbol;
    tests/oracles.py applies H and d/dx as reference paths.
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


def halfwave_op(f):
    """Apply |grad|, the multiplier |n| on the real-transform modes 0..N/2,
    along the last axis of a real array. Annihilates constants."""
    N = np.shape(f)[-1]
    _check_size(N)
    return np.fft.irfft(np.arange(N // 2 + 1) * np.fft.rfft(f), n=N)
