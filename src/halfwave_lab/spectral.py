"""Fourier-multiplier operators on the uniform periodic grid x_k = 2*pi*k/N.

Conventions:
  * Fourier coefficients are f_hat(n) = (1/N) sum_k f(x_k) exp(-i n x_k),
    stored in numpy fft order (modes 0, 1, ..., N/2-1, -N/2, ..., -1).
  * |grad| is the multiplier |n|.
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


def ifft(c):
    """Inverse of :func:`fft`; returns grid samples (complex in general)."""
    c = np.asarray(c)
    _check_size(c.shape[-1])
    return np.fft.ifft(c, axis=-1) * c.shape[-1]


def _apply_multiplier(f, symbol):
    """Apply the multiplier symbol(n) of the mode numbers n along the last axis.

    :func:`halfwave_op` is the library's one multiplier; the test oracles
    apply the Hilbert and d/dx symbols through it as well, on real and on
    complex input. Real input takes the real transform on the modes
    0..N/2. At the Nyquist mode an odd symbol gives an imaginary
    coefficient that irfft drops, as the real part of the full complex
    path does.
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
