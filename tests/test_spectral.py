import numpy as np
import pytest

from halfwave_lab import spectral
from oracles import deriv, fd_deriv, halfwave_quadrature, hilbert


def band_limited(N, bandwidth, seed):
    rng = np.random.default_rng(seed)
    x = spectral.grid(N)
    f = np.zeros(N)
    for n in range(1, bandwidth + 1):
        a, b = rng.standard_normal(2)
        f += a * np.cos(n * x) + b * np.sin(n * x)
    return f


def test_grid_size_validation():
    with pytest.raises(ValueError):
        spectral.grid(5)
    with pytest.raises(ValueError):
        spectral.grid(2)


def test_fft_constant():
    c = spectral.fft(np.ones(16))
    assert abs(c[0] - 1.0) < 1e-14
    assert np.abs(c[1:]).max() < 1e-14


def test_fft_cosine_modes():
    x = spectral.grid(32)
    c = spectral.fft(np.cos(x))
    assert abs(c[1] - 0.5) < 1e-14
    assert abs(c[-1] - 0.5) < 1e-14


def test_round_trip():
    rng = np.random.default_rng(0)
    f = rng.standard_normal(64)
    g = spectral.ifft(spectral.fft(f))
    assert np.abs(g - f).max() < 1e-12 * max(1.0, np.abs(f).max())


def test_halfwave_single_mode():
    x = spectral.grid(64)
    f = np.exp(3j * x)
    assert np.abs(spectral.halfwave_op(f) - 3.0 * f).max() < 1e-12


def test_halfwave_constant_and_cos2():
    x = spectral.grid(64)
    assert np.abs(spectral.halfwave_op(np.ones(64))).max() < 1e-14
    assert np.abs(spectral.halfwave_op(np.cos(2 * x)) - 2 * np.cos(2 * x)).max() < 1e-12


def test_hilbert_trig_pairs():
    x = spectral.grid(64)
    assert np.abs(hilbert(np.cos(x)) - np.sin(x)).max() < 1e-13
    assert np.abs(hilbert(np.sin(x)) + np.cos(x)).max() < 1e-13
    assert np.abs(hilbert(np.ones(64))).max() < 1e-14


def test_deriv():
    x = spectral.grid(64)
    assert np.abs(deriv(np.sin(x)) - np.cos(x)).max() < 1e-12
    assert np.abs(deriv(np.ones(64))).max() < 1e-14


def test_hilbert_squared_is_minus_identity_mean_zero():
    f = band_limited(128, 16, 1)
    assert np.abs(hilbert(hilbert(f)) + f).max() < 1e-12


def test_hilbert_halfwave_is_minus_deriv():
    f = band_limited(128, 16, 2)
    lhs = hilbert(spectral.halfwave_op(f))
    assert np.abs(lhs + deriv(f)).max() < 1e-10


def test_deriv_hilbert_composition_equals_halfwave():
    f = band_limited(128, 16, 3)
    assert np.abs(hilbert(deriv(f))
                  - spectral.halfwave_op(f)).max() < 1e-10


def test_cotlar_identity():
    # bandwidth <= N/8 keeps the product alias-free
    N = 128
    f = band_limited(N, N // 8, 4)
    g = band_limited(N, N // 8, 5)
    H = hilbert
    lhs = H(f * g)
    rhs = H(f) * g + f * H(g) + H(H(f) * H(g))
    assert np.abs(lhs - rhs).max() < 1e-10


def test_halfwave_symmetric_positive():
    N = 64
    f = band_limited(N, 8, 6)
    g = band_limited(N, 8, 7)
    Lf, Lg = spectral.halfwave_op(f), spectral.halfwave_op(g)
    assert abs(np.dot(Lf, g) - np.dot(f, Lg)) < 1e-9
    assert np.dot(f, Lf) >= -1e-12


def test_quadrature_constant():
    assert np.abs(halfwave_quadrature(np.ones(64))).max() < 1e-13


def test_quadrature_vs_multiplier_cos():
    # punctured trapezoid carries an O(1/N) defect at bandwidth 1:
    # the discrete symbol is n(N - n)/N, so the cos(x) error is exactly 1/N
    x = spectral.grid(256)
    err = np.abs(halfwave_quadrature(np.cos(x)) - np.cos(x)).max()
    assert err == pytest.approx(1.0 / 256, rel=1e-6)


def test_quadrature_converges_as_N_doubles():
    errs = []
    for N in (64, 128, 256, 512):
        x = spectral.grid(N)
        f = np.cos(x) + 0.3 * np.sin(2 * x)
        errs.append(np.abs(halfwave_quadrature(f)
                           - spectral.halfwave_op(f)).max())
    assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
    assert errs[0] / errs[-1] == pytest.approx(8.0, rel=0.05)


def test_fd_deriv_matches_spectral_on_smooth():
    f = band_limited(256, 4, 8)
    assert np.abs(fd_deriv(f) - deriv(f)).max() < 1e-7


@pytest.mark.parametrize("N", [4, 6, 64])
@pytest.mark.parametrize("op, symbol", [
    (spectral.halfwave_op, np.abs),
    (hilbert, lambda n: -1j * np.sign(n)),
    (deriv, lambda n: 1j * n)])
def test_real_path_matches_complex_path(N, op, symbol):
    # the Nyquist mode cos(N x / 2) = (-1)^k is where rfft and fft differ:
    # the complex path multiplies it by symbol(-N/2), the real one by symbol(N/2)
    rng = np.random.default_rng(N)
    f = band_limited(N, N // 2 - 1, N) + 0.7 * np.cos(N * spectral.grid(N) / 2)
    rows = np.vstack([f, rng.standard_normal((3, N))])
    for g in (f, rows, rng.standard_normal((N, 3)).T):
        expected = spectral.ifft(symbol(spectral.modes(N)) * spectral.fft(g)).real
        assert np.abs(op(g) - expected).max() < 1e-13


def test_complex_input_keeps_complex_path():
    x = spectral.grid(16)
    f = np.exp(2j * x)
    assert np.abs(spectral.halfwave_op(f) - 2.0 * f).max() < 1e-13
    assert np.abs(hilbert(f) + 1j * f).max() < 1e-13


def test_real_path_rejects_bad_sizes():
    for N in (2, 5):
        with pytest.raises(ValueError):
            spectral.halfwave_op(np.ones(N))
