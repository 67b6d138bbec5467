import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from halfwave_lab import spectral
from oracles import deriv, fd_deriv, halfwave_quadrature, hilbert, multiplier


def band_limited(N, bandwidth, seed):
    rng = np.random.default_rng(seed)
    x = spectral.grid(N)
    f = np.zeros(N)
    for n in range(1, bandwidth + 1):
        a, b = rng.standard_normal(2)
        f += a * np.cos(n * x) + b * np.sin(n * x)
    return f


def rows(N):
    """Real (k, N) arrays, k = 1..3, with entries in [-1, 1]."""
    return st.integers(1, 3).flatmap(
        lambda k: hnp.arrays(float, (k, N), elements=st.floats(-1, 1)))


# real arrays on the even grid sizes 4..128
FIELDS = st.integers(2, 64).flatmap(lambda half: rows(2 * half))


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
    g = np.fft.ifft(spectral.fft(f)) * 64
    assert np.abs(g - f).max() < 1e-12 * max(1.0, np.abs(f).max())


def test_halfwave_single_mode():
    x = spectral.grid(64)
    f = np.stack([np.cos(3 * x), np.sin(3 * x)])  # exp(3ix) by parts
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


@given(FIELDS)
def test_hilbert_squared_is_minus_identity_mean_zero(g):
    # the Nyquist mode too: the complex path multiplies it by i, twice
    f = g - g.mean(axis=-1, keepdims=True)
    assert np.abs(hilbert(hilbert(f)) + f).max() < 1e-13


@given(FIELDS)
def test_hilbert_halfwave_is_minus_deriv(f):
    lhs = hilbert(spectral.halfwave_op(f))
    assert np.abs(lhs + deriv(f)).max() < 1e-13 * f.shape[-1]


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
@given(data=st.data())
def test_real_path_matches_complex_path(N, op, symbol, data):
    # the Nyquist mode cos(N x / 2) = (-1)^k is where rfft and fft differ:
    # the complex path multiplies it by symbol(-N/2), the real one by
    # symbol(N/2). halfwave_op is the real path, the oracles the complex one.
    g = data.draw(rows(N))
    complex_path = multiplier(g, symbol).real
    real_path = np.fft.irfft(symbol(np.arange(N // 2 + 1)) * np.fft.rfft(g),
                             n=N)
    assert np.abs(complex_path - real_path).max() < 1e-13
    for h, expected in ((g, real_path), (np.asfortranarray(g), real_path),
                        (g[0], real_path[0])):
        assert np.abs(op(h).real - expected).max() < 1e-13


def test_complex_input_is_a_type_error():
    x = spectral.grid(16)
    f = np.exp(2j * x)
    with pytest.raises(TypeError):
        spectral.halfwave_op(f)
    assert np.abs(hilbert(f) + 1j * f).max() < 1e-13


def test_real_path_rejects_bad_sizes():
    for N in (2, 5):
        with pytest.raises(ValueError):
            spectral.halfwave_op(np.ones(N))
