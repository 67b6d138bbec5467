import json
from dataclasses import asdict

import numpy as np
import pytest

from halfwave_lab import (SpinField, build_B, build_L, constant_field, energy,
                          hyperbolic_circle, lax_residual, random_band_limited,
                          random_rational, run, spectrum, tilted_circle,
                          total_spin)
from halfwave_lab.algebra import eta_dot
from halfwave_lab.lax import SpectrumReport
from halfwave_lab.solitons import RANK4_CORE
from halfwave_lab.spectral import fft, grid
from oracles import (hyperbolic_off_circle, kernel_trace_oracle,
                     trace_sq_closed_form)


def mode_blocks(entries, M):
    """View the matrix as (2M+1, 2M+1) grid of 2x2 blocks."""
    d = 2 * M + 1
    return entries.reshape(d, 2, d, 2).transpose(0, 2, 1, 3)


def test_constant_field_gives_zero_L():
    L = build_L(constant_field(64), 8)
    assert np.abs(L).max() < 1e-14


def test_L_hermitian_sphere():
    f = random_band_limited(64, 4, seed=0)
    L = build_L(f, 12)
    assert np.abs(L - L.conj().T).max() < 1e-12


def test_B_antihermitian_sphere():
    f = random_band_limited(64, 4, seed=1)
    B = build_B(f, 12)
    assert np.abs(B + B.conj().T).max() < 1e-12


def test_great_circle_L_structure():
    # nonzero blocks only across the sign boundary with |m - n| = 1
    M = 2
    blocks = mode_blocks(build_L(tilted_circle(64, 1.0, 0.0), M), M)
    modes = np.arange(-M, M + 1)
    for i, m in enumerate(modes):
        for j, n in enumerate(modes):
            mag = np.abs(blocks[i, j]).max()
            if np.sign(m) != np.sign(n) and abs(m - n) == 1:
                assert mag > 0.1
            else:
                assert mag < 1e-14


def test_L_entry_hand_value_pins_the_sign():
    # L(m, n) = -i (sgn m - sgn n) map(S_hat(m - n)): on the great circle
    # (cos x, sin x, 0), S_hat(1) = (1/2, -i/2, 0) has the Pauli image
    # [[0, 0], [1, 0]], so L(1, 0) = -i [[0, 0], [1, 0]]; -L has the same
    # spectrum, |L| and Lax residual, so only an entry tells the two apart
    M = 4
    block = mode_blocks(build_L(tilted_circle(32, 1.0, 0.0), M), M)[M + 1, M]
    assert np.abs(block - [[0.0, 0.0], [-1j, 0.0]]).max() < 1e-15


def test_nyquist_mode_is_left_out_of_L():
    # S_hat(p) enters L for |p| <= N/2 - 1 only: the Nyquist mode p = N/2
    # aliases -N/2, so the blocks with m - n = N/2 vanish although this
    # field has Nyquist content
    N = 16
    x = grid(N)
    f = SpinField(np.stack([0.3 * np.cos(x), 0.2 * np.cos(N / 2 * x),
                            np.ones(N)], axis=1)).renormalized()
    assert np.abs(fft(f.values.T)[:, N // 2]).max() > 0.1
    M = N // 4
    blocks = mode_blocks(build_L(f, M), M)
    assert np.abs(blocks[2 * M, 0]).max() == 0.0  # m = N/4, n = -N/4
    assert np.abs(blocks[M + 1, M]).max() > 0.1  # m = 1, n = 0


def test_B_zero_column_at_mode_zero():
    M = 4
    f = tilted_circle(64, 0.6, 0.8)
    blocks = mode_blocks(build_B(f, M), M)
    assert np.abs(blocks[:, M]).max() < 1e-14  # |m| + |0| - |m - 0| = 0


def test_great_circle_B_weights():
    M = 3
    blocks = mode_blocks(build_B(tilted_circle(64, 1.0, 0.0), M), M)
    modes = np.arange(-M, M + 1)
    for i, m in enumerate(modes):
        for j, n in enumerate(modes):
            mag = np.abs(blocks[i, j]).max()
            if abs(m - n) != 1 or (abs(m) + abs(n) == 1):
                assert mag < 1e-14
            else:
                # entry weight |m| + |n| - 1 times the coefficient block
                assert mag == pytest.approx((abs(m) + abs(n) - 1) / 2.0, rel=1e-12)


def test_tilted_circle_spectrum_symmetric():
    f = tilted_circle(128, 0.6, 0.8)
    eigs = np.array(spectrum(build_L(f, 16), f.target).eigenvalues)
    assert np.abs(eigs + eigs[::-1]).max() < 1e-10


@pytest.mark.parametrize("M", [16, 48])
@pytest.mark.parametrize("make", [
    lambda seed: random_band_limited(128, 4, seed),
    lambda seed: random_rational(128, 3, seed),
    lambda seed: tilted_circle(128, 0.6, 0.8),
], ids=["band-limited", "rational", "tilted-circle"])
def test_sphere_spectrum_symmetric_under_sign_flip(make, M):
    # R (1 x sigma_y) K, with R the mode reversal and K complex conjugation,
    # anticommutes with L, so the spectrum is symmetric under lam -> -lam
    for seed in (0, 1):
        f = make(seed)
        lam = np.array(spectrum(build_L(f, M), f.target).eigenvalues)
        assert np.abs(lam + lam[::-1]).max() <= 1e-13 * max(
            1.0, np.abs(lam).max())


def test_M_too_large_rejected():
    with pytest.raises(ValueError):
        build_L(tilted_circle(16, 1.0, 0.0), 8)


def test_lax_residual_tilted_circle():
    assert lax_residual(tilted_circle(128, 0.6, 0.8), 16) < 1e-12


def test_lax_residual_constant():
    assert lax_residual(constant_field(64), 8) < 1e-14


def test_lax_residual_hyperbolic():
    assert lax_residual(hyperbolic_circle(128, 0.75), 16) < 1e-12


def test_lax_residual_bandwidth_guard():
    with pytest.raises(ValueError):
        lax_residual(random_band_limited(64, 8, seed=2), 8)


def test_spectrum_zero_matrix():
    rep = spectrum(build_L(constant_field(64), 8), "sphere")
    assert all(abs(e) < 1e-14 for e in rep.eigenvalues)
    assert rep.rank == 0


def test_spectrum_rank_four_profile_matrix():
    # degree-1 profile matrix at v = 0.5
    v = 0.5
    alpha = np.sqrt(1 - v * v)
    rep = spectrum(alpha * RANK4_CORE, "sphere")
    expected = np.array([-2 * alpha, 0.0, 0.0, 2 * alpha])
    assert np.abs(np.array(rep.eigenvalues) - expected).max() < 1e-12
    assert rep.trace_powers["2"] == pytest.approx(8 * (1 - v * v), abs=1e-12)


@pytest.mark.parametrize("M", [1, 8, 48])
@pytest.mark.parametrize("make", [lambda: tilted_circle(128, 0.6, 0.8),
                                  lambda: hyperbolic_circle(128, 0.75)],
                         ids=["sphere", "hyperbolic"])
def test_spectrum_truncation_from_shape(make, M):
    f = make()
    assert spectrum(build_L(f, M), f.target).truncation == M


def test_spectrum_rank_tolerance_validation():
    with pytest.raises(ValueError):
        spectrum(build_L(tilted_circle(64, 1.0, 0.0), 4), "sphere",
                 rank_tolerance=2.0)


def test_spectrum_json_round_trip():
    rep = spectrum(build_L(tilted_circle(64, 0.6, 0.8), 8), "sphere")
    back = SpectrumReport(**json.loads(json.dumps(asdict(rep))))
    assert back == rep


def test_sphere_spectrum_needs_no_svd(monkeypatch):
    class SVDCalled(Exception):
        pass

    def no_svd(*args, **kwargs):
        raise SVDCalled

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    rep = spectrum(build_L(tilted_circle(64, 0.6, 0.8), 8), "sphere")
    assert rep.rank > 0
    with pytest.raises(SVDCalled):
        spectrum(build_L(hyperbolic_circle(64, 0.75), 8), "hyperbolic")


@pytest.mark.parametrize("M", [8, 24, 48])
@pytest.mark.parametrize("make", [
    lambda seed: random_band_limited(128, 4, seed),
    lambda seed: random_rational(128, 3, seed),
], ids=["band-limited", "rational"])
def test_sphere_spectrum_matches_svd_oracle(make, M):
    for seed in (0, 1):
        L = build_L(make(seed), M)
        rep = spectrum(L, "sphere")
        sv = np.linalg.svd(L, compute_uv=False)
        top = sv[0]
        assert np.abs(np.array(rep.singular_values) - sv).max() <= 1e-13 * top
        assert rep.rank == int((sv > 1e-8 * top).sum())
        for p in range(1, 5):
            assert rep.trace_powers[str(p)] == pytest.approx(
                float((sv ** p).sum()), rel=1e-13)


def test_hyperbolic_spectrum_trace_powers():
    f = hyperbolic_circle(64, 0.75)
    rep = spectrum(build_L(f, 8), f.target)
    assert rep.eigenvalues == []
    assert set(rep.trace_powers) == {"1", "2", "3", "4"}
    # Tr L is real for this symmetric configuration
    assert isinstance(rep.trace_powers["2"], list)


def test_hyperbolic_trace_powers_are_eigenvalue_power_sums():
    f = hyperbolic_off_circle(128)
    L = build_L(f, 16)
    eigs = np.linalg.eigvals(L)
    rep = spectrum(L, f.target)
    for k in range(1, 5):
        power_sum = complex((eigs ** k).sum())
        assert abs(complex(*rep.trace_powers[str(k)]) - power_sum) <= \
            1e-12 * float((np.abs(eigs) ** k).sum())
    assert rep.trace_powers["2"][0] > 1.0  # not a near-zero L


def test_hyperbolic_trace_powers_stay_real():
    # R (1 x sigma_x) K commutes with L, so Tr(L^k) is real along the flow
    _, recs = run(hyperbolic_circle(64, 0.75), 1e-2, 0.2, record_interval=5,
                  scheme="midpoint",
                  record=lambda f: spectrum(build_L(f, 16), f.target))
    for r in recs:
        for re, im in r.trace_powers.values():
            assert abs(im) <= 1e-12 * (1.0 + abs(re))


def test_kernel_trace_constant_field():
    assert abs(kernel_trace_oracle(constant_field(128))) < 1e-10


@pytest.mark.parametrize("make", [
    pytest.param(lambda N: tilted_circle(N, 1.0, 0.0), id="great_circle"),
    lambda N: tilted_circle(N, 0.6, 0.8),
    lambda N: random_band_limited(N, 4, seed=3),
])
def test_kernel_trace_oracle_vs_frobenius(make):
    f = make(256)
    fro2 = float(np.sum(np.abs(build_L(f, 64)) ** 2))
    assert abs(kernel_trace_oracle(f) - fro2) < 1e-6


def test_trace_sq_closed_form_matches_oracle():
    for f in (constant_field(256), tilted_circle(256, 1.0, 0.0),
              tilted_circle(256, 0.6, 0.8)):
        closed = trace_sq_closed_form(f, energy(f))
        assert abs(kernel_trace_oracle(f) - closed) < 1e-6


@pytest.mark.parametrize("M", [32, 48])
def test_hyperbolic_trace_sq_closed_form(M):
    # H^2: Tr(L^2) = (8/pi) E + eta(Integral S, Integral S)/pi^2 + 4, with E
    # in the eta inner product (the Euclidean one is 13 % larger here)
    f = hyperbolic_off_circle(128)
    total = total_spin(f)
    closed = (8 / np.pi) * energy(f) + eta_dot(total, total) / np.pi ** 2 + 4
    re, im = spectrum(build_L(f, M), f.target).trace_powers["2"]
    assert abs(re - closed) <= 1e-13 * closed and abs(im) < 1e-13


def test_frobenius_equals_singular_values():
    f = tilted_circle(128, 0.6, 0.8)
    L = build_L(f, 16)
    sv = np.array(spectrum(L, f.target).singular_values)
    assert abs(np.sum(sv ** 2) - np.sum(np.abs(L) ** 2)) < 1e-12 * max(
        1.0, np.sum(sv ** 2))


def test_isospectrality_short_run():
    f0 = tilted_circle(128, 0.6, 0.8)
    eig0 = np.array(spectrum(build_L(f0, 16), f0.target).eigenvalues)
    f1, _ = run(f0, 1e-3, 0.2)
    eig1 = np.array(spectrum(build_L(f1, 16), f1.target).eigenvalues)
    assert np.abs(np.sort(eig1) - np.sort(eig0)).max() < 1e-8


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
def test_rational_field_has_rank_2d_plus_2(degree):
    # L of a rational field of degree d has rank exactly 2d + 2, and the
    # flow keeps it. Along the run the midpoint scheme's O(dt^2) error puts
    # the dropped singular values near 1e-8 of the top one at dt = 1e-3
    # (4e-8 at dt = 2e-3), while the kept ones stay above 9e-5, so the run
    # is checked at rank tolerance 1e-6.
    for seed in (0, 1):
        f = random_rational(256, degree, seed)
        assert spectrum(build_L(f, 40), f.target).rank == 2 * degree + 2
        _, ranks = run(f, 1e-3, 0.1, record_interval=20, scheme="midpoint",
                       record=lambda g: spectrum(build_L(g, 40), g.target,
                                                 rank_tolerance=1e-6).rank)
        assert ranks == [2 * degree + 2] * 6
