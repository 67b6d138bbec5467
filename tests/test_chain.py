import numpy as np
import pytest

from halfwave_lab.chain import (chain_diagnose, chain_energy, chain_op,
                                chain_rhs, chain_rhs_fft, continuum_compare)
from halfwave_lab.evolution import rhs, run
from halfwave_lab.fields import SpinField, random_band_limited, tilted_circle
from oracles import chain_rhs_direct, rescale_ratio


def aligned_chain(N):
    return SpinField(np.tile([0.0, 0.0, 1.0], (N, 1)))


def random_chain(N, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((N, 3))
    return SpinField(v / np.linalg.norm(v, axis=1, keepdims=True))


def smooth_chain(N, seed):
    # gentle fields keep the absolute fft/direct agreement below 1e-10
    # even at N = 512, where the kernel weights reach (N/pi)^2
    return SpinField(random_band_limited(N, 2, seed, amplitude=0.1).values)


def pairwise_chain_energy(chain):
    """O(N^2) oracle: H = sum_{j<k} (1 - S_j . S_k) / sin^2((x_j - x_k)/2)."""
    S = chain.values
    x = 2 * np.pi * np.arange(chain.N) / chain.N
    dx = x[:, None] - x[None, :]
    s2 = np.sin(dx / 2.0) ** 2
    np.fill_diagonal(s2, 1.0)
    dots = 1.0 - S @ S.T
    np.fill_diagonal(dots, 0.0)
    return float((dots / s2).sum() / 2.0)


def test_energy_ferromagnetic_ground_state():
    assert chain_energy(aligned_chain(16)) == 0.0


def test_energy_two_site_hand_values():
    # sites at x = 0, pi; sin^2(pi/2) = 1
    c = SpinField(np.array([[1.0, 0, 0], [0, 1.0, 0]]))
    assert chain_energy(c) == pytest.approx(1.0, abs=1e-14)
    c2 = SpinField(np.array([[1.0, 0, 0], [-1.0, 0, 0]]))
    assert chain_energy(c2) == pytest.approx(2.0, abs=1e-14)


def test_rhs_two_site_hand_values():
    c = SpinField(np.array([[1.0, 0, 0], [0, 1.0, 0]]))
    r = chain_rhs_direct(c)
    assert np.allclose(r[0], [0, 0, -1], atol=1e-14)
    assert np.allclose(r[1], [0, 0, 1], atol=1e-14)


def test_rhs_aligned_zero():
    assert np.abs(chain_rhs_direct(aligned_chain(32))).max() < 1e-12
    assert np.abs(chain_rhs_fft(aligned_chain(32))).max() < 1e-10


def test_total_spin_derivative_vanishes():
    r = chain_rhs_direct(random_chain(48, 0))
    assert np.abs(r.sum(axis=0)).max() < 1e-9


def test_rhs_perpendicular_to_spins():
    c = random_chain(48, 1)
    r = chain_rhs_direct(c)
    assert np.abs((c.values * r).sum(axis=1)).max() < 1e-10


@pytest.mark.parametrize("N", [8, 64, 512])
def test_fft_matches_direct_smooth(N):
    c = smooth_chain(N, 0)
    d = chain_rhs_direct(c)
    f = chain_rhs_fft(c)
    assert np.abs(d - f).max() < 1e-10


@pytest.mark.parametrize("N", [7, 8, 64, 512])
def test_fft_matches_direct_random_relative(N):
    # rough chains carry O(N^2) kernel weights; compare relative to the
    # force scale, which is what double precision can support
    c = random_chain(N, N + 1)
    d = chain_rhs_direct(c)
    f = chain_rhs_fft(c)
    scale = max(np.abs(d).max(), 1.0)
    assert np.abs(d - f).max() / scale < 1e-12


@pytest.mark.parametrize("N", [2, 3, 7, 8, 64, 512])
def test_kernel_transform_is_closed_form_symbol(N):
    # fft(w)(n) = (N^2 - 1)/3 - 2|n|(N - |n|) for w_d = 1/sin^2(pi d/N),
    # so the convolution force S W - w * S is the multiplier 2|n|(N - |n|)
    w = np.zeros(N)
    w[1:] = 1.0 / np.sin(np.pi * np.arange(1, N) / N) ** 2
    n = np.abs(np.fft.fftfreq(N, d=1.0 / N))
    expected = (N * N - 1) / 3.0 - 2.0 * n * (N - n)
    assert w.sum() == pytest.approx((N * N - 1) / 3.0, rel=1e-12)
    assert np.abs(np.fft.fft(w) - expected).max() < 1e-12 * w.sum()


@pytest.mark.parametrize("N", [7, 8, 512])
def test_chain_op_matches_full_fft_symbol(N):
    v = random_chain(N, N).values
    n = np.abs(np.fft.fftfreq(N, d=1.0 / N))
    symbol = 2.0 * n * (N - n)
    expected = np.fft.ifft(np.fft.fft(v, axis=0) * symbol[:, None], axis=0).real
    assert np.abs(chain_op(v) - expected).max() < 1e-13 * np.abs(expected).max()


@pytest.mark.parametrize("N", [8, 64, 512])
@pytest.mark.parametrize("make", [random_chain, smooth_chain])
def test_energy_matches_pairwise_oracle(N, make):
    c = make(N, 3)
    oracle = pairwise_chain_energy(c)
    assert abs(chain_energy(c) - oracle) < 1e-12 * oracle


def test_aligned_chain_stays_fixed():
    c, _ = run(aligned_chain(32), 1e-3, 0.1, record=chain_diagnose,
               rhs=chain_rhs)
    assert np.abs(c.values - aligned_chain(32).values).max() < 1e-12


def _spin(row):
    return np.array([row["sx"], row["sy"], row["sz"]])


def test_chain_conservation():
    c0 = SpinField(tilted_circle(64, 0.6, 0.8).values)
    cf, recs = run(c0, 1e-4, 1.0, record_interval=2000, record=chain_diagnose,
                   rhs=chain_rhs)
    e0 = recs[0]["H_classical"]
    s0 = _spin(recs[0])
    for r in recs[1:]:
        assert abs(r["H_classical"] - e0) / abs(e0) < 1e-6
        assert np.abs(_spin(r) - s0).max() < 1e-8
        assert r["defect"] < 1e-10


def test_chain_midpoint_conserves_energy():
    # implicit midpoint conserves every quadratic invariant, H included;
    # an explicit midpoint step drifts by about 5e-3 over this run
    c0 = SpinField(tilted_circle(64, 0.6, 0.8).values)
    _, recs = run(c0, 1e-4, 0.2, record_interval=2000, scheme="midpoint",
                  record=chain_diagnose, rhs=chain_rhs)
    assert len(recs) == 2
    assert abs(recs[-1]["H_classical"] - recs[0]["H_classical"]) < 1e-8


def test_continuum_compare_monotone():
    rows = continuum_compare(0.6, 0.8, [32, 64, 128], 0.5)
    errs = [e for _, e in rows]
    assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))


def test_continuum_compare_constant_is_exact():
    rows = continuum_compare(0.0, 1.0, [32, 64], 0.5)
    assert all(e < 1e-12 for _, e in rows)


def test_rescale_ratio_tends_to_one():
    ratios = []
    for N in (64, 128, 256):
        f = tilted_circle(N, 0.6, 0.8)
        ratios.append(rescale_ratio(f.values, rhs(f.values.T).T))
    # discrete symbol n(N - n)/N gives ratio 1 - 1/N at bandwidth 1
    for N, r in zip((64, 128, 256), ratios):
        assert r == pytest.approx(1.0 - 1.0 / N, abs=1e-10)
    assert abs(ratios[-1] - 1.0) < 0.02


def test_chain_diagnose_fields():
    rec = chain_diagnose(aligned_chain(16))
    assert list(rec) == ["t", "H_classical", "sx", "sy", "sz", "defect"]
    assert rec["H_classical"] == 0.0
    assert np.allclose(_spin(rec), [0, 0, 16])
    assert rec["defect"] < 1e-15
