"""Acceptance suite: one check per headline property, one PASS/FAIL line each.

Each test prints a single line of the form

    [ACCEPTANCE nn] PASS <short name> (<detail>)

directly to the terminal (bypassing capture) and then asserts, so the
verdicts are visible in a plain ``pytest -v`` run.
"""

import csv
import time

import numpy as np
import pytest

from halfwave_lab import spectral
from halfwave_lab.chain import (chain_diagnose, chain_rhs, chain_rhs_fft,
                                continuum_compare)
from halfwave_lab.evolution import energy, rhs, run, total_spin
from halfwave_lab.fields import (SpinField, hyperbolic_circle,
                                 random_band_limited, tilted_circle)
from halfwave_lab.lax import build_L, lax_residual, spectrum
from halfwave_lab.solitons import (BlaschkeProfile, profile_energy,
                                   profile_eval, profile_residual,
                                   rank_four_lax)
from oracles import (chain_rhs_direct, deriv, field_residual_quadrature,
                     hilbert, kernel_trace_oracle, profile_energy_quadrature,
                     rescale_ratio)

def report(capsys, num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"\n[ACCEPTANCE {num:02d}] {tag} {name}{suffix}")
    assert ok, f"acceptance {num}: {name}{suffix}"


def test_01_rank_four_spectrum(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for v in (0.0, 0.3, 0.5, 0.9):
        alpha = np.sqrt(1.0 - v * v)
        eigs = np.sort(np.linalg.eigvalsh(rank_four_lax(v)))
        worst = max(worst, float(
            np.abs(eigs - [-2 * alpha, 0.0, 0.0, 2 * alpha]).max()))
    dt = time.perf_counter() - t0
    report(capsys, 1, "rank-4 Lax eigenvalues {-2a, 0, 0, 2a}",
           worst < 1e-12 and dt < 1.0,
           f"max dev {worst:.2e}, {dt:.2f}s")


def test_02_rank_four_trace(capsys):
    worst = 0.0
    for v in (0.0, 0.3, 0.5, 0.9):
        m = rank_four_lax(v)
        tr = float(np.sum(np.abs(m) ** 2))
        target = 8.0 * (1.0 - v * v)
        # same number via (8/pi) * degree-1 profile energy
        via_energy = 8.0 / np.pi * profile_energy(BlaschkeProfile(v, (1j,)))
        worst = max(worst, abs(tr - target), abs(via_energy - target))
    report(capsys, 2, "Tr|L|^2 = 8(1 - v^2) = (8/pi) E", worst < 1e-12,
           f"max dev {worst:.2e}")


def test_03_energy_quantization(capsys):
    t0 = time.perf_counter()
    zero_pool = (1j, 1 + 2j, -1 + 1.5j)
    worst_analytic = 0.0
    worst_rel = 0.0
    for m in (1, 2, 3):
        for v in (0.0, 0.5):
            p = BlaschkeProfile(v, zero_pool[:m])
            e = profile_energy(p)
            worst_analytic = max(worst_analytic,
                                 abs(e - (1.0 - v * v) * np.pi * m))
            q = profile_energy_quadrature(p)
            worst_rel = max(worst_rel, abs(q - e) / e)
    dt = time.perf_counter() - t0
    report(capsys, 3, "profile energy (1 - v^2) pi m, quadrature within 1%",
           worst_analytic < 1e-12 and worst_rel < 0.01 and dt < 10.0,
           f"analytic dev {worst_analytic:.2e}, quad rel {worst_rel:.2e}, "
           f"{dt:.1f}s")


def test_04_traveling_wave_residual(capsys):
    x = np.linspace(-50, 50, 1000)
    worst = max(profile_residual(BlaschkeProfile(v, (1j,)), x)
                for v in (0.0, 0.5, 0.9))

    # perturbed non-solution: push the third component off v, renormalize
    p = BlaschkeProfile(0.5, (1j,))
    xs = np.linspace(-10, 10, 201)

    def comp(i):
        def f(t):
            Q = profile_eval(p, t)
            Q[..., 2] = p.velocity + 0.2
            return Q[..., i] / np.sqrt((Q ** 2).sum(-1))
        return f

    def dcomp(i):
        f = comp(i)
        return lambda t: (f(t + 1e-5) - f(t - 1e-5)) / 2e-5

    bad = field_residual_quadrature(
        [comp(i) for i in range(3)], [dcomp(i) for i in range(3)],
        p.velocity, xs)
    report(capsys, 4, "degree-1 residual zero, perturbed residual detected",
           worst < 1e-12 and bad > 1e-2,
           f"profile {worst:.2e}, perturbed {bad:.2e}")


def test_05_lax_residual(capsys):
    t0 = time.perf_counter()
    rs = lax_residual(tilted_circle(128, 0.6, 0.8), 16)
    rh = lax_residual(hyperbolic_circle(128, 0.75), 16)
    dt = time.perf_counter() - t0
    report(capsys, 5, "dL/dt = [B, L] (sphere) and i[B, L] (hyperbolic)",
           rs < 1e-12 and rh < 1e-12 and dt < 10.0,
           f"sphere {rs:.2e}, hyperbolic {rh:.2e}, {dt:.2f}s")


def test_06_isospectrality(capsys):
    t0 = time.perf_counter()
    f = tilted_circle(128, 0.6, 0.8)
    rep0 = spectrum(build_L(f, 16), f.target)
    eig0 = np.sort(rep0.eigenvalues)
    eig_drift = tr_drift = 0.0
    for _ in range(4):  # check at t = 0.25, 0.5, 0.75, 1.0
        f, _ = run(f, 1e-3, 0.25)
        rep = spectrum(build_L(f, 16), f.target)
        eig_drift = max(eig_drift, float(
            np.abs(np.sort(rep.eigenvalues) - eig0).max()))
        for p in "1234":
            denom = max(abs(rep0.trace_powers[p]), 1e-30)
            tr_drift = max(tr_drift,
                           abs(rep.trace_powers[p] - rep0.trace_powers[p])
                           / denom)
    dt = time.perf_counter() - t0
    report(capsys, 6, "L spectrum frozen along the flow (T = 1)",
           eig_drift < 1e-8 and tr_drift < 1e-6 and dt < 60.0,
           f"eig drift {eig_drift:.2e}, trace drift {tr_drift:.2e}, {dt:.1f}s")


def test_07_exact_solution_convergence(capsys):
    errs = {}
    # dt = 1e-3 reaches roundoff on these solutions, so probe the 4th-order
    # ratio at coarser steps where truncation error still dominates
    for dt_step in (2e-2, 1e-2, 1e-3):
        fs, _ = run(tilted_circle(64, 0.6, 0.8), dt_step, 1.0)
        es = np.abs(fs.values - tilted_circle(64, 0.6, 0.8, 1.0).values)
        fh, _ = run(hyperbolic_circle(64, 0.75), dt_step, 1.0)
        eh = np.abs(fh.values - hyperbolic_circle(64, 0.75, 1.0).values)
        errs[dt_step] = (float(es.max()), float(eh.max()))
    ratio_s = errs[2e-2][0] / errs[1e-2][0]
    ratio_h = errs[2e-2][1] / errs[1e-2][1]
    ok = (max(errs[1e-3]) < 1e-6
          and abs(ratio_s - 16.0) < 3.0 and abs(ratio_h - 16.0) < 3.0)
    report(capsys, 7, "rotating-solution error <= 1e-6, 4th-order in dt", ok,
           f"errors {errs[1e-3][0]:.2e}/{errs[1e-3][1]:.2e}, "
           f"halving ratios {ratio_s:.1f}/{ratio_h:.1f}")


def _spin(row):
    return np.array([row["sx"], row["sy"], row["sz"]])


def test_08_conservation_suite(capsys):
    f0 = tilted_circle(128, 0.6, 0.8)
    e0, s0 = energy(f0), total_spin(f0)
    f, recs = run(f0, 1e-3, 1.0, record_interval=200)
    e_drift = max(abs(r["energy"] - e0) / abs(e0) for r in recs)
    s_drift = max(float(np.abs(_spin(r) - s0).max()) for r in recs)
    d_max = max(r["defect"] for r in recs)

    c0 = SpinField(tilted_circle(64, 0.6, 0.8).values)
    _, crecs = run(c0, 1e-4, 1.0, record_interval=2000, record=chain_diagnose,
                   rhs=chain_rhs)
    ce = max(abs(r["H_classical"] - crecs[0]["H_classical"])
             / abs(crecs[0]["H_classical"]) for r in crecs[1:])
    cs = max(float(np.abs(_spin(r) - _spin(crecs[0])).max())
             for r in crecs[1:])
    ok = (e_drift < 1e-8 and s_drift < 1e-8 and d_max < 1e-12
          and ce < 1e-6 and cs < 1e-8)
    report(capsys, 8, "energy/spin/constraint drifts (PDE and chain)", ok,
           f"pde {e_drift:.1e}/{s_drift:.1e}/{d_max:.1e}, "
           f"chain {ce:.1e}/{cs:.1e}")


def test_09_oracle_equivalences(capsys):
    # fft force vs direct double loop on smooth chains
    force_dev = 0.0
    for N in (8, 64, 512):
        c = SpinField(random_band_limited(N, 2, seed=0, amplitude=0.1).values)
        force_dev = max(force_dev, float(
            np.abs(chain_rhs_direct(c) - chain_rhs_fft(c)).max()))

    # matrix Frobenius norm vs the singular-integral kernel trace
    f = random_band_limited(256, 4, seed=3)
    fro2 = float(np.sum(np.abs(build_L(f, 64)) ** 2))
    trace_dev = abs(kernel_trace_oracle(f) - fro2)

    # Cotlar identity and H|grad| = -d/dx on a band-limited sample
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal((2, 8))
    x = spectral.grid(128)
    g1 = sum(c * np.cos((k + 1) * x) + s * np.sin((k + 1) * x)
             for k, (c, s) in enumerate(zip(*coeffs)))
    g2 = np.cos(3 * x) - 0.5 * np.sin(5 * x)
    H = hilbert
    cotlar = float(np.abs(
        H(g1 * g2) - (H(g1) * g2 + g1 * H(g2) + H(H(g1) * H(g2)))).max())
    hgrad = float(np.abs(H(spectral.halfwave_op(g1))
                         + deriv(g1)).max())
    ok = (force_dev < 1e-10 and trace_dev < 1e-6
          and cotlar < 1e-10 and hgrad < 1e-10)
    report(capsys, 9, "fft=direct forces, kernel trace, Cotlar, H|grad|=-d/dx",
           ok, f"{force_dev:.1e}, {trace_dev:.1e}, {cotlar:.1e}, {hgrad:.1e}")


def test_10_rank_preservation(capsys):
    f = random_band_limited(128, 4, seed=5)
    ranks = []
    for k in range(6):  # t = 0, 0.1, ..., 0.5
        ranks.append(spectrum(build_L(f, 24), f.target,
                              rank_tolerance=1e-8).rank)
        if k < 5:
            f, _ = run(f, 1e-3, 0.1)
    report(capsys, 10, "numerical rank of L constant over T = 0.5",
           len(set(ranks)) == 1, f"ranks {ranks}")


def test_11_continuum_limit(capsys):
    t0 = time.perf_counter()
    N_list = [32, 64, 128, 256]
    rows = continuum_compare(0.6, 0.8, N_list, 1.0)
    errs = [e for _, e in rows]
    monotone = all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
    f = tilted_circle(256, 0.6, 0.8)
    ratio = rescale_ratio(f.values, rhs(f.values.T).T)
    dt = time.perf_counter() - t0
    report(capsys, 11, "chain -> PDE error monotone, rescaling ratio -> 1",
           monotone and abs(ratio - 1.0) < 0.02 and dt < 300.0,
           "errors " + "/".join(f"{e:.1e}" for e in errs)
           + f", ratio {ratio:.4f}, {dt:.1f}s")


def test_12_fft_force_speedup(capsys, tmp_path):
    N = 4096
    c = SpinField(random_band_limited(N, 4, seed=0).values)
    chain_rhs_fft(c)  # warm up fft plan caches
    t0 = time.perf_counter()
    chain_rhs_direct(c)
    t_direct = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(10):
        chain_rhs_fft(c)
    t_fft = (time.perf_counter() - t0) / 10.0
    speedup = t_direct / t_fft
    out = tmp_path / "benchmark_chain_rhs.csv"
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["N", "direct_seconds", "fft_seconds", "speedup"])
        w.writerow([N, f"{t_direct:.6f}", f"{t_fft:.6f}", f"{speedup:.1f}"])
    report(capsys, 12, "fft force >= 10x faster than direct at N = 4096",
           speedup >= 10.0, f"{speedup:.0f}x, wrote {out.name}")
