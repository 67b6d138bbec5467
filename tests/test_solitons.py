import numpy as np
import pytest

from halfwave_lab import (BlaschkeProfile, blaschke_eval, profile_energy,
                          profile_eval, profile_residual, rank_four_lax)
from oracles import (basis_phi, basis_psi, field_residual_quadrature,
                     hilbert_quadrature, profile_energy_quadrature)


def test_empty_product_is_one():
    p = BlaschkeProfile(0.3)
    x = np.linspace(-5, 5, 11)
    assert np.abs(blaschke_eval(p, x) - 1.0).max() < 1e-15


def test_degree_one_components():
    # z = i gives B(x) = ((x^2 - 1) - 2ix)/(1 + x^2)
    p = BlaschkeProfile(0.0, (1j,))
    x = np.linspace(-4, 4, 101)
    B = blaschke_eval(p, x)
    assert np.abs(B.real - (x ** 2 - 1) / (1 + x ** 2)).max() < 1e-14
    assert np.abs(B.imag - (-2 * x) / (1 + x ** 2)).max() < 1e-14


def test_unimodular_on_real_line():
    rng = np.random.default_rng(0)
    p = BlaschkeProfile(0.4, (1j, 1 + 2j, -0.5 + 0.3j))
    x = rng.uniform(-100, 100, 100)
    assert np.abs(np.abs(blaschke_eval(p, x)) - 1.0).max() < 1e-12


def test_zero_validation():
    with pytest.raises(ValueError):
        BlaschkeProfile(0.0, (1j, -1j))
    with pytest.raises(ValueError):
        BlaschkeProfile(1.0, (1j,))


def test_profile_eval_values():
    p = BlaschkeProfile(0.0, (1j,))
    assert np.allclose(profile_eval(p, 0.0), [-1.0, 0.0, 0.0], atol=1e-14)
    p5 = BlaschkeProfile(0.5, (1j,))
    Q = profile_eval(p5, np.linspace(-10, 10, 41))
    assert np.abs(Q[..., 2] - 0.5).max() < 1e-15
    assert np.abs(np.linalg.norm(Q, axis=-1) - 1.0).max() < 1e-12


def test_energy_quantization_analytic():
    assert profile_energy(BlaschkeProfile(0.2)) == 0.0
    assert profile_energy(BlaschkeProfile(0.0, (1j,))) == pytest.approx(np.pi)
    assert profile_energy(BlaschkeProfile(0.5, (1j, 2j))) == pytest.approx(
        0.75 * 2 * np.pi)


@pytest.mark.parametrize("v", [0.0, 0.5])
@pytest.mark.parametrize("zeros", [(1j,), (1j, 1 + 2j), (1j, 1 + 2j, -1 + 1.5j)])
def test_energy_quadrature_within_one_percent(v, zeros):
    p = BlaschkeProfile(v, zeros)
    q = profile_energy_quadrature(p)
    e = profile_energy(p)
    assert abs(q - e) / e < 0.01


def test_residual_closed_form_zero():
    x = np.linspace(-50, 50, 1000)
    for v in (0.0, 0.5, 0.9):
        p = BlaschkeProfile(v, (1j,))
        assert profile_residual(p, x) < 1e-12


def test_residual_degree_two_closed_form_zero():
    x = np.linspace(-30, 30, 500)
    p = BlaschkeProfile(0.3, (1j, 0.5 + 1.5j))
    assert profile_residual(p, x) < 1e-12


def test_residual_constant_profile_zero():
    x = np.linspace(-10, 10, 101)
    assert profile_residual(BlaschkeProfile(0.5), x) < 1e-15


def test_residual_detects_non_solution():
    # push the third component off v and renormalize: not a profile
    p = BlaschkeProfile(0.5, (1j,))
    x = np.linspace(-10, 10, 201)

    def comp(i):
        def f(t):
            Q = profile_eval(p, t)
            Q[..., 2] = p.velocity + 0.2
            n = np.sqrt((Q ** 2).sum(-1))
            return Q[..., i] / n
        return f

    def dcomp(i):
        f = comp(i)
        return lambda t: (f(t + 1e-5) - f(t - 1e-5)) / 2e-5

    r = field_residual_quadrature(
        [comp(i) for i in range(3)], [dcomp(i) for i in range(3)],
        p.velocity, x)
    assert r > 1e-2


def test_rank_four_lax_spectrum():
    for v in (0.0, 0.3, 0.6, 0.9):
        alpha = np.sqrt(1 - v * v)
        eigs = np.sort(np.linalg.eigvalsh(rank_four_lax(v)))
        assert np.abs(eigs - [-2 * alpha, 0, 0, 2 * alpha]).max() < 1e-12


def test_rank_four_lax_hermitian_traceless():
    m = rank_four_lax(0.3)
    assert np.abs(m - m.conj().T).max() < 1e-15
    assert abs(np.trace(m)) < 1e-15
    assert np.sum(np.abs(m) ** 2) == pytest.approx(8 * (1 - 0.09), abs=1e-12)


def test_rank_four_lax_velocity_validation():
    with pytest.raises(ValueError):
        rank_four_lax(1.0)
    with pytest.raises(ValueError):
        rank_four_lax(float("nan"))


def test_basis_orthonormal_under_quadrature():
    X = 200.0
    x = np.linspace(-X, X, 200001)
    h = x[1] - x[0]
    phi = basis_phi(x)
    psi = basis_psi(x)
    assert abs(np.sum(phi * phi) * h - 1.0) < 1e-6
    # psi decays like 1/x, so the window [-X, X] captures only
    # (2/pi)(atan X - X/(1 + X^2)) of its unit norm; compare against that
    truncated = (2.0 / np.pi) * (np.arctan(X) - X / (1.0 + X * X))
    assert abs(np.sum(psi * psi) * h - truncated) < 1e-6
    assert 1.0 - truncated < 4.0 / (np.pi * X) + 1e-9  # tail bound
    assert abs(np.sum(phi * psi) * h) < 1e-12  # odd integrand


def test_commutator_formula_via_quadrature():
    # [H, f] phi = -psi for f = (x^2 - 1)/(1 + x^2) with the kernel
    # Hf(x) = (1/pi) pv int f(y)/(x - y) dy, which fixes H|grad| = -d/dx.
    # Partial fractions: H P = x/(1+x^2) and
    # H P^2 = x/(1+x^2)^2 + x/(2(1+x^2)) with P = 1/(1+x^2), so
    # [H, f] phi = -2 sqrt(2/pi) [H P^2 - P H P] = -psi.
    y = np.linspace(-200, 200, 200001)
    # evaluate at grid midpoints, where the punctured trapezoid sum for the
    # principal value is most accurate
    x_eval = np.linspace(-5, 5, 21) + 0.5 * (y[1] - y[0])
    f = (y ** 2 - 1) / (1 + y ** 2)
    phi = basis_phi(y)
    Hfphi = hilbert_quadrature(f * phi, y, x_eval)
    fHphi = ((x_eval ** 2 - 1) / (1 + x_eval ** 2)
             * hilbert_quadrature(phi, y, x_eval))
    lhs = Hfphi - fHphi
    rhs = -basis_psi(x_eval)
    assert np.abs(lhs - rhs).max() < 1e-4
