import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfwave_lab.algebra import (cross, eta_cross, eta_dot, pauli_map,
                                  su11_map)

TOL = 1e-13
I2 = np.eye(2)
EPS = np.finfo(float).eps
vectors = st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3).map(np.array)


def random_vectors(n, seed=0):
    return np.random.default_rng(seed).standard_normal((n, 3))


def test_cross_basis():
    assert np.array_equal(cross([1, 0, 0], [0, 1, 0]), [0, 0, 1])
    assert np.array_equal(cross([0, 1, 0], [1, 0, 0]), [0, 0, -1])


def test_cross_self_vanishes():
    a = np.array([0.3, -1.2, 2.0])
    assert np.abs(cross(a, a)).max() == 0.0


@pytest.mark.parametrize("N", [1, 7, 256])
def test_cross_bitwise_equals_numpy(N):
    rng = np.random.default_rng(N)
    a, b = rng.standard_normal((2, N, 3))
    bt = rng.standard_normal((3, N)).T  # the strided layout the flow passes
    for x, y in ((a, b), (a, bt), (a[0], b), (a, b[0]), (a[0], b[0])):
        assert np.array_equal(cross(x, y), np.cross(x, y))
    assert np.array_equal(eta_cross(a, bt), np.array([-1.0, 1.0, 1.0])
                          * np.cross(a, bt))


def rounding_bound(a, b):
    """Rounding error bound of a . (a x b): 3 terms of 2 products each, so
    below 32 eps max|a|^2 max|b|, plus room for underflow."""
    amax, bmax = np.abs(a).max(), np.abs(b).max()
    return 32 * EPS * amax * amax * bmax + 1e-300


@settings(max_examples=200, deadline=None)
@given(vectors, vectors)
def test_cross_antisymmetric_and_orthogonal_property(a, b):
    assert np.array_equal(cross(a, b), -cross(b, a))
    assert abs(a @ cross(a, b)) <= rounding_bound(a, b)
    assert abs(b @ cross(a, b)) <= rounding_bound(b, a)


@settings(max_examples=200, deadline=None)
@given(vectors, vectors)
def test_eta_cross_eta_orthogonal_property(a, b):
    assert abs(eta_dot(a, eta_cross(a, b))) <= rounding_bound(a, b)


def test_eta_dot_signature():
    assert eta_dot([1, 0, 0], [1, 0, 0]) == -1.0
    assert eta_dot([0, 1, 0], [0, 1, 0]) == 1.0
    assert eta_dot([1, 1, 0], [1, 0, 1]) == -1.0


def test_eta_cross_examples():
    assert np.allclose(eta_cross([1, 0, 0], [0, 1, 0]), [0, 0, 1])
    assert np.allclose(eta_cross([0, 1, 0], [0, 0, 1]), [-1, 0, 0])
    a = np.array([0.4, 1.1, -0.7])
    assert np.abs(eta_cross(a, a)).max() == 0.0


def test_eta_cross_antisymmetric_and_orthogonal():
    for a, b in zip(random_vectors(20, 1), random_vectors(20, 2)):
        assert np.allclose(eta_cross(a, b), -eta_cross(b, a), atol=TOL)
        assert abs(eta_dot(a, eta_cross(a, b))) < TOL


def test_pauli_map_entries():
    assert np.allclose(pauli_map([0, 0, 1]), np.diag([1, -1]))
    m = pauli_map([0.5, -0.25, 0.75])
    assert np.allclose(m, m.conj().T)
    assert abs(np.trace(m)) < TOL


def test_pauli_product_rule():
    # sigma_1 sigma_2 = i sigma_3
    lhs = pauli_map([1, 0, 0]) @ pauli_map([0, 1, 0])
    assert np.allclose(lhs, 1j * pauli_map([0, 0, 1]), atol=TOL)
    for a, b in zip(random_vectors(30, 3), random_vectors(30, 4)):
        lhs = pauli_map(a) @ pauli_map(b)
        rhs = np.dot(a, b) * I2 + 1j * pauli_map(cross(a, b))
        assert np.abs(lhs - rhs).max() < TOL


def test_su11_product_rule():
    for a, b in zip(random_vectors(30, 5), random_vectors(30, 6)):
        lhs = su11_map(a) @ su11_map(b)
        rhs = eta_dot(a, b) * I2 + su11_map(eta_cross(a, b))
        assert np.abs(lhs - rhs).max() < TOL


def test_pauli_square_iff_unit():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = rng.standard_normal(3)
        a /= np.linalg.norm(a)
        assert np.abs(pauli_map(a) @ pauli_map(a) - I2).max() < TOL
    bad = pauli_map([1.0, 1.0, 0.0])
    assert np.abs(bad @ bad - I2).max() > 0.5


@pytest.mark.parametrize("seed", range(5))
def test_su11_square_iff_pseudounit(seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(2)
    a = np.array([np.sqrt(1.0 + v @ v), v[0], v[1]])
    assert abs(eta_dot(a, a) + 1.0) < TOL
    assert np.abs(su11_map(a) @ su11_map(a) + I2).max() < TOL
    # off the pseudosphere the square is not -identity
    assert np.abs(su11_map(2 * a) @ su11_map(2 * a) + I2).max() > 1.0


def test_su11_map_example():
    m = su11_map([1, 0, 0])
    assert np.allclose(m @ m, -I2, atol=TOL)
