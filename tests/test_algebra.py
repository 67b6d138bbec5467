"""The target algebra: the Minkowski product of H^2 and the Clifford
identities of the Pauli and su(1,1) maps that lax builds L from."""

import numpy as np
import pytest

from halfwave_lab.evolution import ETA
from halfwave_lab.lax import pauli_map, su11_map
from oracles import eta_dot

TOL = 1e-13
I2 = np.eye(2)


def random_vectors(n, seed=0):
    return np.random.default_rng(seed).standard_normal((n, 3))


def test_eta_dot_signature():
    assert eta_dot([1, 0, 0], [1, 0, 0]) == -1.0
    assert eta_dot([0, 1, 0], [0, 1, 0]) == 1.0
    assert eta_dot([1, 1, 0], [1, 0, 1]) == -1.0


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
        rhs = np.dot(a, b) * I2 + 1j * pauli_map(np.cross(a, b))
        assert np.abs(lhs - rhs).max() < TOL


def test_su11_product_rule():
    for a, b in zip(random_vectors(30, 5), random_vectors(30, 6)):
        lhs = su11_map(a) @ su11_map(b)
        rhs = eta_dot(a, b) * I2 + su11_map(ETA * np.cross(a, b))
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
