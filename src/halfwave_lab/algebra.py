"""Vector and 2x2 matrix algebra for the two target geometries.

The sphere target uses the Pauli-matrix representation of R^3, the
hyperbolic target uses the su(1,1) representation of Minkowski 3-space
with metric signature (-,+,+). Both maps are linear, so they extend to
complex coefficient vectors (needed when mapping Fourier coefficients).
"""

import numpy as np

# Minkowski metric diag(-1, 1, 1) as a sign vector
ETA = np.array([-1.0, 1.0, 1.0])


def cross(a, b):
    """Euclidean cross product over the last axis; broadcasts over leading axes.

    Written out by component, which skips the axis handling of np.cross and
    gives the same bits for real input.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    c0 = a1 * b2 - a2 * b1
    out = np.empty(c0.shape + (3,), c0.dtype)
    out[..., 0] = c0
    out[..., 1] = a2 * b0 - a0 * b2
    out[..., 2] = a0 * b1 - a1 * b0
    return out


def eta_dot(a, b):
    """Minkowski inner product -a1*b1 + a2*b2 + a3*b3."""
    a = np.asarray(a)
    b = np.asarray(b)
    return (ETA * a * b).sum(axis=-1)


def eta_cross(a, b):
    """Minkowski cross-type product: eta applied to the Euclidean cross product."""
    out = cross(a, b)
    out[..., 0] = -out[..., 0]
    return out


def pauli_map(a):
    """Map a 3-vector to its Pauli-matrix image.

        [[a3, a1 - i a2],
         [a1 + i a2, -a3]]

    Hermitian and traceless for real a; squares to the identity exactly
    when |a| = 1.
    """
    a1, a2, a3 = np.asarray(a)
    return np.array([[a3, a1 - 1j * a2],
                     [a1 + 1j * a2, -a3]], dtype=complex)


def su11_map(a):
    """Map a 3-vector to its su(1,1) image.

        [[i a1, a2 + i a3],
         [a2 - i a3, -i a1]]

    Squares to minus the identity exactly when a .eta. a = -1.
    """
    a1, a2, a3 = np.asarray(a)
    return np.array([[1j * a1, a2 + 1j * a3],
                     [a2 - 1j * a3, -1j * a1]], dtype=complex)
