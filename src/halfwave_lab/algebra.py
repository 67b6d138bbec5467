"""Vector and 2x2 matrix algebra for the two target geometries.

The sphere target uses the Pauli-matrix representation of R^3, the
hyperbolic target uses the su(1,1) representation of Minkowski 3-space
with metric signature (-,+,+). Both maps are linear, so they extend to
complex coefficient vectors (needed when mapping Fourier coefficients).
"""

import numpy as np

# Minkowski metric diag(-1, 1, 1) as a sign vector
ETA = np.array([-1.0, 1.0, 1.0])
_NEXT_ROWS = np.array([1, 2, 0, 1])  # rows i + 1 mod 3 for i = 0..3


def cross(a, b, out=None):
    """Euclidean cross product over the leading axis, into out (a (3, ...)
    array apart from a and b) if given; the trailing axes broadcast, and a
    (3,) vector meets each column of a (3, N) array.

    Row i is a_(i+1) b_(i+2) - a_(i+2) b_(i+1), indices mod 3, as np.cross
    forms it (the same bits for real input): with the rows 1, 2, 0, 1 of a
    and b gathered, two products and a difference make all three rows."""
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim != b.ndim:
        nd = max(a.ndim, b.ndim)
        a, b = (x.reshape(x.shape + (1,) * (nd - x.ndim)) for x in (a, b))
    a4, b4 = np.take(a, _NEXT_ROWS, axis=0), np.take(b, _NEXT_ROWS, axis=0)
    return np.subtract(a4[:3] * b4[1:], a4[1:] * b4[:3], out=out)


def eta_dot(a, b):
    """Minkowski inner product -a1*b1 + a2*b2 + a3*b3."""
    a = np.asarray(a)
    b = np.asarray(b)
    return (ETA * a * b).sum(axis=-1)


def eta_cross(a, b, out=None):
    """Minkowski cross-type product: eta applied to :func:`cross`."""
    out = cross(a, b, out)
    np.negative(out[0, ...], out=out[0, ...])
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
