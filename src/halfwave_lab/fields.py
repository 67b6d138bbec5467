"""SpinField, the one state type (S^2, H^2 and the chain), and initial families."""

import operator
import random
from dataclasses import dataclass

import numpy as np

from . import spectral
from .algebra import eta_dot

SPHERE = "sphere"
HYPERBOLIC = "hyperbolic"
RATIONAL_SCALE = 0.5  # size of the random_rational polynomial coefficients
BANDWIDTH_TOL = 1e-12  # bandwidth_of: relative size of a negligible mode


class ConstraintError(ValueError):
    """A field violates its pointwise target constraint."""


@dataclass
class SpinField:
    """values[k] at x_k = 2*pi*k/N: a unit spin on S^2 (target SPHERE, also
    the spin chain) or on the X1 > 0 sheet of the pseudosphere H^2."""

    values: np.ndarray  # (N, 3)
    time: float = 0.0
    target: str = SPHERE

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[1] != 3:
            raise ValueError("values must have shape (N, 3)")

    @property
    def N(self):
        return self.values.shape[0]

    def defect(self):
        """Max deviation of |S_k| from 1 (sphere) or of S .eta. S from -1."""
        if self.target == SPHERE:
            return float(np.abs(np.linalg.norm(self.values, axis=1) - 1.0).max())
        return float(np.abs(eta_dot(self.values, self.values) + 1.0).max())

    def renormalized(self):
        """The field scaled pointwise onto its target (see :func:`project`)."""
        return SpinField(project(self.values.T, self.target).T, self.time,
                         self.target)


def project(rows, target, max_defect=np.inf, out=None):
    """The (3, N) rows of N samples scaled pointwise onto target, into out
    (new, in rows' layout, by default). Raises ConstraintError, before any
    write, for an H^2 sample off the X1 > 0 sheet or a defect past max_defect."""
    sq = rows * rows  # summed in the order of np.linalg.norm and eta_dot
    if target == SPHERE:
        scale = np.sqrt(sq[0] + sq[1] + sq[2])
        defect = np.abs(scale - 1.0).max()
    else:
        q = -(sq[1] - sq[0] + sq[2])  # -y0*y0 + y1*y1 is this difference
        if not ((rows[0] > 0.0).all() and (q > 0.0).all()):  # NaN fails too
            raise ConstraintError("pseudosphere renormalization failed: "
                                  "field left the X1 > 0 sheet")
        defect = np.abs(q - 1.0).max()  # |S.eta.S + 1|
        scale = np.sqrt(q)
    if not defect <= max_defect:  # a NaN sample fails it too
        raise ConstraintError(f"defect {defect:.3e} before renormalization "
                              f"exceeds {max_defect:.3g}")
    return np.divide(rows, scale, out=out)


# ---------------------------------------------------------------------------
# Named initial-condition families
# ---------------------------------------------------------------------------

def constant_field(N, direction=None, target=SPHERE):
    """direction, scaled onto the target, at every site; the default is
    (0, 0, 1) on S^2 and (1, 0, 0) on H^2, where d1 > |(d2, d3)| is needed."""
    if direction is None:
        direction = (0.0, 0.0, 1.0) if target == SPHERE else (1.0, 0.0, 0.0)
    d = np.asarray(direction, dtype=float)
    norm = np.linalg.norm(d)
    if not (np.isfinite(norm) and norm > 0.0):
        raise ValueError(f"direction must be finite and nonzero, got {direction}")
    if target == SPHERE:
        return SpinField(np.tile(d / norm, (N, 1)))
    return SpinField(np.tile(d, (N, 1)), target=HYPERBOLIC).renormalized()


def tilted_circle(N, a, c, t=0.0):
    """(a cos(x + ct), a sin(x + ct), c) with a^2 + c^2 = 1: the exact
    solution rotating with frequency c, at time t."""
    if not abs(a * a + c * c - 1.0) <= 1e-12:  # a NaN fails it too
        raise ValueError(f"tilted circle requires a^2 + c^2 = 1, got a={a}, c={c}")
    x = spectral.grid(N) + c * t
    return SpinField(np.stack([a * np.cos(x), a * np.sin(x),
                               np.full(N, float(c))], axis=1), t)


def hyperbolic_circle(N, a, t=0.0):
    """(b, a cos(x + bt), a sin(x + bt)) with b = sqrt(1 + a^2): the exact
    solution rotating with frequency b, at time t."""
    b = np.sqrt(1.0 + a * a)
    if not np.isfinite(b):  # a NaN or an infinite a, or a * a overflowing
        raise ValueError("hyperbolic circle requires finite a and b = "
                         f"sqrt(1 + a^2), got a={a}")
    x = spectral.grid(N) + b * t
    return SpinField(np.stack([np.full(N, b), a * np.cos(x),
                               a * np.sin(x)], axis=1), t, HYPERBOLIC)


def _standard_normals(seed, count):
    """count standard normals drawn by random.Random(seed), as an array.

    The standard library's generator spares a run the import of
    numpy.random (about 6 MB of resident memory). The seed must be an
    integer (TypeError otherwise) and >= 0 (ValueError), where
    random.Random would seed -s like s and hash a float.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = random.Random(seed)
    return np.array([rng.gauss(0.0, 1.0) for _ in range(count)])


def random_band_limited(N, bandwidth, seed, amplitude=0.3):
    """Unit field: north pole plus a band-limited perturbation, renormalized.

    The cos and sin amplitudes of modes 1..bandwidth are standard normals
    drawn from random.Random(seed) (see _standard_normals), scaled by
    amplitude / bandwidth. The perturbation amplitude keeps the Fourier
    tail of the normalized field decaying fast, which the Lax rank
    diagnostics rely on.
    """
    if bandwidth < 1:
        raise ValueError(f"bandwidth must be >= 1, got {bandwidth}")
    amps = _standard_normals(seed, bandwidth * 6).reshape(bandwidth, 3, 2)
    x = spectral.grid(N)
    vals = np.tile([0.0, 0.0, 1.0], (N, 1))
    for n, amp in enumerate(amps * amplitude / bandwidth, start=1):
        vals += (amp[:, 0] * np.cos(n * x)[:, None]
                 + amp[:, 1] * np.sin(n * x)[:, None])
    return SpinField(vals).renormalized()


def random_rational(N, degree, seed):
    """Random rational unit field via inverse stereographic projection.

    w(e^{ix}) is a random polynomial of the given degree; the projected
    field S = (2 Re w, 2 Im w, |w|^2 - 1)/(|w|^2 + 1) is exactly unit norm
    and rational in e^{ix}, so its Lax operator has exact finite rank.
    Pointwise renormalization of a trigonometric polynomial would not be
    rational, which is why the rank diagnostics use this family. The real
    and then the imaginary parts of the coefficients are standard normals
    drawn from random.Random(seed) (see _standard_normals).
    """
    real, imag = _standard_normals(seed, 2 * (degree + 1)).reshape(2, -1)
    c = real + 1j * imag
    c *= RATIONAL_SCALE / (1.0 + np.arange(degree + 1))
    z = np.exp(1j * spectral.grid(N))
    w = np.polyval(c[::-1], z)
    d = np.abs(w) ** 2 + 1.0
    vals = np.stack([2.0 * w.real / d, 2.0 * w.imag / d,
                     (np.abs(w) ** 2 - 1.0) / d], axis=1)
    return SpinField(vals)


def bandwidth_of(values):
    """Largest |mode| with a coefficient above BANDWIDTH_TOL * max(top, 1)."""
    coeffs = spectral.fft(np.asarray(values, dtype=float).T)
    mags = np.abs(coeffs).max(axis=0)
    n = np.abs(spectral.modes(mags.shape[0]))
    active = mags > BANDWIDTH_TOL * max(mags.max(), 1.0)
    if not active.any():
        return 0
    return int(n[active].max())
