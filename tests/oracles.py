"""Reference paths for the tests: quadrature and finite-difference forms of
|grad|, H and Tr|L|^2 that avoid the FFT path they check, the complex-FFT
multiplier path with the H and d/dx symbols, and the rank-4 basis functions
of the degree-1 profile."""

import numpy as np

from halfwave_lab import spectral
from halfwave_lab.algebra import cross
from halfwave_lab.solitons import QUADRATURE_HALF_WIDTH

RESIDUAL_QUADRATURE_NUM = 40001  # grid points of each residual |grad| sum


def multiplier(f, symbol):
    """Apply symbol(n) of the mode numbers n in fft order along the last axis
    by the full complex transform; real or complex f, complex result.

    On a real f the result's real part is what the real transform on the
    modes 0..N/2 gives: at the Nyquist mode the complex path multiplies by
    symbol(-N/2), so an odd symbol leaves only an imaginary part there.
    """
    f = np.asarray(f)
    return np.fft.ifft(symbol(spectral.modes(f.shape[-1])) * spectral.fft(f),
                       axis=-1) * f.shape[-1]


def hilbert(f):
    """Periodic Hilbert transform, multiplier -i*sgn(n) with sgn(0) = 0."""
    return multiplier(f, lambda n: -1j * np.sign(n))


def deriv(f):
    """Spectral derivative d/dx, multiplier i*n."""
    return multiplier(f, lambda n: 1j * n)


def halfwave_quadrature(f):
    """Quadrature reference for |grad| from the singular-integral form

        (|grad| f)(x) = (1/4pi) p.v. Integral (f(x)-f(y)) / sin^2((x-y)/2) dy

    evaluated by the punctured trapezoid rule (diagonal dropped). The
    difference kernel regularizes the p.v.; the dropped diagonal costs an
    O(1/N) error per unit bandwidth, which halves as N doubles.
    """
    f = np.asarray(f, dtype=float)
    N = f.shape[-1]
    x = spectral.grid(N)
    dx = x[:, None] - x[None, :]
    s2 = np.sin(dx / 2.0) ** 2
    np.fill_diagonal(s2, 1.0)  # dummy, the diagonal numerator is zeroed
    diff = f[:, None] - f[None, :]
    np.fill_diagonal(diff, 0.0)
    return (diff / s2).sum(axis=1) * (2.0 * np.pi / N) / (4.0 * np.pi)


def fd_deriv(f):
    """Eighth-order centered finite-difference derivative on the periodic grid.

    Independent of the FFT path; used by quadrature oracles that need a
    pointwise derivative without touching Fourier space.
    """
    coef = (4 / 5, -1 / 5, 4 / 105, -1 / 280)  # offsets 1..4, antisymmetric
    f = np.asarray(f, dtype=float)
    out = np.zeros_like(f)
    for k, c in enumerate(coef, start=1):
        out += c * (np.roll(f, -k, axis=0) - np.roll(f, k, axis=0))
    return out / (2.0 * np.pi / f.shape[0])


def kernel_trace_oracle(field):
    """Tr(|L_S|^2) by direct double quadrature of the commutator kernel.

    With the Hilbert symbol -i*sgn(n), L has kernel
    (1/2pi) cot((x-y)/2) (S(x)-S(y)).sigma, so

        Tr(|L|^2) = (1/2pi^2) Integral |S(x)-S(y)|^2 cot^2((x-y)/2) dx dy.

    The integrand has a removable diagonal singularity with limit
    4|S'(x)|^2; the derivative is taken by finite differences to keep this
    path independent of the Fourier machinery.
    """
    S = field.values
    N = field.N
    h = 2.0 * np.pi / N
    x = spectral.grid(N)
    dx = x[:, None] - x[None, :]
    sin2 = np.sin(dx / 2.0)
    np.fill_diagonal(sin2, 1.0)
    cot2 = (np.cos(dx / 2.0) / sin2) ** 2
    dS2 = ((S[:, None, :] - S[None, :, :]) ** 2).sum(axis=-1)
    G = dS2 * cot2
    Sp = fd_deriv(S)
    np.fill_diagonal(G, 4.0 * (Sp ** 2).sum(axis=-1))
    return float(G.sum() * h * h / (2.0 * np.pi ** 2))


def trace_sq_closed_form(field, energy):
    """Closed form for Tr(|L_S|^2) under the -i*sgn(n) symbol convention:

        (8/pi) E[S] + (1/pi^2) |Integral S dx|^2 - 4.

    The constants were locked in by matching :func:`kernel_trace_oracle`
    on constant, great-circle, and tilted-circle fields.
    """
    total = field.values.sum(axis=0) * (2.0 * np.pi / field.N)
    return (8.0 / np.pi) * energy + float(total @ total) / np.pi ** 2 - 4.0


def _punctured_line_sum(term, y, x_eval):
    """(1/pi) sum_y term(x, x - y) * h at each x of x_eval, by the punctured
    trapezoid rule on the uniform grid y: the node within h/2 of x is
    dropped, and the symmetric puncture realizes the principal value."""
    h = y[1] - y[0]
    out = np.empty_like(np.asarray(x_eval, dtype=float))
    for i, xe in enumerate(np.ravel(x_eval)):
        d = xe - y
        near = np.abs(d) < 0.5 * h
        vals = np.where(near, 0.0, term(xe, np.where(near, 1.0, d)))
        out.flat[i] = vals.sum() * h / np.pi
    return out


def hilbert_quadrature(f_samples, y, x_eval):
    """Principal-value quadrature of (1/pi) Integral f(y)/(x - y) dy from
    samples on the uniform grid y, at points x_eval on or midway between
    grid points."""
    return _punctured_line_sum(lambda x, d: f_samples / d, y, x_eval)


def halfwave_quadrature_line(f, x_eval, half_width, num):
    """|grad| f on the real line from the singular-integral form

        (|grad| f)(x) = (1/pi) p.v. Integral (f(x) - f(y)) / (x - y)^2 dy

    by punctured trapezoid on [-half_width, half_width]; f is a callable.
    """
    y = np.linspace(-half_width, half_width, num)
    fy = f(y)
    return _punctured_line_sum(lambda x, d: (f(x) - fy) / (d * d), y, x_eval)


def field_residual_quadrature(component_fns, deriv_fns, velocity, x):
    """Traveling-wave residual for an arbitrary sampled unit field given as
    three callables (plus their derivatives); detects non-solutions."""
    x = np.asarray(x, dtype=float)
    Q = np.stack([f(x) for f in component_fns], axis=-1)
    Qp = np.stack([f(x) for f in deriv_fns], axis=-1)
    gQ = np.stack([halfwave_quadrature_line(f, x, QUADRATURE_HALF_WIDTH,
                                            RESIDUAL_QUADRATURE_NUM)
                   for f in component_fns], axis=-1)
    resid = cross(Q, gQ) - velocity * Qp
    return float(np.abs(resid).max())


def basis_phi(x):
    """First rank-4 basis function sqrt(2/pi)/(1+x^2); unit L^2 norm."""
    return np.sqrt(2.0 / np.pi) / (1.0 + x ** 2)


def basis_psi(x):
    """Second rank-4 basis function sqrt(1/2pi) * 2x/(1+x^2); unit L^2 norm."""
    return np.sqrt(1.0 / (2.0 * np.pi)) * 2.0 * x / (1.0 + x ** 2)
