"""Reference paths for the tests: quadrature and finite-difference forms of
|grad|, H and Tr|L|^2 that avoid the FFT path they check, the complex-FFT
multiplier path with the H and d/dx symbols, the O(N^2) chain force and the
chain-to-PDE force ratio, the plain (N, 3) time step that evolution's (3, N)
kernel replaced, an H^2 field off the circle family, the real-line energy
quadrature of a profile, and the rank-4 basis functions of the degree-1
profile."""

import numpy as np

from halfwave_lab import spectral
from halfwave_lab.algebra import ETA, cross, eta_dot
from halfwave_lab.chain import CONTINUUM_RESCALE, chain_op, chain_rhs
from halfwave_lab.evolution import MIDPOINT_MAXITER, MIDPOINT_TOL
from halfwave_lab.fields import HYPERBOLIC, SPHERE, SpinField
from halfwave_lab.solitons import profile_deriv, profile_eval

QUADRATURE_HALF_WIDTH = 200.0  # real-line quadratures run over [-200, 200]
ENERGY_QUADRATURE_NUM = 2001  # grid points of the energy double sum
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
    resid = cross(Q.T, gQ.T).T - velocity * Qp
    return float(np.abs(resid).max())


def profile_energy_quadrature(profile):
    """Energy by truncated double quadrature of the quadratic form

        E = (1/4pi) Integral Integral |Q(x) - Q(y)|^2 / (x - y)^2 dx dy.

    The diagonal limit |Q'(x)|^2 is inserted analytically. Tails decay
    like 1/x^2, so the truncation error is O(1/QUADRATURE_HALF_WIDTH).
    """
    x = np.linspace(-QUADRATURE_HALF_WIDTH, QUADRATURE_HALF_WIDTH,
                    ENERGY_QUADRATURE_NUM)
    h = x[1] - x[0]
    Q = profile_eval(profile, x)
    dQ2 = ((Q[:, None, :] - Q[None, :, :]) ** 2).sum(axis=-1)
    dx2 = (x[:, None] - x[None, :]) ** 2
    np.fill_diagonal(dx2, 1.0)
    G = dQ2 / dx2
    Qp = profile_deriv(profile, x)
    np.fill_diagonal(G, (Qp ** 2).sum(axis=-1))
    return float(G.sum() * h * h / (4.0 * np.pi))


def chain_rhs_direct(chain):
    """Reference O(N^2) chain force evaluation, one site at a time."""
    S = chain.values
    N = chain.N
    x = 2 * np.pi * np.arange(N) / N
    out = np.empty_like(S)
    for k in range(N):
        s2 = np.sin((x - x[k]) / 2.0) ** 2
        s2[k] = 1.0
        w = 1.0 / s2
        w[k] = 0.0
        force = S[k] * w.sum() - w @ S
        out[k] = cross(S[k], force)
    return out


def rescale_ratio(field_values, pde_rhs_values):
    """Fitted ratio |chain force| / (2N |PDE rhs|) on a sampled field.

    Pins the continuum time rescaling numerically: the ratio is 1 - 1/N at
    bandwidth 1 and tends to 1 as N grows.
    """
    force = chain_rhs(field_values.T).T
    scaled = CONTINUUM_RESCALE * len(field_values) * pde_rhs_values
    return float(np.linalg.norm(force) / np.linalg.norm(scaled))


def reference_rhs(values, target):
    """dS/dt of the flow on (N, 3) values: np.cross of S and |grad|S, with
    eta applied on H^2."""
    product = np.cross(values, spectral.halfwave_op(values.T).T)
    return product if target == SPHERE else ETA * product


def reference_chain_rhs(values, target):
    """The chain force S x A S on (N, 3) spins, with A = chain_op."""
    return np.cross(values, chain_op(values))


def reference_run(field, dt, nsteps, scheme, force, warm):
    """The (N, 3) values of field and of each of nsteps steps: the rk4 and
    implicit midpoint formulas on (N, 3) arrays, each new state scaled onto
    the target by np.linalg.norm (S^2) or eta_dot (H^2). The midpoint
    iteration starts from the Euler predictor, or, when warm, from the
    fourth step on, from S + 3(D1 - D2) + D3 of the last three increments."""
    S, target = field.values, field.target
    states = [S]
    for _ in range(nsteps):
        if scheme == "rk4":
            k1 = force(S, target)
            k2 = force(S + 0.5 * dt * k1, target)
            k3 = force(S + 0.5 * dt * k2, target)
            k4 = force(S + dt * k3, target)
            new = S + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        else:
            if warm and len(states) > 3:
                d3, d2, d1 = np.diff(states[-4:], axis=0)
                new = S + 3.0 * (d1 - d2) + d3
            else:
                new = S + dt * force(S, target)
            for _ in range(MIDPOINT_MAXITER):
                nxt = S + dt * force(0.5 * (S + new), target)
                delta = np.abs(nxt - new).max()
                new = nxt
                if delta < MIDPOINT_TOL:
                    break
            else:
                raise AssertionError("the reference midpoint did not converge")
        if target == SPHERE:
            S = new / np.linalg.norm(new, axis=1, keepdims=True)
        else:
            S = new / np.sqrt(-eta_dot(new, new)[:, None])
        states.append(S)
    return states


def hyperbolic_off_circle(N):
    """An H^2 field with modes 1..3 in both transverse components, off the
    circle family: X1 = sqrt(1 + Y^2 + Z^2) puts it on the sheet."""
    x = spectral.grid(N)
    y = 0.5 * np.cos(x) + 0.3 * np.sin(2 * x)
    z = 0.4 * np.sin(x) - 0.2 * np.cos(3 * x)
    return SpinField(np.stack([np.sqrt(1 + y * y + z * z), y, z], axis=1),
                     target=HYPERBOLIC)


def basis_phi(x):
    """First rank-4 basis function sqrt(2/pi)/(1+x^2); unit L^2 norm."""
    return np.sqrt(2.0 / np.pi) / (1.0 + x ** 2)


def basis_psi(x):
    """Second rank-4 basis function sqrt(1/2pi) * 2x/(1+x^2); unit L^2 norm."""
    return np.sqrt(1.0 / (2.0 * np.pi)) * 2.0 * x / (1.0 + x ** 2)
