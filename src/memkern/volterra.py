"""Discrete convolution algebra on uniform time grids.

Everything here lives on the shared node convention t_j = j*tau, j = 1..N,
with no sample at t = 0 (the kernels are typically singular there).  The
quadrature behind both the convolution and the Volterra solver is product
integration: wherever a factor has an exact cell mass table, the singular
half of each convolution uses those masses against the other factor's node
averages, which removes the accuracy loss that plain trapezoid suffers next
to a t^-a endpoint.  Kernels without tables degrade gracefully to trapezoid
cell masses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import linalg

from .measure import MeasureSpec, gamma_bar
from . import kernels as _kernels
from .kernels import DiscreteKernel, GridMismatchError

__all__ = [
    "GridMismatchError",
    "DiscreteKernel",
    "conv",
    "solve_volterra_second_kind",
    "volterra_residual",
    "YosidaKernels",
    "yosida_kernels",
    "FundamentalIdentityReport",
    "fundamental_identity_residual",
    "sonine_partner",
    "sample_l",
    "sample_k",
    "sample_r_theta",
    "l1_distance",
    "l1_norm",
]


_TOEPLITZ_BLOCK = 64  # unknowns per triangular solve of _forward_substitution


def _check_compatible(a: DiscreteKernel, b: DiscreteKernel) -> None:
    if a.n != b.n:
        raise GridMismatchError(f"sample counts differ: {a.n} vs {b.n}")
    if abs(a.step - b.step) > 1e-12 * max(a.step, b.step):
        raise GridMismatchError(f"steps differ: {a.step} vs {b.step}")


# ---------------------------------------------------------------------------
# convolution


def _pl_weights(kern: DiscreteKernel) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell weights pairing this kernel's exact cell integrals with a
    linear interpolant of the other convolution factor: the cell over
    [t_{m-1}, t_m] contributes ``other_{j-m} * wl_m + other_{j-m+1} * wr_m``."""
    tau = kern.step
    t = kern.times
    a_m = kern.masses()
    b_m = kern.first_moments()
    wl = (b_m - (t - tau) * a_m) / tau
    wr = (t * a_m - b_m) / tau
    return wl, wr


def _second_differences(v: np.ndarray, tau: float) -> np.ndarray:
    """Centered second differences per node; zero at the two boundary nodes."""
    out = np.zeros_like(v)
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / tau**2
    return out


def conv(a: DiscreteKernel, b: DiscreteKernel) -> DiscreteKernel:
    """Product-integration convolution ``(a*b)(t_j) = int_0^{t_j} a(t_j-s)b(s) ds``.

    The integration range splits at the midpoint: cells near each factor's
    own singular end are integrated with that factor's exact cell moments
    against the quadratic interpolant of the other, smooth factor (linear
    through the cell's endpoint nodes plus a curvature correction weighted by
    the bubble moment).  The odd middle cell is symmetrized, so the operation
    commutes exactly and is bilinear in the samples and moment tables.
    """
    _check_compatible(a, b)
    tau, n = a.step, a.n
    av, bv = a.values, b.values
    wl_a, wr_a = _pl_weights(a)
    wl_b, wr_b = _pl_weights(b)
    d_a, d_b = a.bubble_moments(), b.bubble_moments()
    app = _second_differences(av, tau)
    bpp = _second_differences(bv, tau)
    a_exact = a.cell_mass is not None or a.head is not None
    b_exact = b.cell_mass is not None or b.head is not None
    out = np.empty(n)
    if a_exact and not b_exact:
        out[0] = bv[0] * a.masses()[0]
    elif b_exact and not a_exact:
        out[0] = av[0] * b.masses()[0]
    else:
        out[0] = 0.5 * (av[0] * b.masses()[0] + bv[0] * a.masses()[0])

    def _side(w_l, w_r, d, other, otherpp, j, count):
        # cells m' = 1..count of the exact factor against the other factor's
        # nodes at t_{j-m'} and t_{j-m'+1}
        lo = j - count
        acc = float(np.dot(w_l[:count], other[lo - 1:j - 1][::-1]))
        acc += float(np.dot(w_r[:count], other[lo:j][::-1]))
        acc -= 0.5 * float(np.dot(d[:count], otherpp[lo - 1:j - 1][::-1]))
        return acc

    for j in range(2, n + 1):
        m = j // 2
        acc = 0.0
        if m:
            acc += _side(wl_b, wr_b, d_b, av, app, j, m)
        acc += _side(wl_a, wr_a, d_a, bv, bpp, j, j - m)
        if j % 2 == 1:
            # the middle cell sat on a's side; average in b's treatment of it
            mid = m + 1  # cell index on b's side, sigma-cell j-m on a's side
            own_a = (bv[m - 1] * wl_a[j - m - 1] + bv[m] * wr_a[j - m - 1]
                     - 0.5 * d_a[j - m - 1] * bpp[m - 1])
            own_b = (av[j - mid - 1] * wl_b[mid - 1] + av[j - mid] * wr_b[mid - 1]
                     - 0.5 * d_b[mid - 1] * app[j - mid - 1])
            acc += 0.5 * (own_b - own_a)
        out[j - 1] = acc
    return DiscreteKernel(tau, out)


# ---------------------------------------------------------------------------
# second-kind solver with a piecewise-linear unknown


def _dyadic_panel_integral(f: Callable[[np.ndarray], np.ndarray],
                           n_panels: int) -> float:
    """Gauss-Legendre integral of f over (0, 1/2], panels refined toward 0;
    f gets every node in one call."""
    edges = np.concatenate(([0.0], 0.5 ** np.arange(n_panels, 0, -1)))
    x, w = _kernels._gauss_panels(edges, 16)
    return float(np.sum(w * f(x)))


def _first_cell_shape_weight(kernel_at: Callable[[np.ndarray], np.ndarray],
                             tau: float, g: float, a_high: float) -> float:
    """Weight ``int_0^tau (s/tau)^(g-1) * kernel(tau - s) ds``.

    Both the shape factor (at s=0) and the kernel (at s=tau) are singular;
    splitting at tau/2 and folding each half onto (0, 1/2] turns both into
    one-sided algebraic singularities that dyadic Gauss-Legendre panels
    resolve without cancellation near the endpoints.
    """
    n_shape = min(700, math.ceil(17.0 / (max(g, 0.01) * math.log10(2.0))))
    n_kern = min(700, math.ceil(17.0 / (max(1.0 - a_high, 0.01)
                                        * math.log10(2.0))))
    shape_half = _dyadic_panel_integral(
        lambda x: x ** (g - 1.0) * kernel_at(tau * (1.0 - x)), n_shape)
    kernel_half = _dyadic_panel_integral(
        lambda y: (1.0 - y) ** (g - 1.0) * kernel_at(tau * y), n_kern)
    return tau * (shape_half + kernel_half)


def _second_kind_weights(kernel: DiscreteKernel, g: float,
                         w_first_cell: float | None):
    """Assemble the product-integration weights for the second-kind scheme."""
    tau = kernel.step
    w_left, w_right = _pl_weights(kernel)
    kv = kernel.values
    # shape-ansatz weight of the unknown's first cell against the kernel
    w_shape = np.empty(kernel.n)
    w_shape[0] = (w_first_cell if w_first_cell is not None
                  else kernel.head_integral())
    if kernel.n > 1:
        w_shape[1:] = tau * (kv[1:] / g + (kv[:-1] - kv[1:]) / (g + 1.0))
    return w_left, w_right, w_shape


def _apply_second_kind(x: np.ndarray, w_left: np.ndarray, w_right: np.ndarray,
                       w_shape: np.ndarray) -> np.ndarray:
    """Evaluate the discrete convolution (x * kernel) under the solve scheme."""
    n = x.size
    out = np.empty(n)
    out[0] = x[0] * w_shape[0]
    if n > 1:
        cl = np.convolve(x, w_left)
        cr = np.convolve(x, w_right)
        j = np.arange(2, n + 1)
        sum_l = cl[j - 2]                      # sum_{m=1}^{j-1} wl_m x_{j-m}
        sum_r = cr[j - 1] - w_right[j - 1] * x[0]  # m = 1..j-1 of wr_m x_{j-m+1}
        out[1:] = x[0] * w_shape[1:] + sum_l + sum_r
    return out


def _forward_substitution(c: float, lam: float, weights, gv: np.ndarray
                          ) -> np.ndarray:
    """Node values x solving ``c*x + lam*(x*kernel) = g`` under the scheme.

    ``weights`` are the (w_left, w_right, w_shape) tables of
    ``_second_kind_weights``; c = 1 is the second-kind equation and c = 0
    with lam = 1 the first-kind one.  Once x_1 is known, its w_shape column
    moves to the right-hand side and x_2..x_N solve a lower-triangular
    Toeplitz system with lag-L weight lam*(w_left[L-1] + w_right[L]).  That
    is solved in blocks: the far field of the solved part is one
    ``np.convolve``, and the diagonal block one triangular solve.
    """
    w_left, w_right, w_shape = weights
    n = gv.size
    diag1 = c + lam * w_shape[0]
    diag = c + lam * w_right[0]
    if abs(diag1) < 1e-14 or abs(diag) < 1e-14:
        raise GridMismatchError("degenerate lam*step combination: zero diagonal")
    x = np.empty(n)
    x[0] = gv[0] / diag1
    lagw = np.empty(n - 1)
    lagw[:1] = diag
    lagw[1:] = lam * (w_left[:n - 2] + w_right[1:n - 1])
    rhs = gv[1:] - lam * x[0] * (w_shape[1:] + w_left[:n - 1])
    size = min(_TOEPLITZ_BLOCK, n - 1)
    block = linalg.toeplitz(lagw[:size], np.zeros(size))
    y = x[1:]
    for lo in range(0, n - 1, _TOEPLITZ_BLOCK):
        hi = min(lo + _TOEPLITZ_BLOCK, n - 1)
        known = rhs[lo:hi]
        if lo:
            known = known - np.convolve(lagw[1:hi], y[:lo], "valid")
        y[lo:hi] = linalg.solve_triangular(block[:hi - lo, :hi - lo], known,
                                           lower=True)
    return x


def solve_volterra_second_kind(g, kernel: DiscreteKernel, lam: float, *,
                               singular_exponent: float = 1.0,
                               first_cell_weight: float | None = None
                               ) -> DiscreteKernel:
    """Solve ``x + lam * (x * kernel) = g`` by forward substitution.

    ``g`` may be a DiscreteKernel, an array of node values, or a scalar
    (constant forcing).  The unknown is represented piecewise linearly with
    the exact kernel cell moments on its singular side; on the unknown's own
    first cell the profile ``x_1 * (s/tau)^(singular_exponent - 1)`` is used,
    so pass the known small-time exponent when solving for a kernel that
    blows up at zero and leave the default for bounded unknowns.  The
    returned solution satisfies the discrete scheme to round-off
    (see ``volterra_residual``).
    """
    tau, n = kernel.step, kernel.n
    if isinstance(g, DiscreteKernel):
        _check_compatible(g, kernel)
        gv = g.values
    else:
        gv = np.broadcast_to(np.asarray(g, dtype=float), (n,)).astype(float)
    if not (0.0 < singular_exponent <= 1.0):
        raise ValueError("singular_exponent must lie in (0, 1]")
    weights = _second_kind_weights(kernel, singular_exponent, first_cell_weight)
    return DiscreteKernel(tau, _forward_substitution(1.0, lam, weights, gv))


def volterra_residual(x: DiscreteKernel, kernel: DiscreteKernel, lam: float,
                      g, *, singular_exponent: float = 1.0,
                      first_cell_weight: float | None = None) -> float:
    """Sup-norm residual of x + lam*(x*kernel) - g under the solve scheme."""
    if isinstance(g, DiscreteKernel):
        gv = g.values
    else:
        gv = np.broadcast_to(np.asarray(g, dtype=float), (x.n,))
    w_left, w_right, w_shape = _second_kind_weights(kernel, singular_exponent,
                                                    first_cell_weight)
    res = x.values + lam * _apply_second_kind(x.values, w_left, w_right,
                                              w_shape) - gv
    return float(np.max(np.abs(res)))


# ---------------------------------------------------------------------------
# sampled kernels with exact tables


def sample_l(spec: MeasureSpec, step: float, n_steps: int) -> DiscreteKernel:
    """Sonine-partner samples with exact cell moment tables."""
    return sample_r_theta(spec, step, n_steps, 0.0)


def sample_k(spec: MeasureSpec, step: float, n_steps: int) -> DiscreteKernel:
    """Measure-kernel samples with exact cell tables from the iterated running
    integrals.

    With R1 = 1*k, R2 = 1*1*k, R3 = 1*1*1*k the antiderivatives of k, s*k and
    s^2*k are R1, t*R1 - R2 and t^2*R1 - 2t*R2 + 2*R3 respectively; cell
    moments are their differences, and the bubble moment combines them.
    """
    t = step * np.arange(1, n_steps + 1)
    vals, *running = _kernels._k_moments(spec, t, (0, 1, 2, 3))
    r1, r2, r3 = (np.concatenate(([0.0], r)) for r in running)
    t_e = np.concatenate(([0.0], t))
    a_m = np.diff(r1)
    b_m = np.diff(t_e * r1 - r2)
    c_m = np.diff(t_e**2 * r1 - 2.0 * t_e * r2 + 2.0 * r3)
    lo, hi = t_e[:-1], t_e[1:]
    d_m = -c_m + (lo + hi) * b_m - lo * hi * a_m
    return DiscreteKernel(step, vals, head=float(running[0][0]), cell_mass=a_m,
                          cell_first_moment=b_m, cell_bubble_moment=d_m)


def sample_r_theta(spec: MeasureSpec, step: float, n_steps: int,
                   theta: float) -> DiscreteKernel:
    """Resolvent samples with cell tables summed node by node, without
    differences of running integrals (``kernels._resolvent_cells``)."""
    vals, a_m, b_m, d_m = _kernels._resolvent_cells(spec, step, n_steps, theta)
    return DiscreteKernel(step, vals, head=float(a_m[0]), cell_mass=a_m,
                          cell_first_moment=b_m, cell_bubble_moment=d_m)


def l1_distance(a: DiscreteKernel, b: DiscreteKernel,
                horizon: float | None = None) -> float:
    """L1 distance of two sampled kernels up to the horizon: the head cells'
    difference plus the trapezoid rule from t_1 on."""
    _check_compatible(a, b)
    keep = a.n if horizon is None else min(a.n, int(round(horizon / a.step)))
    diff = np.abs(a.values[:keep] - b.values[:keep])
    return float(abs(a.head_integral() - b.head_integral())
                 + a.step * (np.sum(diff) - 0.5 * (diff[0] + diff[-1])))


def l1_norm(a: DiscreteKernel, horizon: float | None = None) -> float:
    """L1 norm of a sampled kernel: its distance to the zero kernel."""
    return l1_distance(a, a.scaled(0.0), horizon)


# ---------------------------------------------------------------------------
# Yosida approximation kernels


@dataclass(frozen=True)
class YosidaKernels:
    n: int
    h: DiscreteKernel    # resolvent kernel of n*l
    k_n: DiscreteKernel  # regularized memory kernel, = n * s_n = k * h_n
    s_n: DiscreteKernel  # relaxation kernel solving s + n*(s*l) = 1


def yosida_kernels(spec: MeasureSpec, n: int, step: float, n_steps: int, *,
                   l_kernel: DiscreteKernel | None = None,
                   k_kernel: DiscreteKernel | None = None) -> YosidaKernels:
    """Regularized kernels h_n, s_n and k_n = n*s_n on one grid.

    h_n solves h + n*(h*l) = n*l and inherits l's singularity at zero, so its
    solve runs with the measure's tail exponent shaping the first cell.  The
    regularized kernel is built from the bounded relaxation solution s_n
    (s_n + n*(s_n*l) = 1) through the exact identity k_n = n*s_n: unlike the
    convolution k*h_n, this stays well-posed when n is large enough that h_n
    concentrates inside the first grid cell.  The two constructions agree to
    discretization error wherever h_n is resolved (see the test suite).
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if l_kernel is None:
        l_kernel = sample_l(spec, step, n_steps)
    if k_kernel is None:
        k_kernel = sample_k(spec, step, n_steps)
    _check_compatible(l_kernel, k_kernel)
    gb = gamma_bar(spec)
    h = solve_volterra_second_kind(l_kernel.scaled(float(n)), l_kernel,
                                   float(n), singular_exponent=gb)
    s_n = solve_volterra_second_kind(1.0, l_kernel, float(n))
    # exact cell masses via (1*s_n)(t) = t - n*(1*1*r_n)(t): the first cell
    # holds most of k_n's mass once n outruns the grid, and the quadrature
    # route resolves it where any on-grid scheme cannot
    t = l_kernel.times
    running = t - float(n) * np.asarray(
        _kernels.resolvent_double_integral(spec, t, float(n)))
    masses = float(n) * np.diff(np.concatenate(([0.0], running)))
    k_n = DiscreteKernel(s_n.step, float(n) * s_n.values, cell_mass=masses)
    return YosidaKernels(n=n, h=h, k_n=k_n, s_n=s_n)


# ---------------------------------------------------------------------------
# fundamental identity for d/dt (k_n * u)


@dataclass(frozen=True)
class FundamentalIdentityReport:
    sup_residual: float
    remainder_min: float
    residuals: np.ndarray
    window: tuple[int, int]


def fundamental_identity_residual(k_n: DiscreteKernel, u: np.ndarray,
                                  H: Callable[[np.ndarray], np.ndarray],
                                  H_prime: Callable[[np.ndarray], np.ndarray],
                                  *, burn_in: float = 0.05
                                  ) -> FundamentalIdentityReport:
    """Residual of the chain-rule identity for the regularized operator.

    Both sides are assembled with the same discrete convolution and centered
    differences, so a linear H cancels to round-off.  The kernel derivative
    comes from centered differences of the k_n samples and the history
    integral from product trapezoid.  The sup-norm residual is taken over
    interior nodes past a burn-in fraction of the horizon (the centered
    differences amplify the kernel's steep start at a fixed node index as
    the grid refines); the convexity remainder is tracked at every interior
    node.
    """
    tau, n = k_n.step, k_n.n
    u = np.asarray(u, dtype=float)
    if u.shape != (n,):
        raise GridMismatchError("u must be sampled on the kernel grid")
    u0 = 2.0 * u[0] - u[1]  # linear extrapolation to t = 0
    hu = np.asarray(H(u), dtype=float)
    hp = np.asarray(H_prime(u), dtype=float)
    hu0 = float(H(np.array([u0]))[0])
    if not (np.all(np.isfinite(hu)) and np.all(np.isfinite(hp))
            and math.isfinite(hu0)):
        raise ValueError("H or H' not finite on the range of u")

    u_kern = DiscreteKernel(tau, u, head=0.5 * tau * (u0 + u[0]))
    hu_kern = DiscreteKernel(tau, hu, head=0.5 * tau * (hu0 + hu[0]))
    conv_u = conv(k_n, u_kern).values
    conv_hu = conv(k_n, hu_kern).values

    def _ddt(c: np.ndarray) -> np.ndarray:
        d = np.full(n, np.nan)
        d[1:-1] = (c[2:] - c[:-2]) / (2.0 * tau)
        return d

    d_conv_u = _ddt(conv_u)
    d_conv_hu = _ddt(conv_hu)
    # the kernel value multiplying (-H + H'u) goes through the same discrete
    # pipeline (d/dt of k_n * 1), so degenerate cases cancel identically
    ones_kern = DiscreteKernel(tau, np.ones(n), head=tau)
    k_equiv = _ddt(conv(k_n, ones_kern).values)

    kd = np.empty(n)  # -k_n'(t_j), centered inside, one-sided at the ends
    kv = k_n.values
    kd[1:-1] = -(kv[2:] - kv[:-2]) / (2.0 * tau)
    kd[0] = -(kv[1] - kv[0]) / tau
    kd[-1] = -(kv[-1] - kv[-2]) / tau

    # remainder_j = int_0^{t_j} [H(u(t_j - s)) - H(u_j) - H'(u_j)(u(t_j-s)-u_j)]
    #               * (-k_n'(s)) ds, expanded into three convolution sums
    full_hu = np.convolve(hu, kd)
    full_u = np.convolve(u, kd)
    csum = np.concatenate(([0.0], np.cumsum(kd)))
    j = np.arange(1, n + 1)
    a_sum = np.where(j >= 2, full_hu[np.maximum(j - 2, 0)], 0.0)
    b_sum = np.where(j >= 2, full_u[np.maximum(j - 2, 0)], 0.0)
    w_sum = csum[j - 1]  # sum_{i=1}^{j-1} kd_i
    interior = a_sum - hu * w_sum - hp * (b_sum - u * w_sum)
    end_term = 0.5 * (hu0 - hu - hp * (u0 - u)) * kd[j - 1]
    remainder = tau * (interior + end_term)

    lhs = hp * d_conv_u
    rhs = d_conv_hu + (-hu + hp * u) * k_equiv + remainder
    residuals = lhs - rhs

    lo = max(1, int(math.ceil(burn_in * n)))
    hi = n - 1
    if hi <= lo:
        raise ValueError("grid too short for the requested burn-in window")
    window_res = residuals[lo:hi]
    return FundamentalIdentityReport(
        sup_residual=float(np.max(np.abs(window_res))),
        remainder_min=float(np.min(remainder[1:hi])),
        residuals=residuals,
        window=(lo, hi),
    )


# ---------------------------------------------------------------------------
# first-kind Sonine oracle


def sonine_partner(spec: MeasureSpec, step: float, n_steps: int) -> DiscreteKernel:
    """Independent discrete solve of ``k * l = 1`` by product integration.

    The unknown is piecewise linear between nodes with the measure's tail
    exponent shaping its first cell, while k enters through its exact cell
    masses and first moments; this is the classical second-order product
    scheme for weakly singular first-kind equations and is independent of
    the Laplace-inversion route.
    """
    gb = gamma_bar(spec)
    k_kernel = sample_k(spec, step, n_steps)
    _, a_high = spec.support_bounds()
    w11 = _first_cell_shape_weight(lambda s: np.asarray(_kernels.k_eval(spec, s)),
                                   step, gb, a_high)
    weights = _second_kind_weights(k_kernel, gb, w11)
    return DiscreteKernel(step, _forward_substitution(0.0, 1.0, weights,
                                                      np.ones(n_steps)))
