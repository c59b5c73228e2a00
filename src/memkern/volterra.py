"""Discrete convolution algebra on uniform time grids.

Everything here lives on the shared node convention t_j = j*tau, j = 1..N,
with no sample at t = 0 (the kernels are typically singular there).  The
quadrature behind both the convolution and the first-kind Sonine oracle is
product integration: wherever a factor has an exact cell mass table, the
singular half of each convolution uses those masses against the other
factor's node averages, which removes the accuracy loss that plain
trapezoid suffers next to a t^-a endpoint.  Kernels without tables degrade
gracefully to trapezoid cell masses.  Two O(N log^2 N) engines share one
FFT block product: the half-range product of ``conv``, and the Toeplitz
engine of the first-kind solve and the stepper's history (dense blocks
are numpy strided views; only the solve imports scipy's triangular
solver).  The sampled l and r_theta and the Yosida kernels need no solve:
they are exponential sums with cell tables from ``kernels._resolvent_kernels``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .measure import MeasureSpec, gamma_bar
from . import kernels as _kernels
from .kernels import DiscreteKernel, GridMismatchError

__all__ = [
    "GridMismatchError",
    "DiscreteKernel",
    "conv",
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


_TOEPLITZ_BLOCK = 64     # base block B of the lower-triangular Toeplitz engine
_DENSE_FAR_FIELD = 128   # far-field spans s up to this are one dense matmul
_FFT_CHUNK_BYTES = 1 << 18  # spectrum bytes of one column chunk of the FFT path
_BURN_IN = 0.05  # fraction of the horizon fundamental_identity_residual skips


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


def conv(a: DiscreteKernel, b: DiscreteKernel) -> DiscreteKernel:
    """Product-integration convolution ``(a*b)(t_j) = int_0^{t_j} a(t_j-s)b(s) ds``.

    The integration range splits at the midpoint: cells near each factor's
    own singular end are integrated with that factor's exact cell moments
    against the quadratic interpolant of the other, smooth factor (linear
    through the cell's endpoint nodes plus a curvature correction weighted by
    the bubble moment): cell q of one factor meets node i of the other at
    t_(q+i+1), q < i on b's side and q <= i on a's, so both sides are one
    ``_half_range_product``, O(N log^2 N).  The odd middle cell q = i is
    averaged over both sides, so the operation commutes exactly and is
    bilinear in the samples and moment tables.
    """
    _check_compatible(a, b)
    tau, n = a.step, a.n
    w, x = np.zeros((2, 6, n))
    for row, own, other in ((0, b, a.values), (3, a, b.values)):
        w[row + 1], w[row] = _pl_weights(own)
        w[row + 2] = -0.5 * own.bubble_moments()
        # wl and the curvature meet the other factor one node back
        x[row], x[row + 1, 1:] = other, other[:-1]
        x[row + 2, 2:] = (other[2:] - 2.0 * other[1:-1] + other[:-2]) / tau**2
    out = _half_range_product(w, x)
    # first cell: one factor's exact cell mass against the other's first
    # sample, or the mean of both ways when both or neither have one
    a_exact, b_exact = (k.cell_mass is not None for k in (a, b))
    own_a = 0.5 if a_exact == b_exact else float(a_exact)
    out[0] = ((1.0 - own_a) * a.values[0] * b.masses()[0]
              + own_a * b.values[0] * a.masses()[0])
    return DiscreteKernel(tau, out)


_LEAF = 16  # leaf blocks of _half_range_product, dense triangles
# row (q, i) of a leaf block adds to its output q + i: 1 if q < i, 1/2 if q = i
_LEAF_SUMS = np.array([[(q + i == d) * (0.5 if q == i else q < i)
                        for d in range(2 * _LEAF)]
                       for q in range(_LEAF) for i in range(_LEAF)])


def _half_range_product(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``out[J] = sum_p sum_{q <= i, q + i = J} w[p, q] x[p, i]``, J < n,
    the terms q = i halved, for w and x of shape (pairs, n).  Zero-padded to
    a power of two, each pair q < i lies in opposite halves of one dyadic
    block: every level multiplies the blocks' first halves of w by their
    second halves of x in one ``_fft_product``, down to dense leaf
    triangles.  Only blocks that start below n/2 reach J < n."""
    pairs, n = w.shape
    size = max(_LEAF, 1 << (n - 1).bit_length())
    wp, xp = np.zeros((2, pairs, size))
    wp[:, :n], xp[:, :n] = w, x
    out = np.zeros(2 * size)
    nb = -(-n // (2 * _LEAF))  # leaf blocks with 2o < n
    wl = wp.reshape(pairs, -1, _LEAF)[:, :nb].transpose(1, 2, 0)
    xl = xp.reshape(pairs, -1, _LEAF)[:, :nb].transpose(1, 0, 2)
    out.reshape(-1, 2 * _LEAF)[:nb] += (wl @ xl).reshape(nb, -1) @ _LEAF_SUMS
    m = 2 * _LEAF
    while m <= size and m // 2 < n:
        h = m // 2
        nb = -(-(n - h) // (2 * m))  # blocks with 2o + h < n
        w_lo, x_hi = (a.reshape(pairs, -1, m)[:, :nb, s].transpose(0, 2, 1)
                      for a, s in ((wp, slice(h)), (xp, slice(h, m))))
        _fft_product(w_lo, x_hi, out.reshape(-1, 2 * m)[:nb, h:3 * h - 1].T, 0)
        m *= 2
    return out[:n]


# ---------------------------------------------------------------------------
# lower-triangular Toeplitz engine


def _toeplitz(lags: np.ndarray, size: int) -> np.ndarray:
    """The (size, size) Toeplitz matrix ``T[i, j] = lags[size - 1 + i - j]``
    of ``2 * size - 1`` lags, as a C-contiguous copy of reversed windows."""
    return sliding_window_view(lags, size)[:, ::-1].copy()


class _ToeplitzHistory:
    """Far field of the lower-triangular Toeplitz product ``T x``,
    ``T[i, j] = column[i - j]``, by the divide and conquer of Hairer, Lubich
    & Schlichte (SIAM J. Sci. Stat. Comput. 6, 1985).

    The rows split into base blocks of ``_TOEPLITZ_BLOCK``.  At a block start
    ``lo`` the rows ``x[lo-s : lo]``, ``s = B * lowbit(lo / B)``, are added to
    rows ``[lo, lo+s)``; over all block starts that counts every pair of rows
    in different base blocks exactly once, at a cost of O(N log^2 N).  The
    pairs inside a base block, the near field, are left to the caller.
    """

    def __init__(self, column: np.ndarray):
        self.column = np.asarray(column, dtype=float)
        self._dense: dict[int, np.ndarray] = {}

    def far_field(self, x: np.ndarray, out: np.ndarray, lo: int) -> None:
        """Add ``sum_{lo-s <= j < lo} column[i-j] x[j]`` to ``out[i]`` for the
        rows ``i`` of ``[lo, lo+s)`` that ``out`` has.  ``x`` and ``out`` may
        be one array: the update reads rows below ``lo`` and writes rows from
        ``lo`` on.  Spans up to ``_DENSE_FAR_FIELD`` are one cached dense
        Toeplitz matmul; longer ones one ``_fft_product``."""
        blocks = lo // _TOEPLITZ_BLOCK
        s = _TOEPLITZ_BLOCK * (blocks & -blocks)
        rows = min(s, out.shape[0] - lo)
        src = x[lo - s:lo]
        if s <= _DENSE_FAR_FIELD:
            block = self._dense.get(s)
            if block is None:
                lags = self.column[1:2 * s]  # lag s + p - q at (p, q)
                block = self._dense[s] = _toeplitz(lags, s)
            out[lo:lo + rows] += block[:rows] @ src
            return
        _fft_product(self.column[None, 1:2 * s, None], src[None],
                     out[lo:lo + rows], s - 1)


def _fft_product(w: np.ndarray, x: np.ndarray, out: np.ndarray,
                 skip: int) -> None:
    """Add rows ``skip ..`` of ``sum_p w[p] * x[p]``, linear convolutions
    along axis 1, to ``out`` (rows x columns); w broadcasts against x.  Real
    FFTs of length ``2 * x.shape[1]``, in column chunks of about
    ``_FFT_CHUNK_BYTES`` of spectrum, summed over p before the inverse.
    (numpy's FFT: scipy's plan cache held about 2 MB more at peak.)"""
    size = 2 * x.shape[1]
    spectrum = np.broadcast_to(np.fft.rfft(w, size, axis=1),
                               x.shape[:1] + (size // 2 + 1,) + x.shape[2:])
    width = max(1, _FFT_CHUNK_BYTES // (16 * (size // 2 + 1) * x.shape[0]))
    for c in range(0, x.shape[2], width):
        chunk = np.fft.rfft(x[:, :, c:c + width], size, axis=1)
        chunk *= spectrum[:, :, c:c + width]
        rows = np.fft.irfft(chunk.sum(axis=0), size, axis=0)
        out[:, c:c + width] += rows[skip:skip + out.shape[0]]


def _toeplitz_solve(column: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``T x = rhs`` for the lower-triangular Toeplitz ``T`` with first
    column ``column``; ``rhs`` is ``(n,)`` or ``(n, k)``.  The far-field sums
    of ``_ToeplitzHistory`` build up in the unsolved rows of ``x``, and each
    base block then takes one triangular solve.  NaN and inf pass through
    to ``x``, where ``solver.solve`` names the first time they reach."""
    from scipy.linalg import solve_triangular

    n = rhs.shape[0]
    history = _ToeplitzHistory(column)
    size = min(_TOEPLITZ_BLOCK, n)
    block = _toeplitz(np.concatenate((np.zeros(size - 1),
                                      history.column[:size])), size)
    x = np.zeros(rhs.shape)
    x2, rhs2 = (x, rhs) if rhs.ndim == 2 else (x[:, None], rhs[:, None])
    for lo in range(0, n, _TOEPLITZ_BLOCK):
        hi = min(lo + _TOEPLITZ_BLOCK, n)
        if lo:
            history.far_field(x2, x2, lo)
        x2[lo:hi] = solve_triangular(block[:hi - lo, :hi - lo],
                                     rhs2[lo:hi] - x2[lo:hi], lower=True,
                                     check_finite=False)
    return x


# ---------------------------------------------------------------------------
# first-kind product integration with a piecewise-linear unknown


def _first_kind_weights(kernel: DiscreteKernel, g: float,
                        w_first_cell: float):
    """Product-integration weights (w_left, w_right, w_shape) of the scheme
    whose unknown is linear between nodes and ``x_1 * (s/tau)^(g-1)`` on its
    first cell; ``w_first_cell`` is that shape integrated against the kernel
    over (0, tau]."""
    tau = kernel.step
    w_left, w_right = _pl_weights(kernel)
    kv = kernel.values
    w_shape = np.empty(kernel.n)
    w_shape[0] = w_first_cell
    w_shape[1:] = tau * (kv[1:] / g + (kv[:-1] - kv[1:]) / (g + 1.0))
    return w_left, w_right, w_shape


def _forward_substitution(weights, gv: np.ndarray) -> np.ndarray:
    """Node values x solving the first-kind equation ``x * kernel = g``
    under the scheme of ``_first_kind_weights``.

    Once x_1 is known, its w_shape column moves to the right-hand side and
    x_2..x_N solve a lower-triangular Toeplitz system with lag-L weight
    w_left[L-1] + w_right[L], which ``_toeplitz_solve`` takes in
    O(N log^2 N).
    """
    w_left, w_right, w_shape = weights
    n = gv.size
    if abs(w_shape[0]) < 1e-14 or abs(w_right[0]) < 1e-14:
        raise GridMismatchError("degenerate step: zero diagonal")
    x = np.empty(n)
    x[0] = gv[0] / w_shape[0]
    lagw = np.empty(n - 1)
    lagw[:1] = w_right[0]
    lagw[1:] = w_left[:n - 2] + w_right[1:n - 1]
    x[1:] = _toeplitz_solve(lagw,
                            gv[1:] - x[0] * (w_shape[1:] + w_left[:n - 1]))
    return x


# ---------------------------------------------------------------------------
# sampled kernels with exact tables


def sample_l(spec: MeasureSpec, step: float, n_steps: int) -> DiscreteKernel:
    """Sonine-partner samples with exact cell moment tables."""
    return sample_r_theta(spec, step, n_steps, 0.0)


def sample_k(spec: MeasureSpec, step: float, n_steps: int) -> DiscreteKernel:
    """Measure-kernel samples with exact cell tables: masses and first
    moments as differences of R1 = 1*k and t*R1 - R2, R2 = 1*1*k; bubbles
    ``int (s - t_(m-1))(t_m - s) k`` as ``tau R2 - 2 R3`` on the first cell
    and as Gauss-Legendre sums of positive terms on the others, which lie a
    step or more from the pole of k at 0."""
    t = _kernels._grid_times(step, n_steps)
    vals, *running = _kernels._k_moments(spec, t, (0, 1, 2, 3))
    r1, r2 = (np.concatenate(([0.0], r)) for r in running[:2])
    t_e = np.concatenate(([0.0], t))
    a_m = np.diff(r1)
    b_m = np.diff(t_e * r1 - r2)
    d_m = np.empty(n_steps)
    d_m[0] = step * running[1][0] - 2.0 * running[2][0]
    # cell m is 2m - 1 half-widths from the pole: n points err ~ (4m)^-2n
    for first, last, order in ((1, 16, 10), (16, 256, 5), (256, n_steps, 3)):
        edges = t[first - 1:last]
        x, w = _kernels._gauss_panels(edges, order)
        d_m[first:last] = np.sum(
            w * (x - edges[:-1, None]) * (edges[1:, None] - x)
            * _kernels._k_moments(spec, x, (0,))[0], axis=1)
    return DiscreteKernel(step, vals, cell_mass=a_m, cell_first_moment=b_m,
                          cell_bubble_moment=d_m)


def sample_r_theta(spec: MeasureSpec, step: float, n_steps: int,
                   theta: float) -> DiscreteKernel:
    """Resolvent samples with cell tables summed node by node, without
    differences of running integrals (``kernels._resolvent_kernels``)."""
    return _kernels._resolvent_kernels(spec, theta, step, n_steps)[0]


def l1_distance(a: DiscreteKernel, b: DiscreteKernel,
                horizon: float | None = None) -> float:
    """L1 distance of two sampled kernels up to the horizon: the head cells'
    difference plus the trapezoid rule from t_1 on.  A horizon that is NaN
    or rounds to no node raises ``GridMismatchError``."""
    _check_compatible(a, b)
    nodes = a.n if horizon is None else horizon / a.step
    if not nodes > 0.5:  # round(0.5) is 0
        raise GridMismatchError(f"horizon {horizon} reaches no node of the "
                                f"grid of step {a.step}")
    keep = round(min(a.n, nodes))
    diff = np.abs(a.values[:keep] - b.values[:keep])
    return float(abs(a.masses()[0] - b.masses()[0])
                 + a.step * (np.sum(diff) - 0.5 * (diff[0] + diff[-1])))


def l1_norm(a: DiscreteKernel, horizon: float | None = None) -> float:
    """L1 norm of a sampled kernel: its distance to the zero kernel."""
    return l1_distance(a, a.scaled(0.0), horizon)


# ---------------------------------------------------------------------------
# Yosida approximation kernels


@dataclass(frozen=True)
class YosidaKernels:
    n: int
    h: DiscreteKernel    # h_n = n*r_n, r_n the resolvent at theta = n
    k_n: DiscreteKernel  # regularized memory kernel n*s_n = k*h_n
    s_n: DiscreteKernel  # n*sum (c/p) exp(-p t), solving s + n*(s*l) = 1


def yosida_kernels(spec: MeasureSpec, n: int, step: float, n_steps: int
                   ) -> YosidaKernels:
    """Regularized kernels h_n, s_n and k_n = n*s_n on one grid, with exact
    cell tables.

    On the node table at theta = n the resolvent is r_n = sum c exp(-p t)
    (r_n + n*(r_n*l) = l).  So h_n = n*r_n solves h + n*(h*l) = n*l, and
    s_n = 1 - n*(1*r_n) = n*sum (c/p) exp(-p t) solves s + n*(s*l) = 1,
    because sum c/p = 1/n (H_n >= 0, and 1/n is r_n's Laplace transform at
    0).  Both are n times the ``kernels._resolvent_kernels`` of powers 0
    and 1: sums of nonnegative terms over the one table, with no solve and
    no difference of running integrals; k_n = n*s_n stays exact when n
    outruns the grid and h_n concentrates inside the first cell.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    theta = float(n)
    h, s_n = (k.scaled(theta) for k in _kernels._resolvent_kernels(
        spec, theta, step, n_steps, (0, 1)))
    return YosidaKernels(n=n, h=h, k_n=s_n.scaled(theta), s_n=s_n)


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
                                  H_prime: Callable[[np.ndarray], np.ndarray]
                                  ) -> FundamentalIdentityReport:
    """Residual of the chain-rule identity for the regularized operator.

    Both sides are assembled with the same discrete convolution and centered
    differences, so a linear H cancels to round-off.  The kernel derivative
    comes from centered differences of the k_n samples and the history
    integral from product trapezoid, so the residual measures how ``conv``'s
    product integration and those trapezoid sums disagree, not how accurate
    k_n is: exact cell tables for k_n raise it.  The sup-norm residual is
    taken over interior nodes past the first ``_BURN_IN`` of the horizon (the
    centered differences amplify the kernel's steep start at a fixed node
    index as the grid refines); the convexity remainder is tracked at every
    interior node.
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

    def _trapezoid(v: np.ndarray, v0: float) -> DiscreteKernel:
        # samples with the trapezoid cell masses, v0 the value at t = 0
        return DiscreteKernel(
            tau, v, cell_mass=0.5 * tau * (np.append(v0, v[:-1]) + v))

    conv_u = conv(k_n, _trapezoid(u, u0)).values
    conv_hu = conv(k_n, _trapezoid(hu, hu0)).values

    def _ddt(c: np.ndarray) -> np.ndarray:
        d = np.full(n, np.nan)
        d[1:-1] = (c[2:] - c[:-2]) / (2.0 * tau)
        return d

    d_conv_u = _ddt(conv_u)
    d_conv_hu = _ddt(conv_hu)
    # the kernel value multiplying (-H + H'u) goes through the same discrete
    # pipeline (d/dt of k_n * 1), so degenerate cases cancel identically
    k_equiv = _ddt(conv(k_n, _trapezoid(np.ones(n), 1.0)).values)

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

    lo = max(1, int(math.ceil(_BURN_IN * n)))
    hi = n - 1
    if hi <= lo:
        raise ValueError("grid too short for the burn-in window")
    window_res = residuals[lo:hi]
    return FundamentalIdentityReport(
        sup_residual=float(np.max(np.abs(window_res))),
        remainder_min=float(np.min(remainder[1:hi])),
        residuals=residuals,
        window=(lo, hi),
    )


# ---------------------------------------------------------------------------
# first-kind Sonine oracle


def _first_cell_weight(spec: MeasureSpec, tau: float, g: float) -> float:
    """``int_0^tau (s/tau)^(g-1) k(tau - s) ds``, in closed form
    ``tau^(1-g) Gamma(g) (I^g k)(tau)``: ``kernels._k_moments`` at the depth
    g sums the order nodes' terms tau^(g-a)/Gamma(1+g-a) of the
    Riemann-Liouville integral I^g k."""
    return tau ** (1.0 - g) * math.gamma(g) * _kernels._k_moments(
        spec, tau, (g,))[0]


def sonine_partner(spec: MeasureSpec, step: float, n_steps: int) -> DiscreteKernel:
    """Independent discrete solve of ``k * l = 1`` by product integration.

    The unknown is piecewise linear between nodes with the measure's tail
    exponent shaping its first cell, while k enters through its exact cell
    masses and first moments; this is the classical second-order product
    scheme for weakly singular first-kind equations and is independent of
    the Laplace-inversion route.
    """
    gb = gamma_bar(spec)
    weights = _first_kind_weights(sample_k(spec, step, n_steps), gb,
                                  _first_cell_weight(spec, step, gb))
    return DiscreteKernel(step, _forward_substitution(weights,
                                                      np.ones(n_steps)))
