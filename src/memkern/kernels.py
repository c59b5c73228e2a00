"""Memory kernels of the calculus: k, k1, 1*k, H_theta, l, and r_theta.

Every kernel here is a weighted sum over one node set per call.  k and its
running integrals are order moments

    (1^d * k)(t) = int t^(d-a) / Gamma(d+1-a) dmu(a),

summed over the atoms of the measure plus Gauss-Legendre nodes on its weight
pieces.  The convolution inverse l (k*l = 1) and the resolvent family r_theta
only exist through a real-axis inversion integral

    r_theta(t) = (1/pi) * int_0^inf exp(-p t) H_theta(p) dp,
    H_theta(p) = S / (S^2 + (theta + C)^2),
    S = int p^a sin(pi a) dmu,  C = int p^a cos(pi a) dmu,

summed over Gauss-Legendre nodes on dyadic panels in p (``_node_table``,
which evaluates H_theta once per call).  The panels extend right until the
exponential (or the algebraic tail of a running integral) has decayed and
left until the blow-up of H near p = 0 (exponent = lowest support point of
the measure) has decayed below round-off, so the scheme is spectrally
accurate for every admissible measure; a measure whose support reaches too
close to order one makes the left tail undecidable in double precision and
raises ``KernelQuadratureError``.  A time contracts only the band of nodes
where its kernel varies, 2^-60 <= p*t <= 2^10: left of it the kernel is
constant in double, right of it exp(-p*t) is 0 and the kernels of the
running integrals are polynomials in 1/(p*t), so those nodes enter exactly
through prefix sums and suffix moments of the weights.  On dyadic panels,
scaling t by 2^-m and p by 2^m leaves p*t the same bits, so the Lp walk of
``geometry`` reuses one kernel block for all of its chunks.
``_gauss_panels`` places the nodes of both sums, and of the dyadic panels of
``volterra`` and ``geometry``.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .measure import (
    MeasureSpec,
    MeasureError,
    gamma_bar,
    power_moment,
    require_valid,
    sin_cos_moments,
)

__all__ = [
    "KernelQuadratureError",
    "KernelGridError",
    "KernelKind",
    "GridMismatchError",
    "DiscreteKernel",
    "k_eval",
    "k1_eval",
    "one_star_k_eval",
    "iterated_k_integral",
    "h_laplace_eval",
    "l_eval",
    "r_theta_eval",
    "resolvent_running_integral",
    "resolvent_double_integral",
    "sample_kernel",
    "bound_certificates",
    "BoundCertificates",
]

_GL_NODES_PER_PANEL = 24
_MAX_LEFT_PANELS = 880
_DEPTH0_RIGHT = 10  # exp(-u) underflows to exactly 0 beyond u = 745 < 2^10
_TILE_ENTRIES = 2**15  # times x nodes per matvec tile: 256 KB of doubles
_TILE_SPAN = 8  # log2 of the widest t ratio in one inversion tile
_SMALL_T_FLOOR = 1e-8  # fraction of the horizon below which samples are refused


# Gauss-Legendre rule on [-1, 1], built once per order; read by _gauss_panels.
_gauss_legendre = functools.cache(np.polynomial.legendre.leggauss)


class KernelQuadratureError(RuntimeError):
    """Tail truncation of the inversion integral failed to converge."""


class KernelGridError(ValueError):
    """A sampled kernel violated its structural invariants."""


# ---------------------------------------------------------------------------
# pointwise kernels with exact or spectral moment formulas


def _gauss_panels(edges, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the order-point Gauss-Legendre rule on each panel
    [edges[i], edges[i+1]], both of shape (n_panels, order).

    Halving and doubling are exact, so on dyadic edges [2^k, 2^(k+1)] the
    nodes are exactly 2^(k-1) * (3 + x) and the weights 2^(k-1) * w.
    """
    nodes, weights = _gauss_legendre(order)
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    return mid + half * nodes, half * weights


def _as_time_array(t, positive: bool = True):
    t_arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t_arr)):
        raise MeasureError("kernel evaluation requires finite t")
    if positive and np.any(t_arr <= 0.0):
        raise MeasureError("kernel evaluation requires t > 0")
    if np.any(t_arr < 0.0):
        raise MeasureError("running integrals require t >= 0")
    return t_arr


def _k_moments(spec: MeasureSpec, t, depths):
    """Order moments ``(1^d * k)(t) = int t^(d-a) / Gamma(d+1-a) dmu``.

    The measure becomes one node set (alpha, mass): its atoms plus 32-point
    Gauss-Legendre panels on each positive weight piece.  The integrand is
    entire in alpha, so the panels converge spectrally; their count grows with
    |log t| to resolve the exponential growth.  Depth d is the tiled matvec
    ``t^(d-alpha) @ (mass / Gamma(d+1-alpha))``, with t^(d-alpha) formed per
    depth: cell moments are differences of these sums and would amplify the
    extra rounding of t^d * t^-alpha.  Depths >= 1 are 0 at t = 0; an array t
    gives arrays of its shape, anything else floats.
    """
    t_arr = _as_time_array(t, positive=0 in depths)
    t_flat = t_arr.ravel()
    pos = t_flat > 0.0
    tp = t_flat[pos]
    out = np.zeros((len(depths), t_flat.size))
    if tp.size:
        alpha = [np.array([a for a, q in spec.atoms if q > 0.0])]
        mass = [np.array([q for _, q in spec.atoms if q > 0.0])]
        n_sub = max(1, math.ceil(float(np.max(np.abs(np.log(tp)))) / 25.0))
        for a, b, w in spec.pieces():
            if w > 0.0:
                x, wx = _gauss_panels(np.linspace(a, b, n_sub + 1), 32)
                alpha.append(x.ravel())
                mass.append(w * wx.ravel())
        alpha, mass = np.concatenate(alpha), np.concatenate(mass)
        coeff = [mass * special.rgamma(d + 1.0 - alpha) for d in depths]
        vals = np.empty((len(depths), tp.size))
        rows = max(1, _TILE_ENTRIES // max(alpha.size, 1))
        for lo in range(0, tp.size, rows):
            tt = tp[lo:lo + rows, None]
            for i, d in enumerate(depths):
                vals[i, lo:lo + rows] = tt ** (d - alpha) @ coeff[i]
        out[:, pos] = vals
    if isinstance(t, np.ndarray):
        return [row.reshape(t_arr.shape) for row in out]
    return [float(row[0]) for row in out]


def k_eval(spec: MeasureSpec, t):
    """Singular kernel ``k(t) = int t^-a / Gamma(1-a) dmu``."""
    return _k_moments(spec, t, (0,))[0]


def k1_eval(spec: MeasureSpec, t):
    """Plain power moment ``k1(t) = int t^-a dmu`` (exact closed form)."""
    return power_moment(spec, t)


def one_star_k_eval(spec: MeasureSpec, t):
    """Running integral of k: ``(1*k)(t) = int t^(1-a) / Gamma(2-a) dmu``."""
    return _k_moments(spec, t, (1,))[0]


def iterated_k_integral(spec: MeasureSpec, t, depth: int = 2):
    """Repeated running integrals of k; depth=2 gives ``(1*1*k)(t)``."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    return _k_moments(spec, t, (depth,))[0]


def h_laplace_eval(spec: MeasureSpec, p, theta: float = 0.0):
    """Laplace-plane function ``(H_theta(p), S(p), C(p))``.

    Computed in a scaled form so that underflow of the oscillatory moments at
    extreme p cannot produce spurious infinities.
    """
    if theta < 0.0:
        raise ValueError("theta must be nonnegative")
    p_arr = np.asarray(p, dtype=float)
    s, c = sin_cos_moments(spec, p_arr)
    d = theta + c
    scale = np.maximum(np.abs(s), np.abs(d))
    safe = np.where(scale > 0.0, scale, 1.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        h = np.where(scale > 0.0,
                     (s / safe) / (safe * ((s / safe) ** 2 + (d / safe) ** 2)),
                     0.0)
    if isinstance(p, np.ndarray):
        return h, s, c
    return float(h), float(s), float(c)


# ---------------------------------------------------------------------------
# fixed-node quadrature for the inversion integral


def _tail_panels(spec: MeasureSpec) -> tuple[int, int]:
    """Dyadic panel counts (L, R) so that u = p*t over [2^-L, 2^R] suffices.

    H(p) ~ p^-a_low as p -> 0, so left panels add 2^(-j (1 - a_low)) each and
    L pushes the truncated mass below 1e-16 relative; R, sized from the top of
    the support, covers the u^(-1-a_high) tail of the running integrals.
    """
    a_low, a_high = spec.support_bounds()
    n_left = math.ceil(16.0 / ((1.0 - a_low) * math.log10(2.0)))
    if n_left > _MAX_LEFT_PANELS:
        raise KernelQuadratureError(
            f"tail truncation failed: support reaches {a_low:.4f}, "
            f"needs {n_left} left panels (cap {_MAX_LEFT_PANELS})"
        )
    n_right = max(8, math.ceil(16.0 / (a_high * math.log10(2.0))))
    return n_left, min(n_right, 600)


def _depth_kernels(u: np.ndarray, depths) -> list[np.ndarray]:
    """g_d(u), u = p*t, of the d-fold running integrals of exp(-p t).

    g_0 = exp(-u), g_1 = (1 - exp(-u))/u and g_d = (1/(d-1)! - g_(d-1))/u,
    so no power of a large u (past 2^600 for orders near zero) overflows;
    below u = 1e-3, where that recursion cancels, a series takes over.
    """
    g = {}
    if 0 in depths:
        g[0] = np.exp(-u)
    if max(depths) > 0:
        r = 1.0 / u
        g[1] = -np.expm1(-u) * r
        small = u < 1e-3
        us = u[small]
        fact = math.factorial
        for d in range(2, max(depths) + 1):
            g[d] = r * (1.0 / fact(d - 1) - g[d - 1])
            g[d][small] = (1.0 / fact(d) - us / fact(d + 1)
                           + us**2 / fact(d + 2))
    return [g[d] for d in depths]


def _panel_range(spec: MeasureSpec, t_min: float, t_max: float,
                 max_depth: int) -> tuple[int, int]:
    """Dyadic panels [2^k, 2^(k+1)], k_lo <= k < k_hi, that put u = p*t over
    [2^-L, 2^(R+1)] for every t in [t_min, t_max] (2^10 for depth 0 alone:
    exp(-u) is 0 beyond)."""
    n_left, n_right = _tail_panels(spec)
    u_right = _DEPTH0_RIGHT if max_depth == 0 else n_right + 1
    # p reaches 2^-L for any t: once t < 2^-L, u >= 2^-L alone cuts at
    # p > 1, dropping 2^(-L (1 - a_high)) of l (all of it as a_high -> 1)
    return (math.floor(-n_left - max(math.log2(t_max), 0.0)),
            math.ceil(u_right - math.log2(t_min)))


def _node_table(spec: MeasureSpec, theta: float, k_lo: int, k_hi: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """Nodes p of the Gauss-Legendre panels [2^k, 2^(k+1)], k_lo <= k < k_hi,
    ascending, and their weights times H_theta(p)/pi.

    The nodes of panel k + m are those of panel k times 2^m, bit for bit.
    """
    p, w = (a.ravel() for a in _gauss_panels(
        np.ldexp(1.0, np.arange(k_lo, k_hi + 1)), _GL_NODES_PER_PANEL))
    return p, w * h_laplace_eval(spec, p, theta)[0] / math.pi


def _band(p: np.ndarray, t_lo: float, t_hi: float) -> np.ndarray:
    """Index range [b, e) of the ascending nodes p where g_d(p*t) varies for
    some t in [t_lo, t_hi]: left of it u = p*t < 2^-60 and g_d(u) is 1/d!
    in double, right of it u >= 2^10 and exp(-u) is 0."""
    return np.searchsorted(p, (2.0**-60 / t_hi, 2.0**_DEPTH0_RIGHT / t_lo))


def _laplace_inversion(spec: MeasureSpec, t, theta: float, depths):
    """Iterated integrals of r_theta at t, one list entry per requested depth.

    Depth d is ``(1^d * r_theta)(t) = t^d/pi * int g_d(p t) H_theta(p) dp``,
    summed over one ``_node_table`` for all of t.  The times are sorted into
    tiles, and a tile is contracted only against its band of nodes with
    2^-60 <= u = p*t <= 2^10 for all of its times.  Left of the band g_d is
    1/d! in double, so those nodes enter as one prefix sum of the weights;
    right of it exp(-u) is 0 and g_d = sum_j (-1)^(j-1) u^-j / (d-j)!, so
    they enter as the suffix moments sum c*p^-j, j = 1..d.  An array t gives
    arrays of its shape; anything else gives floats.
    """
    require_valid(spec)
    if theta < 0.0:
        raise ValueError("theta must be nonnegative")
    t_arr = _as_time_array(t)
    t_flat = t_arr.ravel()
    out = np.empty((len(depths), t_flat.size))
    if t_flat.size:
        order = np.argsort(t_flat)
        ts = t_flat[order]
        p, coeff = _node_table(spec, theta, *_panel_range(
            spec, ts[0], ts[-1], max(depths)))
        left = np.concatenate(([0.0], np.cumsum(coeff)))
        moments, right = coeff, []
        for _ in range(max(depths)):
            moments = moments / p
            right.append(np.append(np.cumsum(moments[::-1])[::-1], 0.0))
        vals = np.empty_like(out)
        lo = 0
        while lo < ts.size:
            # a tile spans at most 2^_TILE_SPAN in t, so its band is at most
            # that many panels wider than the band of its first time alone
            t_end = ts[lo] * 2.0**_TILE_SPAN
            b, e = _band(p, ts[lo], t_end)
            hi = min(lo + max(1, _TILE_ENTRIES // max(e - b, 1)),
                     np.searchsorted(ts, t_end, "right"))
            tt = ts[lo:hi]
            b, e = _band(p, tt[0], tt[-1])
            g = _depth_kernels(np.multiply.outer(tt, p[b:e]), depths)
            for i, d in enumerate(depths):
                vals[i, lo:hi] = tt**d * (
                    g[i] @ coeff[b:e] + left[b] / math.factorial(d))
                for j in range(1, d + 1):
                    vals[i, lo:hi] += ((-1) ** (j - 1) * right[j - 1][e]
                                       / math.factorial(d - j)) * tt**(d - j)
            lo = hi
        out[:, order] = vals
    if isinstance(t, np.ndarray):
        return [row.reshape(t_arr.shape) for row in out]
    return [float(row[0]) for row in out]


def _l_dyadic_walk(spec: MeasureSpec, s: np.ndarray, m: int):
    """Yield l at s * 2^(-m c) for c = 0, 1, 2, ..., one array per c.

    Scaling s by 2^(-m c) and the nodes by 2^(m c) (panel k -> k + m c)
    leaves every u = p*s the same bits, so one block exp(-outer(s, p)) over
    the band 2^-60 <= u <= 2^10 serves every c.  Step c contracts it against
    the band's weights shifted m panels right: nodes leaving on the left join
    the head sum, and H_theta is evaluated on m new panels only.  s must stay
    a normal double.
    """
    k_lo, k_hi = _panel_range(spec, s.min(), s.max(), 0)
    p, coeff = _node_table(spec, 0.0, k_lo, k_hi)
    band = _band(p, s.min(), s.max())[0]
    head, coeff = coeff[:band].sum(), coeff[band:]
    block = np.multiply.outer(-s, p[band:])
    np.exp(block, out=block)
    shift = m * _GL_NODES_PER_PANEL
    while True:
        yield block @ coeff + head
        head += coeff[:shift].sum()
        coeff = np.concatenate(
            (coeff[shift:], _node_table(spec, 0.0, k_hi, k_hi + m)[1]))
        k_hi += m


def l_eval(spec: MeasureSpec, t):
    """Convolution inverse of k (the Sonine partner), by Laplace inversion."""
    return _laplace_inversion(spec, t, 0.0, (0,))[0]


def r_theta_eval(spec: MeasureSpec, t, theta: float):
    """Resolvent kernel of l: solves r + theta*(r*l) = l; theta=0 gives l."""
    return _laplace_inversion(spec, t, theta, (0,))[0]


def resolvent_running_integral(spec: MeasureSpec, t, theta: float = 0.0):
    """Running integral ``(1 * r_theta)(t)``; theta=0 gives ``(1*l)(t)``."""
    return _laplace_inversion(spec, t, theta, (1,))[0]


def resolvent_double_integral(spec: MeasureSpec, t, theta: float = 0.0):
    """Twice-iterated integral ``(1 * 1 * r_theta)(t)``; theta=0 gives (1*1*l)."""
    return _laplace_inversion(spec, t, theta, (2,))[0]


def resolvent_tables(spec: MeasureSpec, t: np.ndarray, theta: float = 0.0
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pointwise r_theta plus its three iterated integrals in one sweep.

    Sampling a kernel grid needs all four quantities at every node; one
    node set in p and one H_theta evaluation serve all four depths.
    """
    t_flat = np.ravel(np.asarray(t, dtype=float))
    return tuple(_laplace_inversion(spec, t_flat, theta, (0, 1, 2, 3)))


# ---------------------------------------------------------------------------
# sampled kernels


class KernelKind(str, enum.Enum):
    K_KERNEL = "k"
    K1 = "k1"
    ONE_STAR_K = "one_star_k"
    L_KERNEL = "l"
    R_THETA = "r_theta"


_NONDECREASING = {KernelKind.ONE_STAR_K}


class GridMismatchError(ValueError):
    """Two discrete kernels do not share a grid, or a solve degenerated."""


@dataclass
class DiscreteKernel:
    """Samples at t_j = j*step plus optional exact cell integrals.

    ``head`` is the exact integral over the first cell (0, step].
    ``cell_mass`` holds exact integrals over every cell ((j-1)*step, j*step],
    and ``cell_first_moment`` the matching integrals of s*kernel(s); both are
    optional refinements used by the product-integration schemes.  Instances
    are treated as immutable; the sample array is locked.
    """

    step: float
    values: np.ndarray
    head: float | None = None
    cell_mass: np.ndarray | None = None
    cell_first_moment: np.ndarray | None = None
    cell_bubble_moment: np.ndarray | None = None

    def __post_init__(self):
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        if vals.ndim != 1 or vals.size < 2:
            raise GridMismatchError("need at least 2 samples on one axis")
        if not np.all(np.isfinite(vals)):
            raise GridMismatchError("samples must be finite")
        if self.step <= 0.0:
            raise GridMismatchError("step must be positive")
        if self.head is not None and not math.isfinite(self.head):
            raise GridMismatchError("head must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        for name in ("cell_mass", "cell_first_moment", "cell_bubble_moment"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.ascontiguousarray(np.asarray(arr, dtype=float))
                if arr.shape != vals.shape:
                    raise GridMismatchError(f"{name} must match the sample shape")
                if not np.all(np.isfinite(arr)):
                    raise GridMismatchError(f"{name} must be finite")
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return int(self.values.size)

    @property
    def horizon(self) -> float:
        return self.step * self.n

    @property
    def times(self) -> np.ndarray:
        return self.step * np.arange(1, self.n + 1)

    def head_integral(self) -> float:
        """Integral over the first cell (0, step]; rectangle rule fallback."""
        if self.cell_mass is not None:
            return float(self.cell_mass[0])
        if self.head is not None:
            return float(self.head)
        return float(self.step * self.values[0])

    def masses(self) -> np.ndarray:
        """Cell masses A_m; trapezoid synthesis when no exact table exists."""
        if self.cell_mass is not None:
            return self.cell_mass
        out = np.empty(self.n)
        out[0] = self.head_integral()
        out[1:] = 0.5 * self.step * (self.values[:-1] + self.values[1:])
        return out

    def first_moments(self) -> np.ndarray:
        """Cell moments B_m = int s*kernel(s) ds; midpoint synthesis fallback."""
        if self.cell_first_moment is not None:
            return self.cell_first_moment
        return self.masses() * (self.times - 0.5 * self.step)

    def bubble_moments(self) -> np.ndarray:
        """Moments D_m = int (s - t_{m-1})(t_m - s) kernel(s) ds per cell.

        These weight the curvature correction of the smooth factor in the
        convolution; the fallback treats the kernel as flat on each cell.
        """
        if self.cell_bubble_moment is not None:
            return self.cell_bubble_moment
        return self.masses() * self.step**2 / 6.0

    def scaled(self, factor: float) -> "DiscreteKernel":
        def _s(arr):
            return None if arr is None else factor * arr
        return DiscreteKernel(
            self.step, factor * self.values,
            head=None if self.head is None else factor * self.head,
            cell_mass=_s(self.cell_mass),
            cell_first_moment=_s(self.cell_first_moment),
            cell_bubble_moment=_s(self.cell_bubble_moment),
        )


def sample_kernel(spec: MeasureSpec, kind: KernelKind, step: float, n: int,
                  theta: float = 0.0) -> DiscreteKernel:
    """Samples of one kernel at t_j = j*step, j = 1..n (t = 0 excluded).

    The samples must be finite, nonnegative and monotone in the direction of
    their kind; ``KernelGridError`` names the first property that fails.
    """
    require_valid(spec)
    if step <= 0 or n < 2:
        raise KernelGridError("need step > 0 and n >= 2")
    if 1.0 < _SMALL_T_FLOOR * n:
        raise KernelGridError("grid too fine: first node below the small-t floor")
    t = step * np.arange(1, n + 1)
    kind = KernelKind(kind)
    if kind is KernelKind.K_KERNEL:
        vals = k_eval(spec, t)
    elif kind is KernelKind.K1:
        vals = k1_eval(spec, t)
    elif kind is KernelKind.ONE_STAR_K:
        vals = one_star_k_eval(spec, t)
    elif kind is KernelKind.L_KERNEL:
        vals = l_eval(spec, t)
    elif kind is KernelKind.R_THETA:
        vals = r_theta_eval(spec, t, theta)
    else:  # pragma: no cover - exhaustive
        raise KernelGridError(f"unknown kind {kind}")
    vals = np.asarray(vals, dtype=float)
    if not np.all(np.isfinite(vals)):
        raise KernelGridError("samples must be finite")
    if np.any(vals < 0.0):
        raise KernelGridError("samples must be nonnegative")
    tol = 1e-12 * max(1.0, float(np.max(np.abs(vals))))
    diffs = np.diff(vals)
    if kind in _NONDECREASING:
        if np.any(diffs < -tol):
            raise KernelGridError(f"{kind.value} samples must be nondecreasing")
    elif np.any(diffs > tol):
        raise KernelGridError(f"{kind.value} samples must be nonincreasing")
    return DiscreteKernel(step, vals)


# ---------------------------------------------------------------------------
# pointwise bound certificates


@dataclass(frozen=True)
class BoundCertificates:
    """Empirical constants for the pointwise kernel estimates on one grid.

    ``upper_ratio`` is l(t) * int t^(1-a) dmu, which exact analysis bounds by
    one; any sample above 1 + 1e-12 is a hard violation.  ``holder_ratio``
    tracks l(t) / t^(gamma_bar - 1) for t < 1.  The resolvent chain ratios
    are the three inequality gaps evaluated with theta = c1 / r^2 on the
    window t < c_bar * Phi(r).
    """

    t: np.ndarray
    l_values: np.ndarray
    upper_ratio: np.ndarray
    holder_ratio: np.ndarray
    chain_t: np.ndarray
    chain_r_over_avg: np.ndarray
    chain_avg_over_l: np.ndarray
    chain_l_times_K: np.ndarray
    theta: float
    r: float
    hard_violations: int

    @property
    def ok(self) -> bool:
        return self.hard_violations == 0

    def summary(self) -> dict:
        def _rng(x):
            x = x[np.isfinite(x)]
            if x.size == 0:
                return {"min": None, "max": None}
            return {"min": float(np.min(x)), "max": float(np.max(x))}

        return {
            "hard_violations": self.hard_violations,
            "upper_ratio": _rng(self.upper_ratio),
            "holder_ratio": _rng(self.holder_ratio),
            "chain_r_over_avg": _rng(self.chain_r_over_avg),
            "chain_avg_over_l": _rng(self.chain_avg_over_l),
            "chain_l_times_K": _rng(self.chain_l_times_K),
            "theta": self.theta,
            "r": self.r,
        }


def bound_certificates(spec: MeasureSpec, l_kernel: DiscreteKernel, *,
                       c1: float = 1.0, c_bar: float = 1.0,
                       r: float = 0.5) -> BoundCertificates:
    """Measure the sharp upper bound on l and the resolvent comparison chain.

    ``l_kernel`` holds l on the certificate grid, as ``volterra.sample_l``.
    """
    from .geometry import phi  # local import to avoid a cycle

    require_valid(spec)
    t = l_kernel.times
    l_vals = l_kernel.values
    denom = t * np.asarray(k1_eval(spec, t))  # int t^(1-a) dmu = t * k1(t)
    upper = l_vals * denom
    hard = int(np.sum(~(upper <= 1.0 + 1e-12)))  # NaN counts as a violation

    gb = gamma_bar(spec)
    mask = t < 1.0
    holder = np.full_like(t, np.nan)
    holder[mask] = l_vals[mask] / t[mask] ** (gb - 1.0)

    theta = c1 / r**2
    window = t < c_bar * phi(spec, r)
    ct = t[window]
    if ct.size:
        r_vals, running = _laplace_inversion(spec, ct, theta, (0, 1))
        avg = running / ct
        big_k = np.asarray(one_star_k_eval(spec, ct))
        chain1 = r_vals / avg
        chain2 = avg / l_vals[window]
        chain3 = l_vals[window] * big_k
    else:
        r_vals = avg = big_k = chain1 = chain2 = chain3 = np.array([])
    return BoundCertificates(
        t=t, l_values=l_vals, upper_ratio=upper, holder_ratio=holder,
        chain_t=ct, chain_r_over_avg=chain1, chain_avg_over_l=chain2,
        chain_l_times_K=chain3, theta=theta, r=r, hard_violations=hard,
    )
