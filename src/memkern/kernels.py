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
which evaluates H_theta once per call) that put u = p*t over [2^-60, 2^11]
for every time of the call.  ``_tail`` closes both ends in log p: left of
the panels every kernel of u is a constant, so the integral of H/pi there is
the weight of one node at p = 0; right of them exp(-u) is 0, and the running
integrals and the first cell take moments of H/pi p^-j there.  No panel
count depends on the measure.  (For theta > 0, H_theta peaks at the zero of
theta + C; with a top order near one the panels do not resolve that peak,
and r_theta is not accurate to round-off.)  A block of times contracts only
the band of nodes where its kernel varies.  For r_theta itself
(``_exp_sums``) that is 2^-10 <= p*t <= 2^10: right of it exp(-p*t) is 0,
left of it it is its degree-5 Taylor polynomial, so those nodes enter
through the block's moments of the weights.  The running integrals
(``_running_sums``) take 2^-60 <= p*t <= 2^10, with a prefix sum on the left
and, since their kernels are polynomials in 1/(p*t) there, suffix moments on
the right.  The sampled r_theta and l of ``volterra``, its Yosida kernels
(weights c and c/p at theta = n) and the resolvent chain of
``bound_certificates`` come from one ``_exp_sums`` over several weight
vectors: the samples, and per-node cell factors (integrals of exp(-p s) over
one step) for the cell mass, first moment and bubble, so no cell table is a
difference of running integrals; the first cell is a plain sum over the node
table and the right tails.  On dyadic panels, scaling t by 2^-m and p by 2^m
leaves p*t the same bits, so the Lp walk of ``geometry`` reuses one kernel
block for all of its chunks.  ``_gauss_panels`` places the nodes of both
sums and of their tails, of the order moments of k and of the dyadic panels
of ``geometry``.
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
    _sin_cos_log,
)

__all__ = [
    "KernelGridError",
    "KernelKind",
    "GridMismatchError",
    "DiscreteKernel",
    "k_eval",
    "k1_eval",
    "one_star_k_eval",
    "h_laplace_eval",
    "l_eval",
    "r_theta_eval",
    "resolvent_running_integral",
    "sample_kernel",
    "bound_certificates",
    "BoundCertificates",
]

_GL_NODES_PER_PANEL = 24
_DEPTH0_RIGHT = 10  # exp(-u) underflows to exactly 0 beyond u = 745 < 2^10
_TILE_ENTRIES = 2**15  # times x nodes per matvec tile: 256 KB of doubles
_TILE_SPAN = 8  # log2 of the widest t ratio in one inversion tile
_HEAD_U = 2.0**-60  # below u = p*t every g_d(u) is 1/d! in double
_TAYLOR_U = 2.0**-10  # below it exp(-u) is its Taylor polynomial in double
_TAYLOR_DEGREE = 5  # (2^-10)^6 / 6! < 2^-69
_CELL_SERIES_V = 1.5  # _cell_factors sums series below this v = p*tau
_CELL_SERIES_TERMS = 24  # 1.5^24 / 25! < 1e-20
_SMALL_T_FLOOR = 1e-8  # fraction of the horizon below which samples are refused


# Gauss-Legendre rule on [-1, 1], built once per order; read by _gauss_panels.
_gauss_legendre = functools.cache(np.polynomial.legendre.leggauss)


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
    extra rounding of t^d * t^-alpha.  A depth d need not be an integer: it
    gives the Riemann-Liouville integral of order d.  Depths >= 1 are 0 at
    t = 0; an array t gives arrays of its shape, anything else floats.
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


def _depth_kernels(u: np.ndarray, depths) -> list[np.ndarray]:
    """g_d(u) = sum_k (-u)^k / (k+d)!, u = p*t, of the d-fold running integrals
    of exp(-p t), for depths d >= 1.

    From u = 1 on, g_1 = (1 - exp(-u))/u and g_d = (1/(d-1)! - g_(d-1))/u,
    so no power of a large u overflows.  Below u = 1, where that recursion
    cancels, the top depth is its 18-term series and the lower ones follow
    from g_(d-1) = 1/(d-1)! - u*g_d, which loses nothing there; g_1 keeps
    its expm1 form throughout.
    """
    top = max(depths)
    fact = math.factorial
    r = 1.0 / u
    g = {1: -np.expm1(-u) * r}
    for d in range(2, top + 1):
        g[d] = r * (1.0 / fact(d - 1) - g[d - 1])
    if top > 1:
        small = u < 1.0
        us = u[small]
        series = np.full_like(us, 1.0 / fact(top + 17))
        for k in range(16, -1, -1):
            series = 1.0 / fact(top + k) - us * series
        for d in range(top, 1, -1):
            g[d][small] = series
            series = 1.0 / fact(d - 1) - us * series
    return [g[d] for d in depths]


def _panel_range(t_min: float, t_max: float) -> tuple[int, int]:
    """Dyadic panels [2^k, 2^(k+1)], k_lo <= k < k_hi, that put u = p*t over
    [2^-60, 2^11] for every t in [t_min, t_max].  Left of them exp(-u) and
    every g_d(u) are constants in double, right of them exp(-u) is 0, so
    ``_tail`` closes both ends.  The left end stays at or below 2^-60 also
    for t_max < 1, so that the widening tail panels meet H only far from
    p = 1, where it is smooth in log p."""
    return (math.floor(math.log2(_HEAD_U) - max(math.log2(t_max), 0.0)),
            math.ceil(_DEPTH0_RIGHT + 1 - math.log2(t_min)))


def _panel_nodes(spec: MeasureSpec, theta: float, k_lo: int, k_hi: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Nodes p of the Gauss-Legendre panels [2^k, 2^(k+1)], k_lo <= k < k_hi,
    ascending, and their weights times H_theta(p)/pi.

    The nodes of panel k + m are those of panel k times 2^m, bit for bit.
    """
    p, w = (a.ravel() for a in _gauss_panels(
        np.ldexp(1.0, np.arange(k_lo, k_hi + 1)), _GL_NODES_PER_PANEL))
    return p, w * h_laplace_eval(spec, p, theta)[0] / math.pi


def _node_table(spec: MeasureSpec, theta: float, k_lo: int, k_hi: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """``_panel_nodes`` behind a node at p = 0 that holds the left tail
    ``(1/pi) int_0^(2^k_lo) H_theta dp``."""
    p, c = _panel_nodes(spec, theta, k_lo, k_hi)
    left = _tail(spec, theta, math.ldexp(1.0, k_lo), "left", (0,))
    return np.append(0.0, p), np.append(left, c)


# y-nodes and weights of _tail: 16-point Gauss-Legendre panels on [0, 1]
# and [2^i, 2^(i+1)], i < 63
_TAIL_Y, _TAIL_W = (a.ravel() for a in _gauss_panels(
    np.append(0.0, np.ldexp(1.0, np.arange(64))), 16))


def _tail(spec: MeasureSpec, theta: float, edge: float, side: str, powers
          ) -> np.ndarray:
    """``(1/pi) int H_theta(p) p^-j dp`` over (0, edge) (side "left") or
    (edge, inf) ("right"), one entry per j in powers, summed on the panels
    ``_TAIL_Y`` in y = |log(p/edge)|.  The integrands fall like
    exp(-(1 - j - a_low) y) or exp(-(j - 1 + a_high) y) there, or like y^-2
    for H/p on the left at theta > 0 with a weight that reaches order 0.
    S and C are moments of p^(a - shift), shift the end of the support on
    that side, and H is scaled by kappa = max(p^shift, theta), so neither p
    nor a power of it leaves the double range.
    """
    a_low, a_high = spec.support_bounds()
    sign, shift = (-1.0, a_low) if side == "left" else (1.0, a_high)
    log_p = math.log(edge) + sign * _TAIL_Y
    s, c = _sin_cos_log(spec, log_p, shift=shift)
    log_theta = math.log(theta) if theta > 0.0 else -math.inf
    log_kappa = np.maximum(shift * log_p, log_theta)
    scale = np.exp(shift * log_p - log_kappa)
    s, d = s * scale, np.exp(log_theta - log_kappa) + c * scale
    h = _TAIL_W * s / (s * s + d * d)  # kappa H; dp = p dy
    return np.array([h @ np.exp((1 - j) * log_p - log_kappa)
                     for j in powers]) / math.pi


def _band(p: np.ndarray, t_lo: float, t_hi: float,
          u_left: float = _HEAD_U) -> np.ndarray:
    """Index range [b, e) of the ascending nodes p with u_left <= p*t for
    every t in [t_lo, t_hi] and p*t < 2^10 for some: right of it exp(-u) is
    0 in double."""
    return np.searchsorted(p, (u_left / t_hi, 2.0**_DEPTH0_RIGHT / t_lo))


def _tiles(p: np.ndarray, ts: np.ndarray, u_left: float):
    """Yield (lo, hi, b, e): the ascending times ts[lo:hi] of one tile and
    its ``_band`` p[b:e].  A tile holds at most ``_TILE_ENTRIES`` entries
    and spans at most 2^_TILE_SPAN in t, so its band is at most that many
    panels wider than the band of its first time alone."""
    lo = 0
    while lo < ts.size:
        t_end = ts[lo] * 2.0**_TILE_SPAN
        b, e = _band(p, ts[lo], t_end, u_left)
        hi = min(lo + max(1, _TILE_ENTRIES // max(e - b, 1)),
                 int(np.searchsorted(ts, t_end, "right")))
        yield (lo, hi, *_band(p, ts[lo], ts[hi - 1], u_left))
        lo = hi


def _exp_sums(p: np.ndarray, weights: np.ndarray, ts: np.ndarray
              ) -> np.ndarray:
    """``sum_q weights[q] * exp(-p_q t)`` at the ascending times ts, one
    column per column of weights (shape (nodes, k)).

    A tile contracts one block exp(-outer(t, p)) over its band
    2^-10 <= p*t < 2^10 against every column at once; right of the band the
    exponential is 0.  Left of it exp(-u) is its degree-5 Taylor polynomial
    to round-off, so those nodes enter through the tile's moments
    ``sum W (p t_hi)^j / j!``, scaled by its largest time t_hi so that no
    power of p overflows; below u = 2^-60 a prefix sum of the weights alone
    covers them.
    """
    prefix = np.cumsum(np.vstack((np.zeros(weights.shape[1]), weights)),
                       axis=0)
    out = np.empty((ts.size, weights.shape[1]))
    inverse_j = 1.0 / np.arange(1, _TAYLOR_DEGREE + 1)
    for lo, hi, b, e in _tiles(p, ts, _TAYLOR_U):
        tt = ts[lo:hi]
        block = np.multiply.outer(-tt, p[b:e])
        np.exp(block, out=block)
        head = int(np.searchsorted(p, _HEAD_U / tt[-1]))
        x = np.ones((_TAYLOR_DEGREE + 1, b - head))
        x[1:] = np.multiply.outer(inverse_j, p[head:b] * tt[-1])
        x = x.cumprod(axis=0)  # row j holds (p t_hi)^j / j!
        taylor = np.ones((hi - lo, _TAYLOR_DEGREE + 1))
        taylor[:, 1:] = (-tt / tt[-1])[:, None]
        taylor = taylor.cumprod(axis=1)  # column j holds (-t/t_hi)^j
        out[lo:hi] = block @ weights[b:e] + (
            taylor @ (x @ weights[head:b]) + prefix[head])
    return out


def _running_sums(p: np.ndarray, coeff: np.ndarray, tails: np.ndarray,
                  ts: np.ndarray, depths) -> np.ndarray:
    """``(1^d * r)(t) = t^d * sum_q coeff_q g_d(p_q t)`` for depths d >= 1 at
    the ascending times ts, one row per depth.

    A tile contracts ``_depth_kernels`` over its band 2^-60 <= p*t < 2^10.
    Left of the band g_d is 1/d! in double, so those nodes enter as one
    prefix sum of the weights; right of it exp(-u) is 0 and
    g_d = sum_j (-1)^(j-1) u^-j / (d-j)!, so they enter as the suffix
    moments sum c*p^-j, j = 1..d, plus their right tails ``tails[j-1]``.
    """
    left = np.concatenate(([0.0], np.cumsum(coeff)))
    moments, right = coeff, []
    for tail in tails[:max(depths)]:
        moments = np.divide(moments, p, out=np.zeros_like(p), where=p > 0.0)
        right.append(np.append(np.cumsum(moments[::-1])[::-1], 0.0) + tail)
    vals = np.empty((len(depths), ts.size))
    for lo, hi, b, e in _tiles(p, ts, _HEAD_U):
        tt = ts[lo:hi]
        g = _depth_kernels(np.multiply.outer(tt, p[b:e]), depths)
        for i, d in enumerate(depths):
            vals[i, lo:hi] = tt**d * (
                g[i] @ coeff[b:e] + left[b] / math.factorial(d))
            for j in range(1, d + 1):
                vals[i, lo:hi] += ((-1) ** (j - 1) * right[j - 1][e]
                                   / math.factorial(d - j)) * tt**(d - j)
    return vals


def _laplace_inversion(spec: MeasureSpec, t, theta: float, depths):
    """Iterated integrals of r_theta at t, one list entry per requested depth.

    Depth d is ``(1^d * r_theta)(t) = t^d/pi * int g_d(p t) H_theta(p) dp``,
    summed over one ``_node_table`` for all of t: depth 0 by ``_exp_sums``,
    the running integrals by ``_running_sums`` with the right tails beyond
    the table.  Both sort the times into tiles and contract each tile
    against its band of nodes only.  An array t gives arrays of its shape;
    anything else gives floats.
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
        k_lo, k_hi = _panel_range(ts[0], ts[-1])
        p, coeff = _node_table(spec, theta, k_lo, k_hi)
        vals = np.empty_like(out)
        running = [i for i, d in enumerate(depths) if d > 0]
        if running:
            vals[running] = _running_sums(p, coeff, _tail(
                spec, theta, math.ldexp(1.0, k_hi), "right",
                range(1, max(depths) + 1)), ts, [depths[i] for i in running])
        if 0 in depths:
            vals[depths.index(0)] = _exp_sums(p, coeff[:, None], ts)[:, 0]
        out[:, order] = vals
    if isinstance(t, np.ndarray):
        return [row.reshape(t_arr.shape) for row in out]
    return [float(row[0]) for row in out]


def _cell_factors(v: np.ndarray) -> np.ndarray:
    """Rows phi_0, phi_1, phi_2 at v = p*tau, the cell integrals
    ``int_0^1 w(x) exp(-v x) dx`` of w = 1, x and x(1 - x):

        phi_0 = (1 - e^-v)/v,  phi_1 = (1 - (1+v) e^-v)/v^2,
        phi_2 = ((v-2) + (v+2) e^-v)/v^3.

    From v = 1.5 on they follow from phi_1 = (phi_0 - e^-v)/v and
    phi_2 = ((v-2) phi_1 + e^-v)/v, which form no power of v; below, where
    those cancel, each is its series, with coefficients 1/(k+1)!,
    (k+1)/(k+2)! and (k+1)/(k+3)! of (-v)^k.
    """
    out = np.empty((3, v.size))
    small = v < _CELL_SERIES_V
    vb = v[~small]
    ev = np.exp(-vb)
    out[0, ~small] = -np.expm1(-vb) / vb
    out[1, ~small] = (out[0, ~small] - ev) / vb
    out[2, ~small] = ((vb - 2.0) * out[1, ~small] + ev) / vb
    vs = v[small]
    fact = math.factorial
    for row, coeff in enumerate((lambda k: 1.0 / fact(k + 1),
                                 lambda k: (k + 1) / fact(k + 2),
                                 lambda k: (k + 1) / fact(k + 3))):
        acc = np.zeros_like(vs)
        for k in range(_CELL_SERIES_TERMS - 1, -1, -1):
            acc = coeff(k) - vs * acc
        out[row, small] = acc
    return out


def _grid_table(spec: MeasureSpec, step: float, n: int, theta: float,
                powers=(1, 2, 3)) -> tuple[np.ndarray, ...]:
    """The theta ``_node_table`` for the grid t_j = j*step, j = 1..n, and
    its right ``_tail`` moments j in powers, for ``_resolvent_cells``."""
    require_valid(spec)
    if theta < 0.0:
        raise ValueError("theta must be nonnegative")
    t = _as_time_array(step * np.arange(1, n + 1))
    if t.size < 2:
        raise GridMismatchError("need at least 2 samples on one axis")
    k_lo, k_hi = _panel_range(t[0], t[-1])
    return (*_node_table(spec, theta, k_lo, k_hi),
            _tail(spec, theta, math.ldexp(1.0, k_hi), "right", powers))


def _resolvent_cells(p: np.ndarray, weights: np.ndarray, tails: np.ndarray,
                     step: float, n: int
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Samples of ``f = sum_q W_q exp(-p_q s)`` at t_j = j*step, j = 1..n,
    and its cell integrals ``int f``, ``int s f`` and
    ``int (s - t_(m-1))(t_m - s) f`` over each cell (t_(m-1), t_m]: four
    arrays of shape (n, k), one column per column of the weights W (shape
    (nodes, k)), e.g. the ``_grid_table`` weights c of r_theta.

    Cell m is ``sum W exp(-p t_(m-1)) F(p)`` for the per-node cell factors
    F = tau phi_0, tau^2 phi_1 (plus t_(m-1) times the mass) and
    tau^3 phi_2 of ``_cell_factors``: for W >= 0 every term is nonnegative,
    so nothing cancels.  The samples and the cells m >= 2 are one
    ``_exp_sums`` over the grid; the first cell (t_0 = 0) is the plain sum
    of the factors over the nodes plus their right tails.  Right of the
    table p*tau >= 2^11, where the factors are 1/p, 1/p^2 and
    tau/p^2 - 2/p^3, so ``tails`` (shape (3, k)) holds the moments
    ``sum W p^-j``, j = 1, 2, 3, of each column beyond the table.
    """
    k = weights.shape[1]
    t = step * np.arange(1, n + 1)
    factors = (_cell_factors(p * step)[:, None] * weights.T).reshape(3 * k, -1)
    factors *= np.repeat([step, step**2, step**3], k)[:, None]
    sums = _exp_sums(p, np.column_stack((weights, factors.T)), t)
    first = factors.sum(axis=1) + np.concatenate(
        (tails[0], tails[1], step * tails[1] - 2.0 * tails[2]))
    cells = np.vstack((first, sums[:-1, k:]))
    mass, shifted, bubble = np.split(cells, 3, axis=1)
    return sums[:, :k], mass, (t - step)[:, None] * mass + shifted, bubble


def _l_dyadic_walk(spec: MeasureSpec, s: np.ndarray, m: int):
    """Yield l at s * 2^(-m c) for c = 0, 1, 2, ..., one array per c.

    Scaling s by 2^(-m c) and the nodes by 2^(m c) (panel k -> k + m c)
    leaves every u = p*s the same bits, so one block exp(-outer(s, p)) over
    the band 2^-60 <= u <= 2^10 serves every c.  Step c contracts it against
    the band's weights shifted m panels right: nodes leaving on the left join
    the head sum, and H_theta is evaluated on m new panels only.  s must stay
    a normal double.
    """
    k_lo, k_hi = _panel_range(s.min(), s.max())
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
            (coeff[shift:], _panel_nodes(spec, 0.0, k_hi, k_hi + m)[1]))
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
        # the grid needs two samples; 1*r_theta is the running sum of the
        # nonnegative cell masses of r_theta
        n = max(ct.size, 2)
        p, c, tails = _grid_table(spec, l_kernel.step, n, theta)
        r_vals, mass = (a[:ct.size, 0] for a in _resolvent_cells(
            p, c[:, None], tails[:, None], l_kernel.step, n)[:2])
        avg = np.cumsum(mass) / ct
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
