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

summed over Gauss-Legendre nodes on dyadic panels in p that put u = p*t
over [2^-60, 2^11] for every time of the call.  ``_inversion_table`` builds
every such node set: it evaluates H_theta once per call, which checks theta,
and alone calls ``_tail``, which closes both ends in log p: left of the
panels every kernel of u is a constant, so the integral of H/pi p^-s there
is the weight of one node at p = 0; right of them exp(-u) is 0, and a cell
that starts at t = 0 takes moments of H/pi p^-j there.  No panel count
depends on the measure.  (H_theta peaks at the zero of theta + C, and where
S is small there the panels do not resolve the peak: for theta > 0 with a
top order near one, and at theta = 0 as well for mixtures with mass near
both 0 and 1, such as (0.001, 1/2) + (0.999, 1/2), whose l is 0.5% high.
l and r_theta are then not accurate to round-off.)  r_theta itself
(``_exp_sums``) contracts a block of times only against the band
2^-10 <= p*t <= 2^10 where exp(-p*t) varies: right of it exp(-p*t) is 0,
left of it it is its degree-5 Taylor polynomial, so those nodes enter
through moments of the weights that run over the call, each node entering
once.  On the grid t_j = j*tau of ``_grid_times``, exp(-p t_j) is
geometric in j: a block is one table exp(-p i tau) of the call against the
weights times exp(-p t_lo), an exp per band node (per entry on the times of
``l_eval`` and the Lp walk).  Every integral of r_theta is a sum of the
per-node cell factors of ``_cell_factors``, the integrals of exp(-p s)
against 1, s and a bubble over one cell: the running integrals
(1^d * r_theta)(t), d = 1, 2, 3, of ``resolvent_tables`` take the cell
(0, t].  ``_resolvent_kernels`` builds the sampled r_theta and l of
``volterra``, its Yosida kernels (weights c and c/p at theta = n) and the
resolvent chain of ``bound_certificates`` from one ``_exp_sums`` over
several weight vectors: the samples, and the factors of one step for the
cell mass, first moment and bubble, so no cell table is a difference of
running integrals; the first cell is a plain sum over the node table and
the right tails.  ``sample_kernels`` takes l and r_theta as two weight
columns of one ``_exp_sums``.  On dyadic panels, scaling t by 2^-m and p
by 2^m leaves p*t the same bits, so ``_l_dyadic_chunks`` gives every chunk
of the Lp walks of ``geometry``, all radii at once, as one weight column of
one ``_exp_sums`` on its own table.  No node table leaves this module.
``_gauss_panels`` places the nodes of both sums and of their tails, of the
order moments of k and of the dyadic panels of ``geometry``.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .measure import (
    MeasureSpec,
    gamma_bar,
    power_moment,
    sin_cos_moments,
    _as_time_array,
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
    "sample_kernels",
    "bound_certificates",
    "BoundCertificates",
]

_GL_NODES_PER_PANEL = 24
_DEPTH0_RIGHT = 10  # exp(-u) underflows to exactly 0 beyond u = 745 < 2^10
_TILE_ENTRIES = 2**15  # times x nodes per matvec tile: 256 KB of doubles
_TABLE_ENTRIES = 2**17  # offsets x band nodes of a grid's table: 1 MB
_TILE_SPAN = 8  # log2 of the widest t ratio in one inversion tile
_HEAD_U = 2.0**-60  # below u = p*t every _cell_factors row is constant
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
    t = 0; each depth in the form of t (``_as_time_array``).
    """
    t_flat, form = _as_time_array(t, positive=0 in depths)
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
        coeff = [mass * np.array([1.0 / math.gamma(d + 1.0 - a)
                                  for a in alpha.tolist()])
                 for d in depths]
        vals = np.empty((len(depths), tp.size))
        rows = max(1, _TILE_ENTRIES // max(alpha.size, 1))
        for lo in range(0, tp.size, rows):
            tt = tp[lo:lo + rows, None]
            for i, d in enumerate(depths):
                vals[i, lo:lo + rows] = tt ** (d - alpha) @ coeff[i]
        out[:, pos] = vals
    return [form(row) for row in out]


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
    extreme p cannot produce spurious infinities.  The one check of theta:
    every kernel of theta evaluates H_theta before anything else of theta.
    """
    if not 0.0 <= theta < math.inf:
        raise ValueError(f"theta must be finite and nonnegative, not {theta}")
    p_flat, form = _as_time_array(p)
    s, c = sin_cos_moments(spec, p_flat)
    d = theta + c
    scale = np.maximum(np.abs(s), np.abs(d))
    safe = np.where(scale > 0.0, scale, 1.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        h = np.where(scale > 0.0,
                     (s / safe) / (safe * ((s / safe) ** 2 + (d / safe) ** 2)),
                     0.0)
    return form(h), form(s), form(c)


# ---------------------------------------------------------------------------
# fixed-node quadrature for the inversion integral


def _panel_range(t_min: float, t_max: float) -> tuple[int, int]:
    """Dyadic panels [2^k, 2^(k+1)], k_lo <= k < k_hi, that put u = p*t over
    [2^-60, 2^11] for every t in [t_min, t_max].  Left of them exp(-u) and
    the ``_cell_factors`` are constants in double, right of them exp(-u) is
    0, so ``_tail`` closes both ends.  The left end stays at or below 2^-60
    also for t_max < 1, so that the widening tail panels meet H only far
    from p = 1, where it is smooth in log p."""
    return (math.floor(math.log2(_HEAD_U) - max(math.log2(t_max), 0.0)),
            math.ceil(_DEPTH0_RIGHT + 1 - math.log2(t_min)))


def _inversion_table(spec: MeasureSpec, theta: float, t_lo: float,
                     t_hi: float, powers=(0,), right=(), reach: int = 0):
    """Nodes p of the panels of ``_panel_range(t_lo, t_hi)`` and ``reach``
    more on the right, ascending behind a node at p = 0; one weight column
    per s in powers, the panel weights times H_theta p^-s / pi with the left
    ``_tail`` of that integrand at p = 0; and the right ``_tail`` moments of
    H_theta p^-(s+j) / pi, one row per j in ``right`` (None without).  The
    nodes of panel k + m are those of panel k times 2^m, bit for bit.
    """
    k_lo, k_hi = _panel_range(t_lo, t_hi)
    k_hi += reach
    p, w = (a.ravel() for a in _gauss_panels(
        np.ldexp(1.0, np.arange(k_lo, k_hi + 1)), _GL_NODES_PER_PANEL))
    c = w * h_laplace_eval(spec, p, theta)[0] / math.pi
    weights = np.vstack((
        _tail(spec, theta, math.ldexp(1.0, k_lo), "left", powers),
        np.column_stack([c / p**s for s in powers])))
    tails = None
    if right:
        tails = _tail(spec, theta, math.ldexp(1.0, k_hi), "right",
                      [s + j for j in right for s in powers]
                      ).reshape(len(right), len(powers))
    return np.append(0.0, p), weights, tails


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


def _band(p: np.ndarray, t_lo: float, t_hi: float):
    """Index range [b, e) of the ascending nodes p with 2^-10 <= p*t for
    every t in [t_lo, t_hi] and p*t < 2^10 for some: left of it exp(-u) is
    its Taylor polynomial, right of it 0 in double."""
    return np.searchsorted(p, (_TAYLOR_U / t_hi, 2.0**_DEPTH0_RIGHT / t_lo))


def _tiles(p: np.ndarray, ts: np.ndarray):
    """Yield (lo, hi, b, e): the ascending times ts[lo:hi] of one tile and
    its ``_band`` p[b:e].  A tile holds at most ``_TILE_ENTRIES`` entries
    and spans at most 2^_TILE_SPAN in t, so its band is at most that many
    panels wider than the band of its first time alone."""
    lo = 0
    while lo < ts.size:
        t_end = ts[lo] * 2.0**_TILE_SPAN
        b, e = _band(p, ts[lo], t_end)
        hi = min(lo + max(1, _TILE_ENTRIES // max(e - b, 1)),
                 int(np.searchsorted(ts, t_end, "right")))
        yield (lo, hi, *_band(p, ts[lo], ts[hi - 1]))
        lo = hi


def _exp_sums(p: np.ndarray, weights: np.ndarray, ts: np.ndarray,
              step: float | None = None) -> np.ndarray:
    """``sum_q weights[q] * exp(-p_q t)`` at the ascending times ts, one
    column per column of weights (shape (nodes, k)).

    A tile contracts one block exp(-outer(t, p)) over its band
    2^-10 <= p*t < 2^10 against every column at once; right of the band the
    exponential is 0.  On the grid ts = step * (1..n), the block of
    t_lo + i*step is a table exp(-outer(step * i, p)) of the call, if it
    fits ``_TABLE_ENTRIES``, against the columns times exp(-p t_lo).  Left
    of the band exp(-u) is its degree-5 Taylor polynomial to round-off, so
    those nodes enter through the moments ``sum W (p t_hi)^j`` of the
    tile's largest time t_hi.  The tiles run from the largest times down,
    so the nodes left of the band only grow: the moments run over the call,
    each node enters them once, and a tile rescales them by
    (t_hi / previous t_hi)^j <= 1, so no power of p leaves the double range.
    """
    j = np.arange(_TAYLOR_DEGREE + 1)
    inverse_fact = 1.0 / np.cumprod(np.maximum(j, 1))
    tiles = list(_tiles(p, ts))
    rows = max(hi - lo for lo, hi, _, _ in tiles)
    b0, e0 = tiles[-1][2], tiles[0][3]  # the bands move left as t grows
    table = (np.exp(np.multiply.outer(-step * np.arange(rows), p[b0:e0]))
             if step is not None and rows * (e0 - b0) <= _TABLE_ENTRIES else None)
    out = np.empty((ts.size, weights.shape[1]))
    moments = np.zeros((j.size, weights.shape[1]))
    done, t_top = 0, ts[-1]
    for lo, hi, b, e in reversed(tiles):
        tt = ts[lo:hi]
        moments *= (tt[-1] / t_top) ** j[:, None]
        moments += np.vander(p[done:b] * tt[-1], j.size,
                             increasing=True).T @ weights[done:b]
        done, t_top = b, tt[-1]
        if table is None:
            block, w = np.exp(np.multiply.outer(-tt, p[b:e])), weights[b:e]
        else:
            block = table[:hi - lo, b - b0:e - b0]
            w = np.exp(-tt[0] * p[b:e])[:, None] * weights[b:e]
        taylor = np.vander(-tt / t_top, j.size, increasing=True) * inverse_fact
        out[lo:hi] = block @ w + taylor @ moments
    return out


def _laplace_inversion(spec: MeasureSpec, t, theta: float):
    """r_theta at t, in the form of t (``_as_time_array``): one
    ``_exp_sums`` over one ``_inversion_table`` for all of t.
    """
    t_flat, form = _as_time_array(t)
    out = np.empty(t_flat.size)
    if t_flat.size:
        order = np.argsort(t_flat)
        ts = t_flat[order]
        p, weights, _ = _inversion_table(spec, theta, ts[0], ts[-1])
        out[order] = _exp_sums(p, weights, ts)[:, 0]
    return form(out)


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


def _resolvent_kernels(spec: MeasureSpec, theta: float, step: float, n: int,
                       powers=(0,)) -> list[DiscreteKernel]:
    """``f = sum_q c_q p_q^-s exp(-p_q t)`` over the ``_inversion_table`` of
    the grid t_j = j*step, j = 1..n, one ``DiscreteKernel`` per s in powers
    (s = 0 is r_theta): its samples and its cell integrals ``int f``,
    ``int s f`` and ``int (s - t_(m-1))(t_m - s) f`` over each cell
    (t_(m-1), t_m].

    Cell m is ``sum W exp(-p t_(m-1)) F(p)`` for the weights W of the table
    and the per-node cell factors F = tau phi_0, tau^2 phi_1 (plus t_(m-1)
    times the mass) and tau^3 phi_2 of ``_cell_factors``: for W >= 0 every
    term is nonnegative, so nothing cancels.  The samples and the cells
    m >= 2 are one ``_exp_sums`` over the grid; the first cell (t_0 = 0) is
    the plain sum of the factors over the nodes plus their right tails.
    Right of the table p*tau >= 2^11, where the factors are 1/p, 1/p^2 and
    tau/p^2 - 2/p^3, so the table's right tails j = 1, 2, 3 hold the
    moments ``sum W p^-j`` of each column beyond it.
    """
    t = _grid_times(step, n)
    p, weights, tails = _inversion_table(spec, theta, t[0], t[-1], powers,
                                         (1, 2, 3))
    k = weights.shape[1]
    factors = (_cell_factors(p * step)[:, None] * weights.T).reshape(3 * k, -1)
    factors *= np.repeat([step, step**2, step**3], k)[:, None]
    sums = _exp_sums(p, np.column_stack((weights, factors.T)), t, step)
    first = factors.sum(axis=1) + np.concatenate(
        (tails[0], tails[1], step * tails[1] - 2.0 * tails[2]))
    cells = np.vstack((first, sums[:-1, k:]))
    mass, shifted, bubble = np.split(cells, 3, axis=1)
    first_moment = (t - step)[:, None] * mass + shifted
    return [DiscreteKernel(step, *columns) for columns in zip(
        sums[:, :k].T, mass.T, first_moment.T, bubble.T)]


def _l_dyadic_chunks(spec: MeasureSpec, s: np.ndarray, m: int, chunks: int,
                     t_lo: float, t_hi: float) -> np.ndarray:
    """l at s * 2^(-m c), s ascending in [t_lo, t_hi], a row per c < chunks.

    The nodes of panel k + m c are those of panel k times 2^(m c), bit for
    bit, so l(s 2^(-m c)) is the sum over the nodes of ``_panel_range`` of s
    with the weights m c panels to the right; the nodes that pass the left
    end join the node at p = 0 as a prefix sum.  So one theta = 0
    ``_inversion_table`` of (t_lo, t_hi), reaching m (chunks - 1) panels
    further, and one ``_exp_sums`` take every row; s may hold the nodes of
    several walks.
    """
    p, weights, _ = _inversion_table(spec, 0.0, t_lo, t_hi,
                                     reach=m * (chunks - 1))
    coeff = weights[:, 0]
    k_lo = _panel_range(t_lo, t_hi)[0]
    k_hi = _panel_range(s[0], s[-1])[1]  # the table may reach further
    n = 1 + _GL_NODES_PER_PANEL * (k_hi - k_lo)
    shift = m * _GL_NODES_PER_PANEL * np.arange(chunks)
    weights = np.lib.stride_tricks.sliding_window_view(coeff, n)[shift].T
    weights[0] = np.cumsum(coeff)[shift]
    return _exp_sums(p[:n], weights, s).T


def _running_integrals(spec: MeasureSpec, t, theta: float) -> list:
    """``(1^d * r_theta)(t)``, d = 1, 2, 3: the mass, t * mass - first
    moment and (t * depth 2 - bubble)/2 of the cell (0, t] of
    ``_resolvent_kernels``, on one ``_inversion_table`` with its right tails
    j = 1, 2, 3, one ``_cell_factors`` call per block of at most
    ``_TILE_ENTRIES`` entries.  Each in the form of t (``_as_time_array``).
    """
    t_flat, form = _as_time_array(t)
    out = np.empty((3, t_flat.size))
    if t_flat.size:
        p, weights, tails = _inversion_table(
            spec, theta, np.min(t_flat), np.max(t_flat), right=(1, 2, 3))
        coeff, tails = weights[:, 0], tails[:, 0]
        rows = max(1, _TILE_ENTRIES // p.size)
        for lo in range(0, t_flat.size, rows):
            tt = t_flat[lo:lo + rows]
            phi = _cell_factors(np.multiply.outer(tt, p).ravel()).reshape(
                3, tt.size, p.size) @ coeff
            mass = tt * phi[0] + tails[0]
            depth2 = tt * mass - (tt**2 * phi[1] + tails[1])
            bubble = tt**3 * phi[2] + tt * tails[1] - 2.0 * tails[2]
            out[:, lo:lo + rows] = mass, depth2, 0.5 * (tt * depth2 - bubble)
    return [form(row) for row in out]


def l_eval(spec: MeasureSpec, t):
    """Convolution inverse of k (the Sonine partner), by Laplace inversion."""
    return _laplace_inversion(spec, t, 0.0)


def r_theta_eval(spec: MeasureSpec, t, theta: float):
    """Resolvent kernel of l: solves r + theta*(r*l) = l; theta=0 gives l."""
    return _laplace_inversion(spec, t, theta)


def resolvent_running_integral(spec: MeasureSpec, t, theta: float = 0.0):
    """Running integral ``(1 * r_theta)(t)``; theta=0 gives ``(1*l)(t)``."""
    return _running_integrals(spec, t, theta)[0]


def resolvent_tables(spec: MeasureSpec, t: np.ndarray, theta: float = 0.0
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pointwise r_theta and its three running integrals at the flat t."""
    t_flat = np.ravel(np.asarray(t, dtype=float))
    return (_laplace_inversion(spec, t_flat, theta),
            *_running_integrals(spec, t_flat, theta))


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
    """Samples at t_j = j*step, step positive and finite, plus optional
    exact cell integrals.

    ``cell_mass`` holds exact integrals over every cell ((j-1)*step, j*step],
    the first cell (0, step] included, and ``cell_first_moment`` the matching
    integrals of s*kernel(s); both are optional refinements used by the
    product-integration schemes.  Instances are treated as immutable; the
    sample array is locked.
    """

    step: float
    values: np.ndarray
    cell_mass: np.ndarray | None = None
    cell_first_moment: np.ndarray | None = None
    cell_bubble_moment: np.ndarray | None = None

    def __post_init__(self):
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        if vals.ndim != 1 or vals.size < 2:
            raise GridMismatchError("need at least 2 samples on one axis")
        if not np.all(np.isfinite(vals)):
            raise GridMismatchError("samples must be finite")
        if not 0.0 < self.step < math.inf:
            raise GridMismatchError(
                f"step must be positive and finite, not {self.step}")
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

    def masses(self) -> np.ndarray:
        """Cell masses A_m; the rectangle rule on the first cell and the
        trapezoid rule on the others when no exact table exists."""
        if self.cell_mass is not None:
            return self.cell_mass
        out = np.empty(self.n)
        out[0] = self.step * self.values[0]
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
            cell_mass=_s(self.cell_mass),
            cell_first_moment=_s(self.cell_first_moment),
            cell_bubble_moment=_s(self.cell_bubble_moment),
        )


def _is_integer(n) -> bool:
    """The one integer test of counts: an int or a numpy integer, not a bool."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


def _grid_times(step: float, n: int) -> np.ndarray:
    """t_j = j*step, j = 1..n, after the one check of a sampled grid: a
    finite step > 0 and horizon, an integer n >= 2 and the small-t floor."""
    if not (_is_integer(n) and n >= 2 and 0.0 < step <= step * n < math.inf):
        raise KernelGridError(f"need a finite step > 0, a finite horizon "
                              f"and an integer n >= 2, not step {step} and "
                              f"n {n!r}")
    if 1.0 < _SMALL_T_FLOOR * n:
        raise KernelGridError("grid too fine: first node below the small-t floor")
    return step * np.arange(1, n + 1)


def sample_kernels(spec: MeasureSpec, kinds, step: float, n: int,
                   theta: float = 0.0) -> list[DiscreteKernel]:
    """Samples of several kernels at t_j = j*step, j = 1..n (t = 0 excluded),
    one ``DiscreteKernel`` per kind; theta is the resolvent's.

    l and r_theta come from one node set and one ``_exp_sums``, a weight
    column each.  Every kind's samples must be finite, nonnegative and
    monotone in its direction; ``KernelGridError`` names the first property
    that fails.
    """
    t = _grid_times(step, n)
    kinds = [KernelKind(kind) for kind in kinds]
    evaluators = {KernelKind.K_KERNEL: k_eval, KernelKind.K1: k1_eval,
                  KernelKind.ONE_STAR_K: one_star_k_eval}
    thetas = [theta if kind is KernelKind.R_THETA else 0.0
              for kind in kinds if kind not in evaluators]
    if thetas:
        tables = [_inversion_table(spec, th, t[0], t[-1]) for th in thetas]
        inverted = iter(_exp_sums(tables[0][0], np.hstack(
            [w for _, w, _ in tables]), t, step).T)
    out = []
    for kind in kinds:
        vals = (evaluators[kind](spec, t) if kind in evaluators
                else next(inverted))
        if not np.all(np.isfinite(vals)):
            raise KernelGridError("samples must be finite")
        if np.any(vals < 0.0):
            raise KernelGridError("samples must be nonnegative")
        tol = 1e-12 * max(1.0, float(np.max(np.abs(vals))))
        diffs = np.diff(vals)
        if kind in _NONDECREASING:
            if np.any(diffs < -tol):
                raise KernelGridError(
                    f"{kind.value} samples must be nondecreasing")
        elif np.any(diffs > tol):
            raise KernelGridError(f"{kind.value} samples must be nonincreasing")
        out.append(DiscreteKernel(step, vals))
    return out


def sample_kernel(spec: MeasureSpec, kind: KernelKind, step: float, n: int,
                  theta: float = 0.0) -> DiscreteKernel:
    """Samples of one kernel: ``sample_kernels`` of the one kind."""
    return sample_kernels(spec, [kind], step, n, theta)[0]


# ---------------------------------------------------------------------------
# pointwise bound certificates


@dataclass(frozen=True)
class BoundCertificates:
    """Empirical constants for the pointwise kernel estimates on one grid.

    ``upper_ratio`` is l(t) * int t^(1-a) dmu, which exact analysis bounds by
    one; any sample above 1 + 1e-12 is a hard violation.  ``holder_ratio``
    tracks l(t) / t^(gamma_bar - 1) for t < 1.  The resolvent chain ratios
    are the three inequality gaps evaluated with theta = 1 / r^2 on the
    window t < Phi(r).
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
                       r: float = 0.5) -> BoundCertificates:
    """Measure the sharp upper bound on l and the resolvent comparison chain.

    ``l_kernel`` holds l on the certificate grid, as ``volterra.sample_l``.
    """
    from .geometry import phi  # local import to avoid a cycle
    t = l_kernel.times
    l_vals = l_kernel.values
    denom = t * k1_eval(spec, t)  # int t^(1-a) dmu = t * k1(t)
    upper = l_vals * denom
    hard = int(np.sum(~(upper <= 1.0 + 1e-12)))  # NaN counts as a violation

    gb = gamma_bar(spec)
    mask = t < 1.0
    holder = np.full_like(t, np.nan)
    holder[mask] = l_vals[mask] / t[mask] ** (gb - 1.0)

    window = t < phi(spec, r)  # phi refuses r <= 0 before theta is formed
    theta = 1.0 / r**2
    ct = t[window]
    if ct.size:
        # the grid needs two samples; 1*r_theta is the running sum of the
        # nonnegative cell masses of r_theta
        r_theta = _resolvent_kernels(spec, theta, l_kernel.step,
                                     max(ct.size, 2))[0]
        avg = np.cumsum(r_theta.cell_mass[:ct.size]) / ct
        chain1 = r_theta.values[:ct.size] / avg
        chain2 = avg / l_vals[window]
        chain3 = l_vals[window] * one_star_k_eval(spec, ct)
    else:
        chain1 = chain2 = chain3 = np.array([])
    return BoundCertificates(
        t=t, l_values=l_vals, upper_ratio=upper, holder_ratio=holder,
        chain_t=ct, chain_r_over_avg=chain1, chain_avg_over_l=chain2,
        chain_l_times_K=chain3, theta=theta, r=r, hard_violations=hard,
    )
