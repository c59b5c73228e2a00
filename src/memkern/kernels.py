"""Memory kernels of the calculus: k, k1, 1*k, H_theta, l, and r_theta.

The singular kernel k and its relatives have exact moment formulas.  The
convolution inverse l (k*l = 1) and the resolvent family r_theta only exist
through a real-axis inversion integral

    r_theta(t) = (1/pi) * int_0^inf exp(-p t) H_theta(p) dp,
    H_theta(p) = S / (S^2 + (theta + C)^2),
    S = int p^a sin(pi a) dmu,  C = int p^a cos(pi a) dmu,

which this module evaluates per call on one fixed set of Gauss-Legendre
nodes on dyadic panels in p, shared by every requested time and running
integral.  The panels extend right until the exponential (or the algebraic
tail of a running integral) has decayed and left until the blow-up of H near
p = 0 (exponent = lowest support point of the measure) has decayed below
round-off, so the scheme is spectrally accurate for every admissible
measure; a measure whose support reaches too close to order one makes the
left tail undecidable in double precision and raises ``KernelQuadratureError``.
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
_TILE_ENTRIES = 2**15  # times x nodes per inversion tile: 256 KB of doubles
_SMALL_T_FLOOR = 1e-8  # fraction of the horizon below which samples are refused


# Gauss-Legendre rule on [-1, 1], built once per order; callers only read it.
_gauss_legendre = functools.cache(np.polynomial.legendre.leggauss)


class KernelQuadratureError(RuntimeError):
    """Tail truncation of the inversion integral failed to converge."""


class KernelGridError(ValueError):
    """A sampled kernel violated its structural invariants."""


# ---------------------------------------------------------------------------
# pointwise kernels with exact or spectral moment formulas


def _piecewise_gauss(spec: MeasureSpec, f_of_alpha, t_arr: np.ndarray) -> np.ndarray:
    """Gauss-Legendre moment of an entire integrand over the weight pieces.

    The integrands used here (powers of t times reciprocal-gamma factors) are
    entire in alpha, so fixed-order panels converge spectrally; panel count
    grows with |log t| to keep the exponential growth resolved.
    """
    out = np.zeros_like(t_arr)
    pieces = [(a, b, w) for a, b, w in spec.pieces() if w > 0.0]
    if not pieces:
        return out
    t_col = np.atleast_1d(t_arr)
    acc = np.zeros_like(t_col)
    max_log = float(np.max(np.abs(np.log(t_col)))) if t_col.size else 0.0
    n_sub = max(1, math.ceil(max_log / 25.0))
    nodes, weights = _gauss_legendre(32)
    for a, b, w in pieces:
        edges = np.linspace(a, b, n_sub + 1)
        for lo, hi in zip(edges[:-1], edges[1:]):
            half = 0.5 * (hi - lo)
            mid = 0.5 * (hi + lo)
            alphas = mid + half * nodes
            vals = f_of_alpha(alphas[None, :], t_col[:, None])
            acc = acc + w * half * vals @ weights
    return out + acc.reshape(t_arr.shape)


def _as_time_array(t, positive: bool = True):
    t_arr = np.asarray(t, dtype=float)
    if positive and np.any(t_arr <= 0.0):
        raise MeasureError("kernel evaluation requires t > 0")
    return t_arr


def k_eval(spec: MeasureSpec, t):
    """Singular kernel ``k(t) = int t^-a / Gamma(1-a) dmu``."""
    t_arr = _as_time_array(t)
    out = np.zeros_like(t_arr)
    for a, q in spec.atoms:
        if q > 0.0:
            out = out + q * special.rgamma(1.0 - a) * t_arr ** (-a)
    out = out + _piecewise_gauss(
        spec, lambda al, tt: special.rgamma(1.0 - al) * tt ** (-al), t_arr
    )
    return out if isinstance(t, np.ndarray) else float(out)


def k1_eval(spec: MeasureSpec, t):
    """Plain power moment ``k1(t) = int t^-a dmu`` (exact closed form)."""
    return power_moment(spec, t)


def _iterated_integral(spec: MeasureSpec, t, depth: int):
    """d-fold running integral of k: ``int t^(d-a) / Gamma(d+1-a) dmu``."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0):
        raise MeasureError("running integrals require t >= 0")
    out = np.zeros_like(t_arr)
    pos = t_arr > 0.0
    if np.any(pos):
        tp = t_arr[pos]
        acc = np.zeros_like(tp)
        for a, q in spec.atoms:
            if q > 0.0:
                acc = acc + q * special.rgamma(depth + 1.0 - a) * tp ** (depth - a)
        acc = acc + _piecewise_gauss(
            spec,
            lambda al, tt: special.rgamma(depth + 1.0 - al) * tt ** (depth - al),
            tp,
        )
        out[pos] = acc
    return out if isinstance(t, np.ndarray) else float(out)


def one_star_k_eval(spec: MeasureSpec, t):
    """Running integral of k: ``(1*k)(t) = int t^(1-a) / Gamma(2-a) dmu``."""
    return _iterated_integral(spec, t, 1)


def iterated_k_integral(spec: MeasureSpec, t, depth: int = 2):
    """Repeated running integrals of k; depth=2 gives ``(1*1*k)(t)``."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    return _iterated_integral(spec, t, depth)


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


def _laplace_inversion(spec: MeasureSpec, t, theta: float, depths):
    """Iterated integrals of r_theta at t, one list entry per requested depth.

    Depth d is ``(1^d * r_theta)(t) = t^d/pi * int g_d(p t) H_theta(p) dp``,
    summed over one set of Gauss-Legendre nodes on dyadic panels in p that
    puts u = p*t over [2^-L, 2^(R+1)] for every t (2^10 for depth 0 alone:
    exp(-u) is 0 beyond), with H_theta evaluated once on it.  An array t
    gives arrays of its shape; anything else gives floats.
    """
    require_valid(spec)
    if theta < 0.0:
        raise ValueError("theta must be nonnegative")
    t_arr = _as_time_array(t)
    if not np.all(np.isfinite(t_arr)):
        raise MeasureError("kernel evaluation requires finite t")
    t_flat = t_arr.ravel()
    out = np.empty((len(depths), t_flat.size))
    if t_flat.size:
        n_left, n_right = _tail_panels(spec)
        u_right = _DEPTH0_RIGHT if max(depths) == 0 else n_right + 1
        # p reaches 2^-L for any t: once t < 2^-L, u >= 2^-L alone cuts at
        # p > 1, dropping 2^(-L (1 - a_high)) of l (all of it as a_high -> 1)
        k = np.arange(math.floor(-n_left - max(math.log2(t_flat.max()), 0.0)),
                      math.ceil(u_right - math.log2(t_flat.min())))
        nodes, weights = _gauss_legendre(_GL_NODES_PER_PANEL)
        # panel [2^k, 2^(k+1)] has midpoint 3 * 2^(k-1) and half-width 2^(k-1)
        p = np.ldexp(3.0 + nodes, k[:, None] - 1).ravel()
        w = np.ldexp(weights, k[:, None] - 1).ravel()
        coeff = w * h_laplace_eval(spec, p, theta)[0] / math.pi
        # where u < 2^-60 for every t, g_d(u) is 1/d! in double: sum once
        flat = np.searchsorted(p, 2.0**-60 / t_flat.max())
        head, p, coeff = coeff[:flat].sum(), p[flat:], coeff[flat:]
        rows = max(1, _TILE_ENTRIES // p.size)
        for lo in range(0, t_flat.size, rows):
            tt = t_flat[lo:lo + rows]
            g = _depth_kernels(np.multiply.outer(tt, p), depths)
            for i, d in enumerate(depths):
                out[i, lo:lo + rows] = tt**d * (
                    g[i] @ coeff + head / math.factorial(d))
    if isinstance(t, np.ndarray):
        return [row.reshape(t_arr.shape) for row in out]
    return [float(row[0]) for row in out]


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

    Sampling a kernel grid needs all four quantities at every node; the
    Laplace-plane function is by far the dominant cost, so this evaluates it
    once per time and contracts it against the four panel weight vectors.
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
        r_vals = np.asarray(r_theta_eval(spec, ct, theta))
        avg = np.asarray(resolvent_running_integral(spec, ct, theta)) / ct
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
