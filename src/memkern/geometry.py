"""Scaling function, kernel-adapted cylinders, and their certificates.

The anomalous space-time scaling of the calculus is carried by the function
Phi with k1(Phi(r)) = r^-2: a ball of radius r pairs with a time depth
Phi(r).  ``phi`` solves it for an array of radii at once by Newton on
log k1 against log x: that function is convex (its second derivative is the
variance of the order under the weights x^-alpha dmu) and its slope is minus
the weighted mean order, so the iteration from x = 1 converges without a
bracketing phase.  Cylinders here are plain boxes (time interval x ball)
whose heights are set by Phi, and the certificate routines measure the
inequalities that make the cylinder geometry usable at small radii.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measure import (
    MeasureError,
    MeasureSpec,
    _as_time_array,
    alpha_power_moment,
    gamma_bar,
    power_moment,
    tail_mass,
)
from .kernels import _gauss_panels, _l_dyadic_chunks, _panel_range

__all__ = [
    "GeometryError",
    "Cylinder",
    "phi",
    "phi_bar",
    "build_cylinders",
    "ScalingCertificate",
    "scaling_p_sup",
    "scaling_certificate",
    "PhiLambdaReport",
    "phi_lambda_check",
    "PhiLowerBoundReport",
    "phi_lower_bound_check",
]


class GeometryError(ValueError):
    pass


# ---------------------------------------------------------------------------
# the scaling function


_PHI_LO, _PHI_HI = 1e-300, 1e300


def phi(spec: MeasureSpec, r):
    """Time height Phi(r): the unique solution of ``k1(Phi(r)) = r^-2``.

    In the form of r (``_as_time_array``).  Every radius runs Newton on
    log k1 against log x from x = 1, clipped to [1e-300, 1e300] and frozen
    once its step is below 1e-13, so a radius gets the same bits alone or in
    a batch.
    """
    try:
        flat, form = _as_time_array(r)
    except MeasureError:
        raise GeometryError("phi requires finite radii r > 0") from None
    target = flat ** -2.0
    k1_lo, k1_hi = power_moment(spec, _PHI_LO), power_moment(spec, _PHI_HI)
    crossed = (k1_lo > target) & (target > k1_hi)
    if not np.all(crossed):
        bad = float(flat[~crossed][0])
        raise GeometryError(
            f"no bracket for phi({bad}): k1 range does not cross {bad**-2.0}")
    # log k1(e^y) is convex with slope minus the weighted mean order, so
    # Newton from y = 0 moves monotonically to the root once left of it; a
    # first step from the right can overshoot past x = 0, hence the clip
    x = np.ones_like(flat)
    active = np.ones(flat.shape, dtype=bool)
    for _ in range(64):
        if not active.any():
            break
        xa = x[active]
        k1_x = power_moment(spec, xa)
        step = (np.log(k1_x / target[active]) * k1_x
                / alpha_power_moment(spec, xa))
        x[active] = np.clip(xa * np.exp(step), _PHI_LO, _PHI_HI)
        active[active] = np.abs(step) > 1e-13
    resid = np.abs(power_moment(spec, x) * flat**2 - 1.0)
    if not np.all(resid <= 1e-11):
        i = int(np.argmax(~(resid <= 1e-11)))
        raise GeometryError(
            f"phi root polish failed at r={flat[i]}: residual {resid[i]}")
    return form(x)


def phi_bar(spec: MeasureSpec, r):
    """Doubled-radius height ``Phi(2r)``, the natural cylinder time scale."""
    heights = phi(spec, 2.0 * np.ravel(r))  # refuses r as phi does
    return _as_time_array(r)[1](heights)


# ---------------------------------------------------------------------------
# cylinders


@dataclass(frozen=True)
class Cylinder:
    t_start: float
    t_end: float
    center: tuple[float, ...]
    radius: float

    def __post_init__(self):
        if not self.t_start < self.t_end:
            raise GeometryError("cylinder needs t_start < t_end")
        if not self.radius > 0.0:
            raise GeometryError(
                f"cylinder needs radius > 0, not {self.radius}")
        object.__setattr__(self, "center", tuple(
            float(c) for c in np.atleast_1d(self.center)))


def build_cylinders(spec: MeasureSpec, t0: float, x0, r: float, delta: float,
                    tau: float) -> tuple[Cylinder, Cylinder]:
    """Early mean box and late infimum box over the same shrunken ball.

    The pair is (t0, t0 + delta*tau*Phi(2r)) x B(x0, delta*r) and
    (t0 + (2-delta)*tau*Phi(2r), t0 + 2*tau*Phi(2r)) x B(x0, delta*r);
    disjoint, with the same total time span 2*tau*Phi(2r).
    """
    for name, value in (("t0", t0), ("tau", tau), ("r", r)):
        if not math.isfinite(value):
            raise GeometryError(f"{name} = {value} is not finite")
    if not (0.0 < delta < 1.0):
        raise GeometryError("delta must lie in (0,1)")
    if tau <= 0.0 or r <= 0.0:
        raise GeometryError("tau and r must be positive")
    height = tau * phi(spec, 2.0 * r)
    return (Cylinder(t0, t0 + delta * height, x0, delta * r),
            Cylinder(t0 + (2.0 - delta) * height, t0 + 2.0 * height, x0,
                     delta * r))


# ---------------------------------------------------------------------------
# certificates


def _stop_panels(pieces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Running totals of the Lp walks whose panel pieces are the rows of
    ``pieces``, and the panel each walk stops on: the first j >= 20 whose
    piece is below 1e-10 of the total so far, that piece included, or -1
    for a walk that does not stop."""
    total = np.cumsum(pieces, axis=1)
    stop = (pieces < 1e-10 * total) & (np.arange(pieces.shape[1]) >= 20)
    return total, np.where(stop.any(axis=1), stop.argmax(axis=1), -1)


def _walk_chunks(spec: MeasureSpec, p: float, upper: np.ndarray,
                 most: int) -> int:
    """Chunks that the Lp walks to ``upper`` read, plus one, at most
    ``most``: ``_stop_panels`` on the panels of ``s l(s)^p`` with l
    replaced by its sharp bound 1/(s k1(s)), summed in logs.  Near 0 its
    decay rate 1 - p(1 - mean order under s^-a dmu) tends to
    1 - p(1 - gamma_bar); at a single order the two walks stop on the same
    panel, on mixtures and weight bands within a chunk."""
    j = np.arange(8 * most)
    log_s = np.log(0.75 * upper)[:, None] - math.log(2.0) * j
    log_m = (1.0 - p) * log_s - p * np.log(power_moment(spec, np.exp(log_s)))
    stop = _stop_panels(np.exp(log_m - log_m.max(axis=1, keepdims=True)))[1]
    return min(most, int(np.where(stop < 0, j[-1], stop).max()) // 8 + 2)


@dataclass(frozen=True)
class ScalingCertificate:
    """Measured constants of the Lp-norm scaling bound on dyadic radii.

    ``log_ratio`` holds log of ``||l||_{Lp(0,Phi(2r))}^p * Phi(2r)^(p-1) /
    r^(2p)`` per radius; ratios are exponentiated where representable.  The
    admissible radius is the largest grid point with Phi(2r) <= 1 whose ratio
    stays within a factor two of the small-radius plateau.
    """

    p: float
    r: np.ndarray
    phi_2r: np.ndarray
    log_lhs: np.ndarray
    log_rhs: np.ndarray
    log_ratio: np.ndarray
    ratio: np.ndarray
    c_emp: float
    r_admissible: float
    log_plateau: float
    walk_chunks: tuple[int, int]  # chunks of l computed; most a walk read


def scaling_p_sup(spec: MeasureSpec) -> float:
    """1/(1 - gamma_bar): the exponents of the Lp scaling bound are the p
    in [1, scaling_p_sup)."""
    return 1.0 / (1.0 - gamma_bar(spec))


def scaling_certificate(spec: MeasureSpec, p: float,
                        r_grid) -> ScalingCertificate:
    """Measure the constant in the Lp scaling bound over a radius grid.

    The Lp walk to upper = Phi(2r) sums ``l^p``, integrable at zero for
    admissible p, over dyadic Gauss-Legendre panels j = 0, 1, ... on
    (upper/2^(j+1), upper/2^j] until ``_stop_panels`` stops it or 400 panels
    are taken; the rest past the last panel is the geometric series of the
    last two, whose ratio must lie in (0, 1).
    """
    top = scaling_p_sup(spec)
    if not (1.0 <= p < top):
        raise GeometryError(
            f"p={p} out of admissible range [1, {top:.6g})")
    r = np.sort(np.asarray(r_grid, dtype=float))
    if r.size == 0 or np.any(r <= 0.0):
        raise GeometryError("need a nonempty positive radius grid")
    phi2r = phi(spec, 2.0 * r)
    uppers = phi2r.tolist()
    s, weights = map(np.stack, zip(*(
        _gauss_panels(x * 0.5 ** np.arange(8, -1, -1), 16) for x in uppers)))
    s = s.ravel()
    order = np.argsort(s)
    # one node table and one exponential sum for the walks of all radii:
    # chunk c of the walk to the smallest Phi(2r) needs 8c panels past its
    # first, and no panel edge may pass 2^1023 (Phi(2r) >= 1e-300 keeps the
    # first chunk below it).  Walks that the chunks do not finish get all
    # that fit.
    t_lo, t_hi = phi2r.min() / 256, phi2r.max()
    most = min(50, (1023 - _panel_range(t_lo, t_hi)[1]) // 8 + 1)
    chunks = _walk_chunks(spec, p, phi2r, most)
    while True:
        l = _l_dyadic_chunks(spec, s[order], 8, chunks, t_lo, t_hi
                             )[:, np.argsort(order)]
        # chunk c holds panels 8c..8c+7 of every walk, chunk 0 scaled by
        # 2^(-8c); panel 8c + i is row 7 - i of the ascending edges
        pieces = (l.reshape(chunks, r.size, 8, 16) ** p * np.ldexp(
            weights, -8 * np.arange(chunks)[:, None, None, None])
            ).reshape(-1, 16).sum(axis=1).reshape(chunks, r.size, 8)
        pieces = pieces[..., ::-1].transpose(1, 0, 2).reshape(r.size, -1)
        totals, stops = _stop_panels(pieces)
        if chunks == most or np.all(stops >= 0):
            break
        chunks = most
    if 8 * chunks < 400 and np.any(stops < 0):
        raise GeometryError(f"Lp walk to {uppers[np.argmax(stops < 0)]} "
                            "needs nodes past the double range")
    stops[stops < 0] = 8 * chunks - 1  # the 400-panel cap
    log_lhs = []
    for x, piece, total, j in zip(uppers, pieces.tolist(), totals.tolist(),
                                  stops.tolist()):
        prev, piece = piece[j - 1], piece[j]
        if prev == 0.0:
            raise GeometryError(f"Lp walk to {x}: l^p underflows to 0 on "
                                "its last two panels")
        q = piece / prev
        if not 0.0 < q < 1.0:
            raise GeometryError(
                f"Lp walk to {x}: last panel ratio {q} is not in (0, 1)")
        log_lhs.append(math.log(total[j] + piece * q / (1.0 - q))
                       + (p - 1.0) * math.log(x))
    log_lhs = np.array(log_lhs)
    log_rhs = 2.0 * p * np.log(r)
    log_ratio = log_lhs - log_rhs

    inside = phi2r <= 1.0
    if not np.any(inside):
        raise GeometryError("no grid radius satisfies Phi(2r) <= 1")
    # the plateau is the limiting small-radius value; the admissible radius is
    # the largest grid point below which every ratio stays within 2x of it,
    # or r[0] (r is sorted and Phi increasing, so ``inside`` is a prefix)
    log_plateau = float(log_ratio[inside][0])
    within = inside & (np.abs(log_ratio - log_plateau) <= math.log(2.0))
    leading = int(np.logical_and.accumulate(within).sum())
    r_adm = float(r[max(leading, 1) - 1])
    window = inside & (r <= r_adm)
    log_c_emp = float(np.max(log_ratio[window]))
    if log_c_emp > math.log(np.finfo(float).max):
        raise GeometryError(f"scaling certificate at p = {p:.6g}: log c_emp = "
                            f"{log_c_emp:.6g} is past the double range")
    c_emp = float(np.exp(log_c_emp))
    with np.errstate(over="ignore"):
        ratio = np.exp(log_ratio)
    return ScalingCertificate(p=p, r=r, phi_2r=phi2r, log_lhs=log_lhs,
                              log_rhs=log_rhs, log_ratio=log_ratio,
                              ratio=ratio, c_emp=c_emp, r_admissible=r_adm,
                              log_plateau=log_plateau,
                              walk_chunks=(chunks,
                                           int(stops.max()) // 8 + 1))


def _worst(rel: np.ndarray) -> float:
    """Largest relative slack, NaN skipped; -inf when none is a number."""
    return float(np.fmax.reduce(rel.ravel(), initial=-np.inf))


def _violations(rel: np.ndarray) -> int:
    return int(np.sum(~(rel <= 1e-12)))  # NaN counts as a violation


@dataclass(frozen=True)
class PhiLambdaReport:
    worst_rel_slack: float
    violations: int

    @property
    def ok(self) -> bool:
        return self.violations == 0


def phi_lambda_check(spec: MeasureSpec, r_grid, lambda_grid) -> PhiLambdaReport:
    """Verify ``Phi(lambda*r) <= lambda^2 * Phi(r)`` over the grid product."""
    r = np.asarray(r_grid, dtype=float)
    lam = np.asarray(lambda_grid, dtype=float)
    if r.size == 0 or lam.size == 0:
        raise GeometryError("grids must be nonempty")
    if np.any((lam <= 0.0) | (lam > 1.0)):
        raise GeometryError("lambda grid must lie in (0,1]")
    rhs = np.multiply.outer(phi(spec, r), lam**2)
    rel = (phi(spec, np.multiply.outer(r, lam)) - rhs) / rhs
    return PhiLambdaReport(worst_rel_slack=_worst(rel),
                           violations=_violations(rel))


@dataclass(frozen=True)
class PhiLowerBoundReport:
    c_mu: float
    worst_rel_slack: float
    violations: int

    @property
    def ok(self) -> bool:
        return self.violations == 0


def phi_lower_bound_check(spec: MeasureSpec, r_grid) -> PhiLowerBoundReport:
    """Verify ``c_mu * r^(2/gamma_bar) <= Phi(r)`` for radii in (0,1)."""
    r = np.asarray(r_grid, dtype=float)
    if r.size == 0 or np.any((r <= 0.0) | (r >= 1.0)):
        raise GeometryError("radius grid must lie in (0,1)")
    gb = gamma_bar(spec)
    c_mu = min(tail_mass(spec, gb) ** (1.0 / gb), 1.0)
    phi_r = phi(spec, r)
    rel = (c_mu * r ** (2.0 / gb) - phi_r) / phi_r
    return PhiLowerBoundReport(c_mu=float(c_mu), worst_rel_slack=_worst(rel),
                               violations=_violations(rel))
