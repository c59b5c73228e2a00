"""Empirical verification of the structural regularity claims.

Nothing here proves anything: the routines measure the quantities the theory
bounds (mean-to-infimum ratios over paired cylinders, dyadic oscillation
decay, constancy after an attained maximum) on concrete solver output, so
that the bounded-constant claims can be certified at desk scale and
regressions in the calculus show up as blown-up ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measure import MeasureSpec, gamma_bar
from .geometry import Cylinder, build_cylinders, phi_bar
from .kernels import _is_integer
from .solver import (
    CoefficientField,
    SolutionField,
    SpatialGrid,
    _share,
    _shared_systems,
    solve,
)

__all__ = [
    "HarnackError",
    "critical_exponent",
    "HarnackReport",
    "weak_harnack_ratio",
    "EnsembleReport",
    "harnack_ensemble",
    "random_fourier_profile",
    "member_data",
    "spread_across",
    "OscillationProfile",
    "oscillation_profile",
    "strong_max_check",
]

_MIN_CYLINDER_CELLS = 8
_PROFILE_MODES = 8  # Fourier modes of random_fourier_profile
_PROFILE_DECAY = 1.5  # amplitude m^-decay of its mode m
_FLAT_TOL = 1e-10  # strong_max_check: attained and flat within this
_SNAP = 1e-9  # an edge this near a node, in steps or radii, lies on it


class HarnackError(ValueError):
    pass


def critical_exponent(gamma_bar_value: float, n_dim: int) -> float:
    """Supremal admissible moment exponent ``(2+N*g)/(2+N*g-2*g)``."""
    if not (0.0 < gamma_bar_value < 1.0):
        raise HarnackError("gamma_bar must lie in (0,1)")
    if n_dim < 1 or int(n_dim) != n_dim:
        raise HarnackError("dimension must be a positive integer")
    g = gamma_bar_value
    return (2.0 + n_dim * g) / (2.0 + n_dim * g - 2.0 * g)


def _snapped(x) -> np.ndarray:
    """``x`` with each entry within ``_SNAP`` of an integer moved onto it."""
    near = np.rint(x)
    return np.where(np.abs(x - near) <= _SNAP, near, x)


def _rows(field: SolutionField, t_start: float, t_end: float,
          anchor: int = -1) -> np.ndarray:
    """Mask of the rows m with t_start/step < m < t_end/step, both edges
    ``_snapped``, and of the row ``anchor`` if given."""
    start, end = _snapped(np.array([t_start, t_end]) / field.step)
    steps = np.arange(field.values.shape[0])
    return (steps > start) & (steps < end) | (steps == anchor)


def _anchor_slice(t1: float, step: float) -> int:
    """Row of the slice at time t1 on steps of ``step``, or of the last one
    before it: the anchor of ``oscillation_profile``'s levels."""
    return int(math.floor(_snapped(t1 / step)))


def _point(grid: SpatialGrid, x) -> np.ndarray:
    """A point of the grid's space; one number stands for it on every axis."""
    try:
        return np.broadcast_to(np.asarray(x, dtype=float), (grid.dim,))
    except ValueError:
        raise HarnackError(f"{x!r} is not a point of a {grid.dim}d grid"
                           ) from None


# ---------------------------------------------------------------------------
# cylinder sampling


def _cylinder_masks(field: SolutionField, cyl: Cylinder,
                    anchor: int = -1) -> np.ndarray:
    """Flat indices into ``field.values`` of the samples strictly inside the
    cylinder, and of the whole slice ``anchor`` if given, in row-major
    order: ``field.values.take`` of them reads the cylinder in one gather.
    Both edges are open, times in steps and distances in radii: row m is
    inside when t_start/step < m < t_end/step (``_rows``), a cell when
    |centre - x0|/radius < 1, each ratio ``_snapped`` within 1e-9, so a
    node on an edge is out however it rounds.  They are read-only, as
    ``_harnack_masks`` shares them."""
    grid = field.grid
    if grid.dim == 0:
        raise HarnackError("cylinder measurements need a spatial grid")
    rows = np.flatnonzero(_rows(field, cyl.t_start, cyl.t_end, anchor))
    centers = grid.centers().reshape(-1, grid.dim)
    dist = np.linalg.norm(centers - np.asarray(cyl.center), axis=1)
    cells = np.flatnonzero(_snapped(dist / cyl.radius) < 1.0)
    idx = (rows[:, None] * grid.n_total + cells).ravel()
    idx.flags.writeable = False
    return idx


def _harnack_masks(field: SolutionField, spec: MeasureSpec, t0: float, x0,
                   r: float, delta: float, tau: float) -> tuple:
    """``(early, late)``: ``_cylinder_masks`` of the early and the late
    ``build_cylinders``, built once inside ``_shared_systems()`` for fields
    of equal values shape, step and grid extents."""
    center = _point(field.grid, x0)
    key = ("cylinders", field.values.shape, field.step, field.grid.extents,
           spec, t0, tuple(center.tolist()), r, delta, tau)
    return _share(key, lambda: tuple(
        _cylinder_masks(field, c)
        for c in build_cylinders(spec, t0, center, r, delta, tau)))


def _scale(field: SolutionField) -> float:
    """``max|u|`` over the trajectory, at least 1."""
    return max(float(field.values.max()), -float(field.values.min()), 1.0)


@dataclass(frozen=True)
class HarnackReport:
    p: float
    mean_p: float
    inf_plus: float
    correction: float
    ratio: float | None
    status: str            # "ok" | "degenerate" | "unbounded"
    n_cells_minus: int
    n_cells_plus: int


def weak_harnack_ratio(field: SolutionField, spec: MeasureSpec, *,
                       t0: float, x0, r: float, delta: float, tau: float,
                       p: float) -> HarnackReport:
    """Ratio of the early Lp mean to the late infimum over paired cylinders.

    The negative-forcing correction ``r^2 * sup f^-`` enters the denominator
    whenever the field carries forcing samples.  Nonnegativity of u on the
    working cylinder is a precondition; solver round-off slightly below zero
    is clipped.
    """
    gb = gamma_bar(spec)
    kappa = critical_exponent(gb, max(field.grid.dim, 1))
    if not (0.0 < p < kappa):
        raise HarnackError(f"p={p} outside (0, {kappa:.4f})")
    u_minus, u_plus = map(field.values.take, _harnack_masks(
        field, spec, t0, x0, r, delta, tau))
    if min(u_minus.size, u_plus.size) < _MIN_CYLINDER_CELLS:
        raise HarnackError(
            f"discrete cylinders too small ({u_minus.size}, {u_plus.size}); "
            "refine the grid or enlarge the cylinder")
    scale = _scale(field)
    if min(u_minus.min(), u_plus.min()) < -1e-9 * scale:
        raise HarnackError("field is negative on the working cylinder")
    u_minus = np.maximum(u_minus, 0.0)
    u_plus = np.maximum(u_plus, 0.0)

    # scaled power mean: exact for constant fields and overflow-safe in p
    peak = float(np.max(u_minus))
    if peak == 0.0:
        mean_p = 0.0
    else:
        mean_p = float(peak * np.mean((u_minus / peak) ** p) ** (1.0 / p))
    inf_plus = float(np.min(u_plus))
    correction = r**2 * field.f_negative_sup()
    denom = inf_plus + correction
    tiny = 1e-14 * scale
    if denom <= tiny and mean_p <= tiny:
        status, ratio = "degenerate", None
    elif denom <= tiny:
        status, ratio = "unbounded", None
    else:
        status, ratio = "ok", mean_p / denom
    return HarnackReport(p=p, mean_p=mean_p, inf_plus=inf_plus,
                         correction=correction, ratio=ratio, status=status,
                         n_cells_minus=int(u_minus.size),
                         n_cells_plus=int(u_plus.size))


# ---------------------------------------------------------------------------
# random ensembles


def random_fourier_profile(rng: np.random.Generator):
    """Clipped random Fourier profile on [0,1]: smooth, nonnegative, seeded.

    Returns a callable of the spatial coordinate so the same draw can be
    sampled on any grid resolution.
    """
    offsets = abs(rng.normal(loc=0.8, scale=0.3))
    modes = np.arange(1, _PROFILE_MODES + 1)
    amps = rng.normal(size=_PROFILE_MODES) / modes**_PROFILE_DECAY
    phases = rng.uniform(0.0, 2.0 * math.pi, size=_PROFILE_MODES)

    def profile(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        axes = (-1,) + (1,) * x.ndim  # one mode per leading index
        waves = amps.reshape(axes) * np.sin(
            np.multiply.outer(math.pi * modes, x) + phases.reshape(axes))
        acc = np.full_like(x, offsets)
        for wave in waves:  # summed mode by mode, lowest first
            acc += wave
        return np.maximum(acc, 0.0)

    return profile


def _half_sine(grid: SpatialGrid, axis: int) -> np.ndarray:
    """``sin(pi y)`` of the cell centres along ``axis``, mapped onto (0, 1)."""
    lo, hi = grid.extents[axis]
    return np.sin(math.pi * (grid.axis_centers(axis) - lo) / (hi - lo))


def spread_across(grid: SpatialGrid, along_x: np.ndarray) -> np.ndarray:
    """Cell data from values along the first axis: those values themselves
    in 1d, times ``sin(pi y)`` across the second axis in 2d."""
    if grid.dim == 1:
        return along_x
    return np.outer(along_x, _half_sine(grid, 1))


def member_data(grid: SpatialGrid, seed: int, member: int) -> np.ndarray:
    """Initial data of ensemble member ``member``: the clipped Fourier
    profile of ``SeedSequence([seed, member])``, spread across the grid.
    Refining the grid resamples the same continuum data."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, member]))
    return spread_across(grid, random_fourier_profile(rng)(
        grid.axis_centers(0)))


@dataclass(frozen=True)
class EnsembleReport:
    seed: int
    p: float
    n_cells: int
    ratios: tuple[float, ...]
    statuses: tuple[str, ...]
    max_ratio: float
    median_ratio: float
    max_step_residual: float  # worst relative step residual of any member
    lu_factorisations: int    # computed over all members; 1 when shared
    lu_fill: int              # entries of the largest step factors used
    coefficient_bounds: tuple[float, float]  # (nu, lam) every member read
    wall_time: float          # the members' solves, summed

    @property
    def all_finite(self) -> bool:
        return all(s == "ok" for s in self.statuses)


def harnack_ensemble(spec: MeasureSpec, grid: SpatialGrid,
                     coefficients: CoefficientField, *, n_members: int,
                     seed: int, n_steps: int, r: float, x0,
                     delta: float = 0.5, tau: float = 1.0, p: float = 1.0,
                     t0: float = 0.0) -> EnsembleReport:
    """Weak-Harnack ratios over seeded random nonnegative initial data.

    Member m starts from ``member_data(grid, seed, m)``.  The members differ
    only in their initial data, so inside one ``_shared_systems()`` scope
    they share one set of history weights with its far-field blocks, one
    factorised step system with its boundary vector, and the index arrays
    of one pair of cylinders; each member runs one ``solve`` and one
    ``weak_harnack_ratio``, which take them from the scope.
    """
    if grid.dim == 0:
        raise HarnackError("the ensemble needs a 1d or 2d grid")
    if not (_is_integer(n_members) and n_members >= 1):
        raise HarnackError("the ensemble needs at least one member, counted "
                           f"by an integer, not {n_members!r}")
    if not _is_integer(seed):
        raise HarnackError(f"the seed must be an integer, not {seed!r}")
    height = 2.0 * tau * phi_bar(spec, r)
    ratios: list[float] = []
    statuses: list[str] = []
    worst, factorisations, fill, bounds = 0.0, 0, 0, None
    wall = 0.0
    with _shared_systems():
        for member in range(n_members):
            fld = solve(spec, grid, coefficients,
                        member_data(grid, seed, member), 0.0, t0 + height,
                        n_steps)
            report = weak_harnack_ratio(fld, spec, t0=t0, x0=x0, r=r,
                                        delta=delta, tau=tau, p=p)
            statuses.append(report.status)
            ratios.append(report.ratio if report.ratio is not None
                          else math.nan)
            worst = float(np.maximum(worst, fld.max_step_residual))
            factorisations += fld.lu_factorisations
            fill = max(fill, fld.lu_fill)
            wall += fld.wall_time
            bounds = fld.coefficient_bounds  # the same for every member
    arr = np.asarray(ratios)
    finite = arr[np.isfinite(arr)]
    return EnsembleReport(
        seed=seed, p=p, n_cells=grid.n_total, ratios=tuple(ratios),
        statuses=tuple(statuses),
        max_ratio=float(np.max(finite)) if finite.size else math.nan,
        median_ratio=float(np.median(finite)) if finite.size else math.nan,
        max_step_residual=worst, lu_factorisations=factorisations,
        lu_fill=fill, coefficient_bounds=bounds, wall_time=wall,
    )


# ---------------------------------------------------------------------------
# oscillation decay


@dataclass(frozen=True)
class OscillationProfile:
    levels: tuple[int, ...]
    radii: tuple[float, ...]
    osc: tuple[float, ...]
    kappa: float | None
    fit_residual: float | None
    status: str  # "ok" | "flat"

    @property
    def flat(self) -> bool:
        return self.status == "flat"


def oscillation_profile(field: SolutionField, spec: MeasureSpec, *,
                        t1: float, x1, theta: float, levels, r: float
                        ) -> OscillationProfile:
    """Oscillation of u over nested dyadic cylinders anchored at (t1, x1).

    Level j, an integer, samples the open cylinder (t1 - theta*Phi(2^(1-j)
    r), t1) x B(x1, 2^-j r) through ``_cylinder_masks`` (open edges, times
    in steps and distances in radii, snapped within 1e-9), and always its
    anchor slice ``_anchor_slice(t1, step)``, since the level depths drop
    below the time step within a few levels.  Levels that start at t <= 0
    (in steps, snapped), whose ball leaves the grid or that hold fewer than
    2 samples are skipped.  The decay exponent is the negative slope of
    log2(osc) against the level, fitted over levels whose oscillation
    clears the round-off floor; a field that is flat at every level reports
    status "flat" instead of an exponent.
    """
    for j in levels:
        if not _is_integer(j):
            raise HarnackError(f"level {j!r} is not an integer")
    levels = sorted(int(j) for j in levels)
    if len(levels) < 3:
        raise HarnackError("need at least 3 levels")
    if len(set(levels)) < len(levels):
        raise HarnackError(f"levels {levels} repeat a level")
    grid = field.grid
    if grid.dim == 0:
        raise HarnackError("oscillation profiles need a spatial grid")
    top_idx = _anchor_slice(t1, field.step)
    if top_idx < 1 or top_idx > field.n_steps:
        raise HarnackError("anchor time t1 outside the computed trajectory")
    x1c = _point(grid, x1)
    rhos = 0.5 ** np.asarray(levels, dtype=float) * r
    depths = theta * phi_bar(spec, rhos)
    radii, oscs, kept = [], [], []
    for j, rho_r, depth in zip(levels, rhos.tolist(), depths.tolist()):
        if _snapped((t1 - depth) / field.step) <= 0.0 or not all(
                lo <= c - rho_r and c + rho_r <= hi
                for c, (lo, hi) in zip(x1c, grid.extents)):
            continue
        u = field.values.take(_cylinder_masks(field, Cylinder(
            t1 - depth, t1, x1c, rho_r), top_idx))
        if u.size < 2:
            continue
        kept.append(j)
        radii.append(rho_r)
        oscs.append(float(np.max(u) - np.min(u)))
    if len(kept) < 3:
        raise HarnackError("fewer than 3 usable levels inside the domain")
    osc_arr = np.asarray(oscs)
    floor = 10.0 * np.finfo(float).eps * _scale(field)
    usable = osc_arr > floor
    if not np.any(usable):
        return OscillationProfile(tuple(kept), tuple(radii), tuple(oscs),
                                  kappa=None, fit_residual=None, status="flat")
    if int(np.sum(usable)) < 3:
        raise HarnackError("fewer than 3 levels above the noise floor")
    j_arr = np.asarray(kept, dtype=float)[usable]
    y = np.log2(osc_arr[usable])
    slope, intercept = np.polyfit(j_arr, y, 1)
    fit = slope * j_arr + intercept
    resid = float(np.sqrt(np.mean((y - fit) ** 2)))
    return OscillationProfile(tuple(kept), tuple(radii), tuple(oscs),
                              kappa=float(-slope), fit_residual=resid,
                              status="ok")


# ---------------------------------------------------------------------------
# strong maximum principle


def strong_max_check(field: SolutionField, cyl: Cylinder) -> str:
    """Constancy-after-attained-maximum verdict on one cylinder.

    If the supremum over the cylinder reaches the global supremum (within
    ``_FLAT_TOL``), every earlier time slice must be flat; returns
    "consistent", "violated", or "not-applicable" when the hypothesis fails.
    The cylinder is sampled by ``_cylinder_masks`` and the earlier slices
    are the rows of the open interval (0, t_start) by ``_rows``'s rule, in
    steps and snapped; row 0 is data, not solution, and is not read.
    """
    u_cyl = field.values.take(_cylinder_masks(field, cyl))
    if u_cyl.size == 0:
        raise HarnackError("cylinder contains no samples")
    global_sup = float(np.max(field.values))
    if float(np.max(u_cyl)) < global_sup - _FLAT_TOL:
        return "not-applicable"
    earlier = field.values[_rows(field, 0.0, cyl.t_start)]
    spread = np.ptp(earlier.reshape(-1, field.grid.n_total), axis=1)
    return "violated" if np.any(spread > _FLAT_TOL) else "consistent"
