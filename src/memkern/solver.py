"""Implicit time stepping for the memory-diffusion equation.

The discretization treats the history term by product integration: with
K = 1*k available in closed form, the weights

    beta_{m,i} = [K(t_m - t_{i-1}) - K(t_m - t_i)] / tau

are exact kernel-cell integrals that depend on the lag m - i alone, and the
step m solves

    ((beta_{m,m} + lam) I + L_m) u_m
        = beta_{m,m} u_{m-1} - sum_{i<m} beta_{m,i} (u_i - u_{i-1}) + f_m,

where lam is the reaction rate and L_m the flux-form divergence of diagonal
A with face coefficients averaged from the cell centers, absent in the
space-free relaxation mode.  The history sum is a lower-triangular Toeplitz
product, which ``volterra._ToeplitzHistory`` splits into base blocks: the
far field of earlier blocks arrives by dense or FFT block convolutions at
block starts, O(N log^2 N) over a trajectory.  The unit of stepping is the
run of steps that share one step matrix: a base block's steps, or one step
for a time-dependent A.  Every term that no solve of a run changes, f_m and
the Dirichlet boundary vector included, is subtracted from its rows at its
start, so a step is one product of the near-field weights with the rows of
its own block, one solve and one difference.  The relaxation mode has no
spatial operator, so its whole trajectory is one triangular Toeplitz solve,
made once however it is stepped.  The step matrix is built from its
diagonals, the main one and one symmetric band per axis (3 points in 1d, 5
in 2d), and since beta_{m,m} = beta_{m,1} for every m, it is factorised
once and reused for the whole trajectory unless the coefficients are
declared time dependent: in 1d, where it is symmetric tridiagonal and
positive definite whenever beta_{m,m} + lam > 0 (L is positive
semidefinite), as L D L^T by LAPACK's ``dpttrf`` and ``dpttrs``, and in 2d
by sparse LU with the minimum-degree ordering of its symmetric pattern and
no row pivoting, whose pivots then have the signs of the eigenvalues; in
both a step matrix that is not positive definite is refused (scipy is
imported by ``solve``, before its clock starts).  Inside
``_shared_systems()``, as over the members of a Harnack ensemble,
trajectories with equal measure, step count and step share one set of
history weights with its far-field blocks, those whose step matrices agree
share one factorisation, and ``harnack`` builds the index arrays of a pair
of cylinders once for fields of one layout.  The relative residual of every
step is checked against the matrix it solved with, by one sparse product at
the end of its run (of one step when taken by ``advance``).  All weights
are positive and decreasing back in time, which is what the nonnegativity
and comparison checks in the test-suite lean on.

A, u0, f and the Dirichlet values g are data on point sets of shape
``(..., dim)`` (the cell centres, and a side's face midpoints for A and g),
each read by one vectorised call per point set: A's diagonal as ``fn(points)``
or ``fn(t, points)`` (see ``CoefficientField``), and u0, f and g as a
number, an array on the points or ``value(t, points)`` (see ``_datum``).
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .measure import MeasureSpec
from .kernels import _is_integer, one_star_k_eval
from .volterra import _TOEPLITZ_BLOCK, _ToeplitzHistory, _toeplitz_solve

__all__ = [
    "SolverError",
    "BoundaryCondition",
    "SpatialGrid",
    "CoefficientField",
    "SolutionField",
    "conv_weights",
    "TimeStepper",
    "solve",
    "mittag_leffler",
]


class SolverError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# grids, coefficients, boundary conditions


@dataclass(frozen=True)
class BoundaryCondition:
    kind: str  # "dirichlet" | "neumann_zero"
    value: float | Callable = 0.0  # g, read at the face midpoints by _datum

    @classmethod
    def dirichlet(cls, value: float | Callable = 0.0) -> "BoundaryCondition":
        return cls("dirichlet", value)

    @classmethod
    def neumann_zero(cls) -> "BoundaryCondition":
        return cls("neumann_zero")


def _pair(axis: int, what: str, value) -> tuple:
    """``value`` unpacked as a (lo, hi) pair of the grid's axis ``axis``."""
    try:
        lo, hi = value
    except (TypeError, ValueError):
        raise SolverError(f"axis {axis}: {what} {value!r} is not a (lo, hi) "
                          "pair") from None
    return lo, hi


@dataclass(frozen=True)
class SpatialGrid:
    """Cell-centered grid; empty ``extents`` selects the space-free ODE mode."""

    extents: tuple[tuple[float, float], ...] = ()
    n_cells: tuple[int, ...] = ()
    boundary: tuple[tuple[BoundaryCondition, BoundaryCondition], ...] = ()

    def __post_init__(self):
        if len(self.n_cells) != len(self.extents):
            raise SolverError("n_cells must match extents")
        if self.boundary and len(self.boundary) != len(self.extents):
            raise SolverError("boundary must give one (lo, hi) pair per axis")
        boundary = tuple(_pair(axis, "boundary", pair)
                         for axis, pair in enumerate(self.boundary)) \
            or ((BoundaryCondition.dirichlet(),) * 2,) * len(self.extents)
        for pair in boundary:
            for bc in pair:
                if bc.kind not in ("dirichlet", "neumann_zero"):
                    raise SolverError(f"unknown boundary kind {bc.kind!r}")
        extents = tuple(_pair(axis, "extent", extent)
                        for axis, extent in enumerate(self.extents))
        for axis, ((lo, hi), n) in enumerate(zip(extents, self.n_cells)):
            if not -math.inf < lo < hi < math.inf:
                raise SolverError(f"axis {axis}: extent ({lo}, {hi}) must be "
                                  "finite with upper bound above lower")
            if not _is_integer(n):
                raise SolverError(
                    f"axis {axis}: n_cells {n!r} is not an integer")
            if n < 3:
                raise SolverError(f"axis {axis}: need at least 3 cells")
        if self.dim > 2:
            raise SolverError("only dim <= 2 is supported")
        # tuples, whether lists were given or not: the grid keys set-ups
        # shared in _shared_systems(), and its shape extends tuples
        object.__setattr__(self, "extents", extents)
        object.__setattr__(self, "n_cells", tuple(self.n_cells))
        object.__setattr__(self, "boundary", boundary)

    @property
    def dim(self) -> int:
        return len(self.extents)

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple((hi - lo) / n
                     for (lo, hi), n in zip(self.extents, self.n_cells))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.n_cells if self.dim else (1,)

    @property
    def n_total(self) -> int:
        return int(np.prod(self.shape))

    def axis_centers(self, axis: int) -> np.ndarray:
        lo, hi = self.extents[axis]
        h = self.spacing[axis]
        return lo + h * (np.arange(self.n_cells[axis]) + 0.5)

    def centers(self) -> np.ndarray:
        """Cell-center coordinates, shape ``(*self.shape, dim)``, read-only:
        computed at the first call and shared by every later one."""
        return self._centers

    @functools.cached_property
    def _centers(self) -> np.ndarray:
        axes = np.meshgrid(*map(self.axis_centers, range(self.dim)),
                           indexing="ij")
        points = np.stack(axes, axis=-1) if self.dim else np.zeros((1, 0))
        points.flags.writeable = False
        return points


@dataclass(frozen=True)
class CoefficientField:
    """Diagonal diffusion matrix A(t, x), given by its diagonal.

    ``fn(points)`` maps points of shape ``(..., dim)`` to A's diagonal
    there, in the same shape; a ``time_dependent`` field is ``fn(t,
    points)``, and a static one never receives t.  The stepper reads it
    once per point set (``TimeStepper._diffusivity``) and factorises the
    step matrix once, or at every step when ``time_dependent`` is set.
    """

    fn: Callable
    time_dependent: bool = False

    @classmethod
    def constant(cls, diagonal) -> "CoefficientField":
        """A = diag(diagonal), one number standing for every axis; one of
        another length reaches the stepper as it is, to be refused."""
        diag = np.asarray(diagonal, dtype=float)
        return cls(fn=lambda x: np.broadcast_to(diag, x.shape)
                   if diag.shape in ((), x.shape[-1:]) else diag)

    @classmethod
    def checkerboard(cls, low: float, high: float,
                     period: float) -> "CoefficientField":
        """Scalar diffusivity alternating between two values on a grid of
        the given period (a standard rough-coefficient stress test)."""
        if not 0.0 < period < math.inf:
            raise SolverError(f"checkerboard period {period} must be finite "
                              "and positive")

        def fn(x):
            odd = np.sum(np.floor(x / period), axis=-1, keepdims=True) % 2
            return np.broadcast_to(np.where(odd, high, low), x.shape)

        return cls(fn=fn)

    @classmethod
    def from_table(cls, values: np.ndarray, grid: "SpatialGrid"
                   ) -> "CoefficientField":
        """Piecewise-constant scalar diffusivity given per cell."""
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise SolverError(f"table shape {values.shape} is not {grid.shape}")
        lo, top = np.array(grid.extents)[:, 0], np.array(grid.n_cells) - 1

        def fn(x):
            cell = np.clip((x - lo) / grid.spacing, 0, top).astype(int)
            return np.broadcast_to(values[tuple(np.moveaxis(cell, -1, 0))]
                                   [..., None], x.shape)

        return cls(fn=fn)


@dataclass
class SolutionField:
    """Trajectory on (0, T]: row m holds the slice at t_m = m*step (row 0 = u0).

    ``residuals``, each step's ``max|full u_m - b_m| / max|b_m|``, is not a
    backward error: it grows with the step matrix's condition number.  A NaN
    or inf in ``values``, ``f_samples`` or ``residuals`` raises, as does a
    ``residuals`` or ``f_samples`` of another layout."""

    grid: SpatialGrid
    step: float
    values: np.ndarray            # (n_steps+1, *grid.shape)
    f_samples: np.ndarray | None  # same layout, or None when f == 0
    residuals: np.ndarray
    wall_time: float
    lu_factorisations: int = 0    # step factorisations made here; 0 if shared
    lu_fill: int = 0              # entries of the largest step factors used
    coefficient_bounds: tuple | None = None  # (nu, lam) of every step matrix

    def __post_init__(self):
        rows = len(self.values)
        samples = self.values if self.f_samples is None else self.f_samples
        if (np.shape(self.residuals) != (rows - 1,)
                or np.shape(samples) != np.shape(self.values)):
            raise SolverError("a field needs one residual per step and "
                              "f_samples in the layout of its values")
        finite = np.isfinite(self.values.reshape(rows, -1)).all(axis=1)
        if self.f_samples is not None:
            finite &= np.isfinite(self.f_samples.reshape(rows, -1)).all(axis=1)
        finite[1:] &= np.isfinite(self.residuals)  # residual of step m
        if not finite.all():
            raise SolverError("the trajectory, its source or its step "
                              "residual is not finite from t = "
                              f"{np.argmin(finite) * self.step} on")

    @property
    def n_steps(self) -> int:
        return self.values.shape[0] - 1

    @property
    def times(self) -> np.ndarray:
        return self.step * np.arange(self.values.shape[0])

    @property
    def horizon(self) -> float:
        return self.step * self.n_steps

    @property
    def max_step_residual(self) -> float:
        return float(np.max(self.residuals))

    def f_negative_sup(self) -> float:
        if self.f_samples is None:
            return 0.0
        return float(np.max(np.maximum(-self.f_samples, 0.0)))


# ---------------------------------------------------------------------------
# history weights


def conv_weights(spec: MeasureSpec, m: int, tau: float) -> np.ndarray:
    """History weights beta_{m,1..m} from exact differences of K = 1*k."""
    if not (_is_integer(m) and m >= 1 and 0.0 < tau < math.inf):
        raise SolverError("need an integer m >= 1 and a finite tau > 0, "
                          f"not {m!r} and {tau}")
    return _history_setup(spec, m, tau, None)[0].copy()


def _history_setup(spec: MeasureSpec, n_steps: int, tau: float,
                   kernel_cumulative: np.ndarray | None):
    """``(hist, _ToeplitzHistory, lags)`` of the history weights, the
    differences of ``kernel_cumulative``, or else of K = 1*k at the step
    times.  ``hist[j]`` is beta at lag N - j, so the weights of step m are
    the contiguous slice ``hist[N-m : N-1]``; ``hist[::-1]``, the Toeplitz
    column, runs from lag 1.  ``lead`` holds ``beta_{m,m} - beta_{m,i}``
    with its last entry, 0, set to -1, and ``lags[k]`` is its window
    ``lead[-(k+1):]``, one per step k of a base block (see
    ``TimeStepper._run``).  The arrays are read-only, as steppers share
    them inside ``_shared_systems()``."""
    big_k = np.asarray(one_star_k_eval(spec, tau * np.arange(n_steps + 1))
                       if kernel_cumulative is None else kernel_cumulative,
                       dtype=float)
    if big_k.shape != (n_steps + 1,):
        raise SolverError("kernel_cumulative must have n_steps+1 entries")
    with np.errstate(over="ignore", invalid="ignore"):
        hist = (np.diff(big_k) / tau)[::-1].copy()
    if not np.all((hist > 0.0) & (hist < math.inf)):
        raise SolverError("history weights must be finite and positive")
    lead = hist[-1] - hist
    lead[-1] = -1.0
    hist.flags.writeable = lead.flags.writeable = False
    lags = tuple(lead[-(k + 1):]
                 for k in range(min(_TOEPLITZ_BLOCK, n_steps)))
    return hist, _ToeplitzHistory(hist[::-1]), lags


# ---------------------------------------------------------------------------
# the stepper


def _datum(value, t: float, points: np.ndarray) -> np.ndarray:
    """u0, f or g at ``points``, shaped ``points.shape[:-1]``, from a number,
    an array of that shape or its flat form, or one call ``value(t, points)``
    giving either; any other shape is refused, so ``lambda t, x: x[0]`` fails
    (write ``x[..., 0]``).  A number is spread, so on a 1d grid ``1.0 if x[0]
    < 0.5 else 0.0`` (or ``float(x[0])`` on older NumPy) reads one centre."""
    if callable(value):
        value = value(t, points)
    data = np.asarray(value, dtype=float)
    shape = points.shape[:-1]
    if data.ndim == 0:
        return np.full(shape, data)
    if data.shape not in (shape, (math.prod(shape),)):
        raise SolverError(f"a datum at t={t} has shape {data.shape} at "
                          f"points of shape {points.shape}")
    return data.reshape(shape)


def _along(dim: int, axis: int, cut) -> tuple:
    """Index that applies ``cut`` on ``axis`` and keeps every other axis."""
    index = [slice(None)] * dim
    index[axis] = cut
    return tuple(index)


# Set-ups of the steppers inside ``_shared_systems()``, keyed by what each
# depends on; None outside that scope.
_shared = contextvars.ContextVar("memkern_shared_systems", default=None)


@contextlib.contextmanager
def _shared_systems():
    """Scope in which steppers share the set-up their inputs fix: equal
    ``(spec, n_steps, tau)`` without ``kernel_cumulative`` take one array of
    history weights with its ``_ToeplitzHistory`` (and the dense blocks it
    caches), and equal grid, coefficients, ``beta_{m,m} + reaction`` and
    first step time take one factorised step system, and with it the
    boundary vector of that time.  Time-dependent coefficients are never
    shared.  Fields of one layout take one pair of Harnack cylinders' index
    arrays (``harnack._harnack_masks``).  The set-ups are dropped when the
    scope closes, so none outlives it and a coefficient table changed after
    it is read afresh."""
    token = _shared.set({})
    try:
        yield
    finally:
        _shared.reset(token)


def _share(key: tuple | None, build: Callable):
    """``build()``, or inside ``_shared_systems()`` and given a key the
    value built for an equal key there."""
    shared = _shared.get()
    if key is None or shared is None:
        return build()
    if key not in shared:
        shared[key] = build()
    return shared[key]


class TimeStepper:
    """Advances the implicit scheme, one slice (``advance``) or up to a
    step (``_run``, which ``solve`` calls once) at a time.

    Completed slices are never mutated.  The weights are kept once, in the
    step order of ``conv_weights`` (``weights`` is their lag-ordered view),
    and inside ``_shared_systems()`` they, their ``_ToeplitzHistory`` and
    the near-field windows ``_lags`` come from the first stepper with the
    same measure, step count and step.  On a grid, steps go in runs that
    share one step matrix (a base block's, or one step for a time-dependent
    A), and the history of step m is read from the increments ``du``, whose
    rows take every term that no solve of their run changes at its start,
    ``f_m + rhs_bc`` included: a step is one contiguous product of its
    block's rows into its right-hand-side row (kept as ``_rhs_rows``), one
    solve and one difference (see ``_run``).
    The factors of ``(beta_{m,m} + reaction) I + L`` are built for the
    first run (or taken from another trajectory inside
    ``_shared_systems()``; ``lu_factorisations`` counts those computed
    here), and for every run only when A is time dependent.  ``residuals``
    is checked at the end of each run, so ``advance`` checks its step.
    In the relaxation mode the first step solves the whole trajectory at
    once (see ``_relax``) and every later one only moves ``m``.
    """

    def __init__(self, spec: MeasureSpec, grid: SpatialGrid,
                 coefficients: CoefficientField | None, u0, f,
                 horizon: float, n_steps: int, *, reaction: float = 0.0,
                 kernel_cumulative: np.ndarray | None = None):
        if not (_is_integer(n_steps) and n_steps >= 1
                and 0.0 < horizon < math.inf):
            raise SolverError("need an integer n_steps >= 1 and a finite "
                              f"horizon > 0, not {n_steps!r} and {horizon}")
        if not math.isfinite(reaction):
            raise SolverError(f"reaction = {reaction} is not finite")
        if grid.dim and coefficients is None:
            raise SolverError(f"a {grid.dim}d grid needs coefficients A, "
                              "got None")
        self.spec = spec
        self.grid = grid
        self.coefficients = coefficients
        self.reaction = float(reaction)
        self.tau = horizon / n_steps
        self.n_steps = n_steps
        key = None if kernel_cumulative is not None \
            else ("history", spec, n_steps, self.tau)
        self._hist, self._history, self._lags = _share(
            key, lambda: _history_setup(spec, n_steps, self.tau,
                                        kernel_cumulative))
        self.weights = self._hist[::-1]
        self._beta_mm = float(self._hist[-1])
        self.u = np.empty((n_steps + 1,) + grid.shape)
        self.u[0] = _datum(u0, 0.0, grid.centers())
        self._u_flat = self.u.reshape(n_steps + 1, -1)
        self.du = np.zeros((n_steps, self._u_flat.shape[1]))
        self.f = f
        self._source = None if callable(f) else \
            _datum(f, 0.0, grid.centers()).ravel()
        self.f_samples = None if np.isscalar(f) and float(f) == 0.0 \
            else np.zeros_like(self.u)
        if self._source is not None and self.f_samples is not None:
            self.f_samples[1:] = self._source.reshape(grid.shape)
        self.residuals = np.zeros(n_steps)  # 0 in the relaxation mode
        # b of the current base block's steps, step m in row (m-1) % B
        self._rhs = np.zeros((min(_TOEPLITZ_BLOCK, n_steps),
                              self._u_flat.shape[1]))
        self._rhs_rows = tuple(self._rhs)
        self.m = 0
        self._relaxation = not grid.dim
        self._bc_callable = any(callable(bc.value)
                                for pair in grid.boundary for bc in pair)
        self._factors = self.coefficient_bounds = None
        self.lu_factorisations = self.lu_fill = 0

    # -- spatial operator -------------------------------------------------

    def _diffusivity(self, t: float, points: np.ndarray) -> np.ndarray:
        """Diagonal of ``A(t, x)`` at ``points``, shape ``(..., dim)``, by one
        call of the field; A is read nowhere else.  Another shape or an entry
        not finite and positive is refused, and ``coefficient_bounds`` widens
        to the smallest entry ``nu`` and largest Euclidean norm ``lam`` read."""
        field = self.coefficients
        diag = np.asarray(field.fn(t, points) if field.time_dependent
                          else field.fn(points), dtype=float)
        if diag.shape != points.shape:
            raise SolverError(f"A(t={t}) has a diagonal of shape {diag.shape} "
                              f"at points of shape {points.shape}")
        bad = ~np.all((diag > 0.0) & (diag < np.inf), axis=-1).ravel()
        if np.any(bad):
            x = points.reshape(-1, self.grid.dim)[np.argmax(bad)].tolist()
            raise SolverError(f"A(t={t}, x={x}) is not finite and positive")
        nu, lam = self.coefficient_bounds or (math.inf, 0.0)
        self.coefficient_bounds = (
            min(nu, float(diag.min())),
            max(lam, float(np.linalg.norm(diag, axis=-1).max())))
        return diag

    def _dirichlet(self, t: float, faces=None):
        """Ghost-cell closure of the Dirichlet faces at t, as grid arrays:
        ``2 a / h^2`` on the diagonal and ``2 a g / h^2`` on the right, with
        ``a`` and g read once per side at its face midpoints; and those
        ``a``.  Given the ``a`` of an earlier call, it reads only g again."""
        grid = self.grid
        diag, rhs_bc, a_faces = np.zeros(grid.shape), np.zeros(grid.shape), []
        for axis, h in enumerate(grid.spacing):
            for which, bc in enumerate(grid.boundary[axis]):
                if bc.kind == "neumann_zero":
                    continue
                cells = _along(grid.dim, axis,
                               slice(0, 1) if which == 0 else slice(-1, None))
                points = grid.centers()[cells].copy()  # moved onto the face
                points[..., axis] = grid.extents[axis][which]
                a_face = self._diffusivity(t, points)[..., axis] \
                    if faces is None else faces[len(a_faces)]
                a_faces.append(a_face)
                g = _datum(bc.value, t, points)
                diag[cells] += 2.0 * a_face / h**2
                rhs_bc[cells] += 2.0 * a_face * g / h**2
        return diag, rhs_bc, a_faces

    def _factorise(self, t: float):
        """``(full, solve, rhs_bc, (nu, lam), faces, fill, t)``: the step
        matrix ``(beta_{m,m} + reaction) I + L_t``, its solve, the
        boundary vector at t, the ``coefficient_bounds`` of this stepper's
        reads of A up to here, the Dirichlet face diffusivities of
        ``_dirichlet``, the entries the factors hold and t itself.  ``full``
        is built from its diagonals: the main one and, per axis, one
        symmetric band at offset +-stride(axis), zero where a grid row ends.
        An interior face carries the mean diffusivity of its two cells, a
        Dirichlet face the diffusivity at its midpoint.  In 1d the main
        diagonal and the band take LAPACK's L D L^T (``dpttrf``; ``dpttrs``
        solves), 2n - 1 entries without SuperLU's fixed cost per solve.  A
        2d ``full`` takes SuperLU with the minimum-degree ordering of its
        symmetric pattern and no row pivoting: with equal row and column
        permutations the signs of U's diagonal are those of the eigenvalues
        (Sylvester's law of inertia).  In both, a matrix that is not
        positive definite, possible only when ``beta_{m,m} + reaction <=
        0``, is refused."""
        from scipy import sparse

        grid, n = self.grid, self.grid.n_total
        a_cells = self._diffusivity(t, grid.centers())
        diag, bands, offsets = np.zeros(grid.shape), [], []
        for axis, h in enumerate(grid.spacing):
            lo = _along(grid.dim, axis, slice(None, -1))
            hi = _along(grid.dim, axis, slice(1, None))
            a = a_cells[..., axis]
            coef = 0.5 * (a[lo] + a[hi]) / h**2
            diag[lo] += coef
            diag[hi] += coef
            band = np.zeros(grid.shape)
            band[lo] = -coef
            stride = math.prod(grid.shape[axis + 1:])
            bands += [band.ravel()[:n - stride]] * 2
            offsets += [-stride, stride]
        bc_diag, rhs_bc, faces = self._dirichlet(t)
        diag += bc_diag
        diag += self._beta_mm + self.reaction
        full = sparse.diags([diag.ravel(), *bands], [0, *offsets],
                            format="csc")
        if grid.dim == 1:
            from scipy.linalg.lapack import dpttrf, dpttrs

            d, e, info = dpttrf(diag, bands[0])
            definite = info == 0

            def solve(b):
                return dpttrs(d, e, b)[0]

            fill = d.size + e.size
        else:
            from scipy.sparse.linalg import splu

            lu = splu(full, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0)
            upper = lu.U
            definite = (np.array_equal(lu.perm_r, lu.perm_c)
                        and upper.diagonal().min() > 0.0)
            solve, fill = lu.solve, lu.L.nnz + upper.nnz
        if not definite:
            raise SolverError(
                f"the {grid.dim}d step matrix at t={t} with reaction "
                f"{self.reaction} is not positive definite; beta_mm + "
                f"reaction > 0, here {self._beta_mm + self.reaction:.6g}, "
                "makes it so")
        self.lu_factorisations += 1
        return (full, solve, rhs_bc.ravel(), self.coefficient_bounds, faces,
                fill, t)

    def _system(self, t: float) -> tuple:
        """The factors of ``_factorise`` for a run from t on: built for the
        first run (or shared, with the ``coefficient_bounds`` read to build
        them), and again for every run when A is time dependent."""
        varies = self.coefficients.time_dependent
        if self._factors is None or varies:
            key = None if varies else \
                ("system", self.grid, self.coefficients,
                 self._beta_mm + self.reaction, t)
            self._factors = _share(key, lambda: self._factorise(t))
            self.coefficient_bounds = self._factors[3]
            self.lu_fill = max(self.lu_fill, self._factors[5])
        return self._factors

    def _forcing(self, first: int, last: int) -> np.ndarray:
        """f at steps ``first .. last``, sampled here alone: one vector for
        an f that is not callable, else one row per step, read in step
        order into ``f_samples``."""
        if self._source is not None:
            return self._source
        rows = np.array([_datum(self.f, m * self.tau, self.grid.centers())
                         .ravel() for m in range(first, last + 1)])
        self.f_samples[first:last + 1] = rows.reshape((-1,) + self.grid.shape)
        return rows

    def _sources(self, first: int, last: int) -> np.ndarray:
        """``f_m + rhs_bc`` of the run of steps ``first .. last``: one vector
        if neither f nor a Dirichlet g is callable, else one row per step,
        f from ``_forcing`` and g from the factors' ``rhs_bc`` at the time
        they were built, else read anew with the factors' faces."""
        _, _, rhs_bc, _, faces, _, built = self._factors
        bc = rhs_bc if not self._bc_callable else np.array([
            rhs_bc if m * self.tau == built
            else self._dirichlet(m * self.tau, faces)[1].ravel()
            for m in range(first, last + 1)])
        return self._forcing(first, last) + bc

    def _check(self, lo: int, hi: int) -> None:
        """``residuals`` of steps ``lo+1 .. hi`` of one base block, solved
        with the current factors, by one sparse product: ``max|full u_m -
        b_m| / max|b_m|``.  Not a backward error, it grows with the
        condition number of ``full``: 4.0e-10 on a 2048-cell Neumann line
        with A = 1 + x, order 1/2 and 96 steps over (0, 1], where each
        solve's normwise backward error is at most 1.6e-16."""
        start = lo % _TOEPLITZ_BLOCK
        b = self._rhs[start:start + hi - lo]
        gap = self._factors[0] @ self._u_flat[lo + 1:hi + 1].T - b.T
        scale = np.maximum(np.abs(b).max(axis=1), 1e-300)
        self.residuals[lo:hi] = np.abs(gap).max(axis=0) / scale

    # -- the step loop -----------------------------------------------------

    def advance(self) -> np.ndarray:
        """Takes the next step, checks its residual and returns its slice."""
        self._run(self.m + 1)
        return self.u[self.m]

    @np.errstate(invalid="ignore")
    def _run(self, stop: int) -> None:
        """Steps ``m+1 .. stop`` in runs that share one step matrix: a base
        block's steps up to ``stop``, or one step for a time-dependent A.
        Until step m overwrites it, ``du[m-1]`` holds every term of its
        right-hand side that no solve of its run changes: the far field of
        earlier blocks and ``beta_{m,m} u_lo`` (``u_lo`` the slice there)
        from the block start, and ``f_m + rhs_bc`` from the run start.  As
        ``u_{m-1} = u_lo + sum_{lo <= i < m-1} du_i``, the block's rows
        enter with the weights ``beta_{m,m} - beta_{m,i}`` of its window in
        ``_lags``, whose last entry -1 takes ``du[m-1]`` itself: a step is
        one product into its right-hand-side row, one solve and one
        difference.
        ``_check`` ends each run.  An inf in a right-hand side leaves
        +-inf in the LDL^T solution, whose differences would warn; the
        ``SolutionField`` built from the trajectory names the first time
        that is not finite instead."""
        if stop > self.n_steps:
            raise SolverError("trajectory already complete")
        if self._relaxation:
            if self.m == 0:
                self._relax()
            self.m = stop
            return
        u, du = self._u_flat, self.du
        start = self.m
        while start < stop:
            lo = start - start % _TOEPLITZ_BLOCK
            end = start + 1 if self.coefficients.time_dependent \
                else min(stop, lo + _TOEPLITZ_BLOCK)
            if start == lo:
                if lo:
                    self._history.far_field(du, du, lo)
                du[lo:lo + _TOEPLITZ_BLOCK] -= self._beta_mm * u[lo]
            solve, prev = self._system((start + 1) * self.tau)[1], u[start]
            du[start:end] -= self._sources(start + 1, end)
            for row, b, lags in zip(range(start, end),
                                    self._rhs_rows[start - lo:],
                                    self._lags[start - lo:]):
                np.dot(lags, du[lo:row + 1], out=b)
                new = solve(b)
                u[row + 1] = new
                np.subtract(new, prev, out=du[row])
                prev = new
            self._check(start, end)
            self.m = start = end

    def _relax(self) -> None:
        """The whole relaxation trajectory as one lower-triangular Toeplitz
        system ``(T + lam L1) du = f - lam u0`` (``L1`` the all-ones lower
        triangle), with ``f`` from ``_forcing``.  The trajectory is the
        running sum of ``du``, taken in ``np.longdouble``: summed in double,
        N = 32768 increments moved u(T) by about 1e-14."""
        column = self.weights + self.reaction
        if column[0] == 0.0:
            raise SolverError("degenerate step: zero diagonal")
        u, n = self._u_flat, self.n_steps
        rhs = np.broadcast_to(self._forcing(1, n) - self.reaction * u[0],
                              (n, 1))
        self.du = _toeplitz_solve(column, rhs)
        running = np.cumsum(self.du, axis=0, dtype=np.longdouble)
        running += u[0]
        u[1:] = running


def solve(spec: MeasureSpec, grid: SpatialGrid,
          coefficients: CoefficientField | None, u0, f, horizon: float,
          n_steps: int, *, reaction: float = 0.0,
          kernel_cumulative: np.ndarray | None = None) -> SolutionField:
    """Run the full trajectory and collect residual and timing metadata.

    NaN initial, source or boundary data raise ``SolverError`` (see
    ``SolutionField``).  The step solvers import scipy on first use; it is
    loaded before the clock starts, so ``wall_time`` is the solve's own."""
    if grid.dim == 1:
        import scipy.linalg.lapack, scipy.sparse  # noqa: E401, F401
    elif grid.dim:
        import scipy.sparse.linalg  # noqa: F401
    start = time.perf_counter()
    stepper = TimeStepper(spec, grid, coefficients, u0, f, horizon, n_steps,
                          reaction=reaction,
                          kernel_cumulative=kernel_cumulative)
    stepper._run(n_steps)
    wall = time.perf_counter() - start
    return SolutionField(grid=grid, step=stepper.tau, values=stepper.u,
                         f_samples=stepper.f_samples,
                         residuals=stepper.residuals, wall_time=wall,
                         lu_factorisations=stepper.lu_factorisations,
                         lu_fill=stepper.lu_fill,
                         coefficient_bounds=stepper.coefficient_bounds)


# ---------------------------------------------------------------------------
# relaxation oracle


def mittag_leffler(alpha: float, z: float, beta: float = 1.0) -> float:
    """One- and two-parameter relaxation function on the closed left axis.

    For moderate arguments the power series is summed with exact (fsum)
    compensation; far out on the negative axis the optimally truncated
    asymptotic tail takes over.  alpha = 1 falls back to the exponential.
    Accuracy is ~1e-13 on |z| <= 5 and degrades to the size of the first
    omitted asymptotic term beyond (worst in the crossover region).
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    if z > 0.0:
        raise ValueError("only z <= 0 is supported")
    if z == 0.0:
        return 1.0 / math.gamma(beta)
    if alpha == 1.0 and beta == 1.0:
        return math.exp(z)

    if abs(z) <= 5.0:
        log_az = math.log(abs(z))
        terms = []
        for j in range(0, 400):
            log_t = j * log_az - math.lgamma(alpha * j + beta)
            term = math.exp(log_t)
            if j % 2 == 1:
                term = -term
            terms.append(term)
            if j > 4 and abs(term) < 1e-18 * (1.0 + abs(math.fsum(terms))):
                break
        return math.fsum(terms)

    # asymptotic tail, truncated at its smallest term
    from scipy.special import rgamma

    total = 0.0
    prev = math.inf
    for k in range(1, 80):
        term = -float(rgamma(beta - alpha * k)) / z**k
        if term == 0.0:
            continue
        if abs(term) >= prev:
            break
        total += term
        prev = abs(term)
    return total
