"""Implicit time stepping for the memory-diffusion equation.

The discretization treats the history term by product integration: with
K = 1*k available in closed form, the weights

    beta_{m,i} = [K(t_m - t_{i-1}) - K(t_m - t_i)] / tau

are exact kernel-cell integrals that depend on the lag m - i alone, and the
step m solves

    (beta_{m,m} I + L_m) u_m = beta_{m,m} u_{m-1}
                               - sum_{i<m} beta_{m,i} (u_i - u_{i-1}) + f_m,

where L_m is the flux-form divergence with face coefficients averaged from
the cell centers, or a scalar reaction rate in the space-free relaxation
mode.  The history sum is a lower-triangular Toeplitz product, which
``volterra._ToeplitzHistory`` splits into base blocks: the far field of
earlier blocks arrives by dense or FFT block convolutions at block starts,
O(N log^2 N) over a trajectory, and each step adds only the rows of its own
block.  The relaxation mode has no spatial operator, so its whole
trajectory is one triangular Toeplitz solve.  One sparse assembly serves
every axis (3 points in 1d, 5 in 2d), and since beta_{m,m} = beta_{m,1}
for every m, the step matrix is factorised once by sparse LU and reused for
the whole trajectory unless the coefficients are declared time dependent.
All weights are positive and decreasing back in time, which is what the
nonnegativity and comparison checks in the test-suite lean on.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import sparse as _sparse
from scipy.sparse import linalg as _sparse_linalg

from .measure import MeasureSpec, require_valid
from .kernels import one_star_k_eval
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
    value: float | Callable = 0.0

    @classmethod
    def dirichlet(cls, value: float | Callable = 0.0) -> "BoundaryCondition":
        return cls("dirichlet", value)

    @classmethod
    def neumann_zero(cls) -> "BoundaryCondition":
        return cls("neumann_zero")

    def value_at(self, t: float, x) -> float:
        if callable(self.value):
            return float(self.value(t, x))
        return float(self.value)


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
        if not self.boundary and self.extents:
            object.__setattr__(
                self, "boundary",
                tuple((BoundaryCondition.dirichlet(), BoundaryCondition.dirichlet())
                      for _ in self.extents))
        for pair in self.boundary:
            for bc in pair:
                if bc.kind not in ("dirichlet", "neumann_zero"):
                    raise SolverError(f"unknown boundary kind {bc.kind!r}")
        for (lo, hi), n in zip(self.extents, self.n_cells):
            if hi <= lo:
                raise SolverError("extent upper bound must exceed lower")
            if n < 3:
                raise SolverError("need at least 3 cells per active axis")
        if self.dim > 2:
            raise SolverError("only dim <= 2 is supported")

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
        """Cell-center coordinates, shape ``(*self.shape, dim)``."""
        if self.dim == 0:
            return np.zeros((1, 0))
        axes = [self.axis_centers(a) for a in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)


@dataclass(frozen=True)
class CoefficientField:
    """Diffusion matrix A(t, x) with user-declared bounds.

    ``fn`` maps (t, x-array) to a (dim, dim) symmetric matrix; ``lam`` bounds
    its Frobenius norm and ``nu`` its ellipticity constant.  The stepper
    assembles and factorises its step matrix once per trajectory, or at
    every step when ``time_dependent`` is set.
    """

    fn: Callable
    lam: float
    nu: float
    time_dependent: bool = False

    @classmethod
    def constant(cls, matrix, lam: float | None = None,
                 nu: float | None = None) -> "CoefficientField":
        mat = np.atleast_2d(np.asarray(matrix, dtype=float))
        if not np.allclose(mat, mat.T):
            raise SolverError("coefficient matrix must be symmetric")
        eigs = np.linalg.eigvalsh(mat)
        lam = float(np.linalg.norm(mat)) if lam is None else float(lam)
        nu = float(eigs.min()) if nu is None else float(nu)
        return cls(fn=lambda t, x: mat, lam=lam, nu=nu, time_dependent=False)

    @classmethod
    def checkerboard(cls, low: float, high: float, period: float,
                     dim: int = 1) -> "CoefficientField":
        """Scalar diffusivity alternating between two values on a grid of
        the given period (a standard rough-coefficient stress test)."""
        lo_m = low * np.eye(dim)
        hi_m = high * np.eye(dim)

        def fn(t, x):
            parity = int(np.sum(np.floor(np.asarray(x) / period))) % 2
            return hi_m if parity else lo_m

        lam = float(np.linalg.norm(hi_m))
        nu = float(min(low, high))
        return cls(fn=fn, lam=lam, nu=nu, time_dependent=False)

    @classmethod
    def from_table(cls, values: np.ndarray, grid: "SpatialGrid",
                   lam: float | None = None,
                   nu: float | None = None) -> "CoefficientField":
        """Piecewise-constant scalar diffusivity given per cell."""
        values = np.asarray(values, dtype=float).reshape(grid.shape)
        if np.any(values <= 0.0):
            raise SolverError("table diffusivities must be positive")
        eye = np.eye(max(grid.dim, 1))

        def fn(t, x):
            idx = []
            for a in range(grid.dim):
                lo, hi = grid.extents[a]
                h = grid.spacing[a]
                i = int(np.clip((x[a] - lo) / h, 0, grid.n_cells[a] - 1))
                idx.append(i)
            return values[tuple(idx)] * eye

        lam = float(values.max() * math.sqrt(max(grid.dim, 1))) if lam is None \
            else float(lam)
        nu = float(values.min()) if nu is None else float(nu)
        return cls(fn=fn, lam=lam, nu=nu, time_dependent=False)

    def validate_bounds(self, grid: SpatialGrid, times: Sequence[float]
                        ) -> list[str]:
        """Probe the declared Frobenius and ellipticity bounds on the grid."""
        if grid.dim == 0:
            return []
        problems: list[str] = []
        centers = grid.centers().reshape(-1, grid.dim)
        probes = [np.eye(grid.dim)[a] for a in range(grid.dim)]
        if grid.dim > 1:
            probes.append(np.ones(grid.dim) / math.sqrt(grid.dim))
            probes.append(np.array([1.0, -1.0]) / math.sqrt(2.0))
        for t in times:
            for x in centers[:: max(1, len(centers) // 64)]:
                a = np.atleast_2d(self.fn(t, x))
                if np.linalg.norm(a) > self.lam * (1 + 1e-12):
                    problems.append(f"Frobenius bound exceeded at t={t}, x={x}")
                for xi in probes:
                    if xi @ a @ xi < self.nu * (1 - 1e-12) - 1e-15:
                        problems.append(f"ellipticity violated at t={t}, x={x}")
        return problems


@dataclass
class SolutionField:
    """Trajectory on (0, T]: row m holds the slice at t_m = m*step (row 0 = u0)."""

    grid: SpatialGrid
    step: float
    values: np.ndarray            # (n_steps+1, *grid.shape)
    f_samples: np.ndarray | None  # same layout, or None when f == 0
    residuals: np.ndarray
    wall_time: float
    lu_factorisations: int = 0    # splu calls of the trajectory

    @property
    def n_steps(self) -> int:
        return self.values.shape[0] - 1

    @property
    def times(self) -> np.ndarray:
        return self.step * np.arange(self.values.shape[0])

    @property
    def horizon(self) -> float:
        return self.step * self.n_steps

    def f_negative_sup(self) -> float:
        if self.f_samples is None:
            return 0.0
        return float(np.max(np.maximum(-self.f_samples, 0.0)))


# ---------------------------------------------------------------------------
# history weights


def conv_weights(spec: MeasureSpec, m: int, tau: float) -> np.ndarray:
    """History weights beta_{m,1..m} from exact differences of K = 1*k."""
    if m < 1 or tau <= 0.0:
        raise SolverError("need m >= 1 and tau > 0")
    big_k = np.asarray(one_star_k_eval(spec, tau * np.arange(0, m + 1)))
    d = np.diff(big_k) / tau
    return d[::-1].copy()


# ---------------------------------------------------------------------------
# the stepper


def _sample_field(fn, t: float, grid: SpatialGrid) -> np.ndarray:
    if fn is None:
        return np.zeros(grid.shape)
    if np.isscalar(fn):
        return np.full(grid.shape, float(fn))
    if isinstance(fn, np.ndarray):
        return fn.reshape(grid.shape).astype(float)
    centers = grid.centers()
    if grid.dim == 0:
        return np.full(grid.shape, float(fn(t, np.zeros(0))))
    flat = centers.reshape(-1, grid.dim)
    vals = np.array([fn(t, x) for x in flat], dtype=float)
    return vals.reshape(grid.shape)


def _along(dim: int, axis: int, cut) -> tuple:
    """Index that applies ``cut`` on ``axis`` and keeps every other axis."""
    index = [slice(None)] * dim
    index[axis] = cut
    return tuple(index)


def _face_points(grid: SpatialGrid, axis: int, which: int) -> np.ndarray:
    """Midpoints of the boundary faces on the low (0) or high (1) side of
    ``axis``, shape ``(*grid.shape, dim)`` with length 1 on ``axis``."""
    points = grid.centers()[_along(grid.dim, axis, slice(0, 1))].copy()
    points[..., axis] = grid.extents[axis][which]
    return points


class TimeStepper:
    """Advances the implicit scheme one slice at a time.

    Completed slices are never mutated.  The weights are kept once, in the
    step order of ``conv_weights`` (``weights`` is their lag-ordered view).
    On a grid, the history of step m is read from the increments ``du``:
    at the start of each base block ``_ToeplitzHistory.far_field`` adds the
    earlier blocks' share to the unwritten rows of ``du`` ahead, and step m
    adds the solved rows of its own block by one contiguous product.  Then
    one sparse LU solve with the factors of ``beta_{m,m} I + L``, kept for
    the whole trajectory (rebuilt at every step only for time-dependent
    coefficients; ``lu_factorisations`` counts them), gives the slice, and
    its relative residual is recorded.  In the relaxation mode the first
    ``advance`` solves the whole trajectory at once (see ``_relax``) and
    every call returns its slice.
    """

    def __init__(self, spec: MeasureSpec, grid: SpatialGrid,
                 coefficients: CoefficientField | None, u0, f,
                 horizon: float, n_steps: int, *, reaction: float = 0.0,
                 kernel_cumulative: np.ndarray | None = None):
        require_valid(spec)
        if n_steps < 1 or horizon <= 0.0:
            raise SolverError("need n_steps >= 1 and horizon > 0")
        self.spec = spec
        self.grid = grid
        self.coefficients = coefficients
        self.reaction = float(reaction)
        self.tau = horizon / n_steps
        self.n_steps = n_steps
        # hist[j] = beta at lag N - j, so the history weights of step m are
        # the contiguous slice hist[N-m : N-1]; weights[j] = beta at lag j+1
        if kernel_cumulative is not None:
            big_k = np.asarray(kernel_cumulative, dtype=float)
            if big_k.shape != (n_steps + 1,):
                raise SolverError("kernel_cumulative must have n_steps+1 entries")
            hist = (np.diff(big_k) / self.tau)[::-1].copy()
        else:
            hist = conv_weights(spec, n_steps, self.tau)
        if not np.all(hist > 0.0):
            raise SolverError("history weights must be finite and positive")
        self._hist = hist
        self.weights = hist[::-1]
        self._history = _ToeplitzHistory(self.weights)
        self._beta_mm = float(hist[-1])
        self._lead = self._beta_mm - hist  # beta_{m,m} - beta_{m,i}; see advance
        self.u = np.empty((n_steps + 1,) + grid.shape)
        self.u[0] = _sample_field(u0, 0.0, grid)
        self._u_flat = self.u.reshape(n_steps + 1, -1)
        self.du = np.zeros((n_steps, self._u_flat.shape[1]))
        self.f = f
        self._source = None if callable(f) else \
            _sample_field(f, 0.0, grid).ravel()
        self.f_samples = None
        if f is not None and not (np.isscalar(f) and float(f) == 0.0):
            self.f_samples = np.zeros_like(self.u)
        self.residuals = np.zeros(n_steps)
        self.m = 0
        self._bc_callable = any(callable(bc.value)
                                for pair in grid.boundary for bc in pair)
        self._factors = self._rhs_bc = None
        self.lu_factorisations = 0

    # -- spatial operator -------------------------------------------------

    def _diffusivity(self, t: float, points: np.ndarray) -> np.ndarray:
        """Diagonal of ``A(t, x)`` at ``points``, shape ``(..., dim)``."""
        flat = points.reshape(-1, self.grid.dim)
        return np.array([np.diagonal(np.atleast_2d(self.coefficients.fn(t, x)))
                         for x in flat]).reshape(points.shape)

    def _dirichlet(self, t: float):
        """Ghost-cell closure of the Dirichlet faces at t, as grid arrays:
        ``2 a / h^2`` on the diagonal and ``2 a g / h^2`` on the right, with
        ``a`` the diffusivity at the face midpoint."""
        grid = self.grid
        diag, rhs_bc = np.zeros(grid.shape), np.zeros(grid.shape)
        for axis, h in enumerate(grid.spacing):
            for which, bc in enumerate(grid.boundary[axis]):
                if bc.kind == "neumann_zero":
                    continue
                points = _face_points(grid, axis, which)
                a_face = self._diffusivity(t, points)[..., axis]
                g = np.array([bc.value_at(t, x) for x in
                              points.reshape(-1, grid.dim)]).reshape(a_face.shape)
                cells = _along(grid.dim, axis,
                               slice(0, 1) if which == 0 else slice(-1, None))
                diag[cells] += 2.0 * a_face / h**2
                rhs_bc[cells] += 2.0 * a_face * g / h**2
        return diag, rhs_bc

    def _assemble(self, t: float):
        """Flux-form ``L_t`` as a sparse matrix.  An interior face carries the
        mean diffusivity of its two cells, a Dirichlet face the diffusivity
        at its midpoint (see ``_dirichlet``)."""
        grid = self.grid
        a_cells = self._diffusivity(t, grid.centers())
        if np.any(a_cells <= 0.0):
            raise SolverError("axis diffusivity must stay positive")
        idx = np.arange(grid.n_total).reshape(grid.shape)
        diag = np.zeros(grid.shape)
        rows, cols, vals = [], [], []
        for axis, h in enumerate(grid.spacing):
            lo = _along(grid.dim, axis, slice(None, -1))
            hi = _along(grid.dim, axis, slice(1, None))
            a = a_cells[..., axis]
            coef = 0.5 * (a[lo] + a[hi]) / h**2
            diag[lo] += coef
            diag[hi] += coef
            rows += [idx[lo].ravel(), idx[hi].ravel()]
            cols += [idx[hi].ravel(), idx[lo].ravel()]
            vals += [-coef.ravel()] * 2
        diag += self._dirichlet(t)[0]
        n = grid.n_total
        mat = _sparse.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n))
        return mat + _sparse.diags(diag.ravel())

    def _system(self, t: float):
        """``(full, splu(full), rhs_bc)`` at ``t``, with ``full`` the step
        matrix ``beta_{m,m} I + L_t``.  The factors are built once, and again
        at every step only for time-dependent coefficients; the boundary
        vector is sampled again at every step also when a Dirichlet value is
        callable."""
        varies = self.coefficients.time_dependent
        if self._factors is None or varies:
            full = (self._assemble(t) + self._beta_mm
                    * _sparse.identity(self.grid.n_total)).tocsc()
            self._factors = (full, _sparse_linalg.splu(full))
            self.lu_factorisations += 1
        if self._rhs_bc is None or varies or self._bc_callable:
            self._rhs_bc = self._dirichlet(t)[1].ravel()
        return (*self._factors, self._rhs_bc)

    # -- one step ----------------------------------------------------------

    def advance(self) -> np.ndarray:
        if self.m >= self.n_steps:
            raise SolverError("trajectory already complete")
        if self.grid.dim == 0:
            if self.m == 0:
                self._relax()
            self.m += 1
            return self.u[self.m]
        m = self.m + 1
        t_m = m * self.tau
        u, du, n = self._u_flat, self.du, self.n_steps
        # Until step m overwrites it, du[m-1] holds the far-field history of
        # step m minus beta_{m,m} u_lo, u_lo the slice at the start of its
        # base block; with u_{m-1} = u_lo + sum_{lo <= i < m-1} du_i the rows
        # of its own block then enter with weights beta_{m,m} - beta_{m,i}.
        near = (m - 1) % _TOEPLITZ_BLOCK
        if near:
            rhs = self._lead[n - 1 - near:n - 1] @ du[m - 1 - near:m - 1]
            rhs -= du[m - 1]
        else:
            if m > 1:
                self._history.far_field(du, du, m - 1)
            du[m - 1:m - 1 + _TOEPLITZ_BLOCK] -= self._beta_mm * u[m - 1]
            rhs = -du[m - 1]
        f_m = self._source
        if f_m is None:
            f_m = _sample_field(self.f, t_m, self.grid).ravel()
        if self.f_samples is not None:
            self.f_samples[m] = f_m.reshape(self.grid.shape)
        rhs += f_m

        full, lu, rhs_bc = self._system(t_m)
        b = rhs + rhs_bc
        new = lu.solve(b)
        scale = max(float(np.abs(b).max()), 1e-300)
        self.residuals[m - 1] = float(np.abs(full @ new - b).max()) / scale

        u[m] = new
        np.subtract(u[m], u[m - 1], out=du[m - 1])
        self.m = m
        return self.u[m]

    def _relax(self) -> None:
        """The whole relaxation trajectory as one lower-triangular Toeplitz
        system ``(T + lam L1) du = f - lam u0`` (``L1`` the all-ones lower
        triangle), with ``f`` sampled at every ``t_m``.  The trajectory is
        the running sum of ``du``, taken in ``np.longdouble``: summed in
        double, N = 32768 increments moved u(T) by about 1e-14."""
        column = self.weights + self.reaction
        if column[0] == 0.0:
            raise SolverError("degenerate step: zero diagonal")
        u, n = self._u_flat, self.n_steps
        if self._source is None:
            f = np.array([_sample_field(self.f, m * self.tau, self.grid)
                          for m in range(1, n + 1)])
        else:
            f = self._source
        if self.f_samples is not None:
            self.f_samples[1:] = f
        rhs = np.broadcast_to(f - self.reaction * u[0], (n, 1))
        self.du = _toeplitz_solve(column, rhs)
        running = np.cumsum(self.du, axis=0, dtype=np.longdouble)
        running += u[0]
        u[1:] = running


def solve(spec: MeasureSpec, grid: SpatialGrid,
          coefficients: CoefficientField | None, u0, f, horizon: float,
          n_steps: int, *, reaction: float = 0.0,
          kernel_cumulative: np.ndarray | None = None) -> SolutionField:
    """Run the full trajectory and collect residual and timing metadata."""
    start = time.perf_counter()
    stepper = TimeStepper(spec, grid, coefficients, u0, f, horizon, n_steps,
                          reaction=reaction,
                          kernel_cumulative=kernel_cumulative)
    for _ in range(n_steps):
        stepper.advance()
    wall = time.perf_counter() - start
    return SolutionField(grid=grid, step=stepper.tau, values=stepper.u,
                         f_samples=stepper.f_samples,
                         residuals=stepper.residuals, wall_time=wall,
                         lu_factorisations=stepper.lu_factorisations)


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
