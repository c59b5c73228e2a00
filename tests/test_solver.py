import hashlib
import math
import re
import warnings

import numpy as np
import pytest

from memkern.measure import MeasureSpec
from memkern import solver as S
from memkern import volterra as V
from memkern.kernels import one_star_k_eval, sample_kernel

E_HALF_AT_1 = 0.4275835761558070  # E_{1/2}(-1) = e * erfc(1)


def dirichlet_grid(n=64, value=0.0):
    bc = S.BoundaryCondition.dirichlet(value)
    return S.SpatialGrid(extents=((0.0, 1.0),), n_cells=(n,),
                         boundary=((bc, bc),))


def neumann_grid(n=32):
    bc = S.BoundaryCondition.neumann_zero()
    return S.SpatialGrid(extents=((0.0, 1.0),), n_cells=(n,),
                         boundary=((bc, bc),))


IDENTITY = S.CoefficientField.constant(1.0)


def _is_m_matrix(stepper, t):
    """Off-diagonals of the step matrix beta_mm I + L_t at t nonpositive,
    and its rows weakly diagonally dominant."""
    mat = stepper._factorise(t)[0].tocoo()
    off = mat.row != mat.col
    offsum = np.zeros(mat.shape[0])
    np.add.at(offsum, mat.row[off], np.abs(mat.data[off]))
    return bool(np.all(mat.data[off] <= 1e-14)
                and np.all(mat.diagonal() >= offsum - 1e-12))


class DirectHistoryStepper(S.TimeStepper):
    """Reference stepper for 1d and 2d grids: step m multiplies the whole
    history ``du[:m-1]`` by its weights directly, O(N^2) over a trajectory."""

    def advance(self):
        m = self.m + 1
        u, n = self._u_flat, self.n_steps
        solve = self._system(m * self.tau)[1]
        rhs = self._beta_mm * u[m - 1] + self._sources(m, m).ravel()
        if m >= 2:
            rhs -= self._hist[n - m:n - 1] @ self.du[:m - 1]
        u[m] = solve(rhs)
        np.subtract(u[m], u[m - 1], out=self.du[m - 1])
        self.m = m
        return self.u[m]


class _CheckedFactors:
    """A step solve that records ``max|full x - b| / max|b|`` of each solve
    against the matrix of that step."""

    def __init__(self, full, solve, record):
        self.full, self.solve, self.record = full, solve, record

    def __call__(self, b):
        new = self.solve(b)
        scale = max(float(np.abs(b).max()), 1e-300)
        self.record.append(float(np.abs(self.full @ new - b).max()) / scale)
        return new


class PerStepResidualStepper(S.TimeStepper):
    """Reference for the batched residual check: the residual of every step
    computed right after its solve, with the matrix it solved with."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.reference = []

    def _factorise(self, t):
        full, solve, *rest = super()._factorise(t)
        return (full, _CheckedFactors(full, solve, self.reference), *rest)


class TestConvWeights:
    def test_classical_l1_form(self, half):
        tau, m = 0.1, 7
        beta = S.conv_weights(half, m, tau)
        i = np.arange(1, m + 1)
        classical = ((m - i + 1) ** 0.5 - (m - i) ** 0.5) \
            * tau ** -0.5 / math.gamma(1.5)
        assert np.max(np.abs(beta - classical)) <= 1e-12

    def test_single_weight_m1(self, half):
        beta = S.conv_weights(half, 1, 0.25)
        assert beta.shape == (1,)
        assert beta[0] == pytest.approx(one_star_k_eval(half, 0.25) / 0.25)

    def test_two_atom_additivity(self):
        a1 = MeasureSpec.single_order(0.3, 0.4)
        a2 = MeasureSpec.single_order(0.7, 0.6)
        both = MeasureSpec.from_atoms([(0.3, 0.4), (0.7, 0.6)])
        w = S.conv_weights(both, 5, 0.2)
        assert np.max(np.abs(w - S.conv_weights(a1, 5, 0.2)
                             - S.conv_weights(a2, 5, 0.2))) <= 1e-12

    def test_positive_increasing_with_fixed_tail(self, measures):
        for spec in measures.values():
            beta = S.conv_weights(spec, 9, 0.05)
            assert np.all(beta > 0.0)
            assert np.all(np.diff(beta) > 0.0)  # increasing toward i = m
            beta3 = S.conv_weights(spec, 3, 0.05)
            assert beta[-1] == pytest.approx(beta3[-1], rel=1e-14)


class TestRelaxationMode:
    def test_half_order_against_ml(self, half):
        fld = S.solve(half, S.SpatialGrid(), None, 1.0, 0.0, 1.0, 4096,
                      reaction=1.0)
        assert abs(float(fld.values[-1, 0]) - E_HALF_AT_1) <= 1e-3

    def test_classical_limit(self):
        spec = MeasureSpec.single_order(0.999)
        fld = S.solve(spec, S.SpatialGrid(), None, 1.0, 0.0, 1.0, 2048,
                      reaction=1.0)
        assert abs(float(fld.values[-1, 0]) - math.exp(-1)) <= 2e-2

    def test_temporal_order(self, half):
        errs = []
        for n in (256, 512, 1024, 2048):
            fld = S.solve(half, S.SpatialGrid(), None, 1.0, 0.0, 1.0, n,
                          reaction=1.0)
            errs.append(abs(float(fld.values[-1, 0]) - E_HALF_AT_1))
        slope = -np.polyfit(np.log([256, 512, 1024, 2048]), np.log(errs), 1)[0]
        assert slope >= 1.0

    @pytest.mark.parametrize("name, n", [
        pytest.param(name, n, id=name if n == 512 else f"{name}-{n}")
        for n in (512, 2049) for name in ("d03", "d05", "uniform")])
    def test_history_product_against_triangular_solve(self, measures, name,
                                                      n):
        # with du_i = u_i - u_{i-1} the 0d scheme is the lower-triangular
        # system (T + lam L1) du = f - lam u0, T[m, i] the lag-(m-i+1)
        # weight and L1 the all-ones lower triangle
        from scipy.linalg import solve_triangular, toeplitz

        spec, lam, u0, f = measures[name], 1.3, 0.8, 0.25
        lags = S.conv_weights(spec, n, 1.0 / n)[::-1]
        system = toeplitz(lags, np.zeros(n)) + lam * np.tril(np.ones((n, n)))
        du = solve_triangular(system, np.full(n, f - lam * u0), lower=True)
        exact = u0 + np.cumsum(du)
        fld = S.solve(spec, S.SpatialGrid(), None, u0, f, 1.0, n, reaction=lam)
        got = fld.values[1:, 0]
        assert np.max(np.abs(got - exact)) <= 1e-13 * np.max(np.abs(exact))

    def test_zero_data_zero_solution(self, half):
        fld = S.solve(half, S.SpatialGrid(), None, 0.0, 0.0, 1.0, 64,
                      reaction=1.0)
        assert np.max(np.abs(fld.values)) == 0.0

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("shape", [(8,), (5, 4)], ids=["1d", "2d"])
    def test_reaction_on_a_grid_matches_relaxation(self, alpha, shape):
        # constant data under Neumann-zero walls: L u = 0, so every cell
        # follows the 0d relaxation with the same reaction rate
        spec, lam = MeasureSpec.single_order(alpha), 3.0
        bc = S.BoundaryCondition.neumann_zero()
        grid = S.SpatialGrid(extents=((0.0, 1.0),) * len(shape),
                             n_cells=shape, boundary=((bc, bc),) * len(shape))
        fld = S.solve(spec, grid, IDENTITY, 1.0, 0.25, 1.0, 512, reaction=lam)
        ode = S.solve(spec, S.SpatialGrid(), None, 1.0, 0.25, 1.0, 512,
                      reaction=lam).values[:, 0]
        got = fld.values.reshape(513, -1)
        assert np.max(np.abs(got - ode[:, None])) <= 1e-14 * np.max(ode)
        assert abs(ode[-1] - 1.0) > 0.1  # the reaction moves u

    def test_reaction_changes_a_dirichlet_run(self, half):
        runs = [S.solve(half, dirichlet_grid(8), IDENTITY, 1.0, 0.0, 1.0, 16,
                        reaction=lam).values for lam in (0.0, 50.0)]
        assert np.all(runs[1][1:] < runs[0][1:])


class TestPdeSanity:
    def test_constant_preserved_neumann(self, half):
        fld = S.solve(half, neumann_grid(), IDENTITY, 3.7, 0.0, 0.5, 64)
        assert np.max(np.abs(fld.values - 3.7)) <= 1e-12

    def test_nonnegativity_random_data(self, half):
        grid = dirichlet_grid(64)
        rng = np.random.default_rng(11)
        for _ in range(10):
            u0 = np.maximum(rng.normal(size=64), 0.0)
            fld = S.solve(half, grid, IDENTITY, u0, 0.0, 0.4, 96)
            assert float(np.min(fld.values)) >= -1e-12

    def test_heat_limit_against_crank_nicolson(self):
        spec = MeasureSpec.single_order(0.999)
        n, big_t, steps = 64, 0.1, 512
        grid = dirichlet_grid(n)
        x = grid.axis_centers(0)
        u0 = np.sin(np.pi * x)
        fld = S.solve(spec, grid, IDENTITY, u0, 0.0, big_t, steps)
        # Crank-Nicolson reference on the same spatial stencil
        h = grid.spacing[0]
        lap = np.zeros((n, n))
        for c in range(n):
            if c > 0:
                lap[c, c] += 1 / h**2
                lap[c, c - 1] -= 1 / h**2
            if c < n - 1:
                lap[c, c] += 1 / h**2
                lap[c, c + 1] -= 1 / h**2
        lap[0, 0] += 2 / h**2
        lap[-1, -1] += 2 / h**2
        tau = big_t / steps
        eye = np.eye(n)
        lhs = eye / tau + lap / 2
        rhs = eye / tau - lap / 2
        u = u0.copy()
        for _ in range(steps):
            u = np.linalg.solve(lhs, rhs @ u)
        assert np.max(np.abs(fld.values[-1] - u)) <= 2e-2

    def test_linearity(self, half):
        grid = dirichlet_grid(48)
        rng = np.random.default_rng(5)
        u1, u2 = rng.normal(size=48), rng.normal(size=48)
        f1, f2 = 0.4, -0.2
        a = S.solve(half, grid, IDENTITY, u1, f1, 0.3, 48)
        b = S.solve(half, grid, IDENTITY, u2, f2, 0.3, 48)
        ab = S.solve(half, grid, IDENTITY, u1 + u2, f1 + f2, 0.3, 48)
        assert np.max(np.abs(ab.values - a.values - b.values)) <= 1e-10

    def test_m_matrix_structure(self, half):
        stepper = S.TimeStepper(half, dirichlet_grid(32), IDENTITY, 1.0, 0.0,
                                0.2, 32)
        assert _is_m_matrix(stepper, 0.1)
        grid2 = S.SpatialGrid(
            extents=((0.0, 1.0), (0.0, 1.0)), n_cells=(8, 8),
            boundary=((S.BoundaryCondition.dirichlet(0.0),) * 2,) * 2)
        coeffs = S.CoefficientField.constant([1.0, 2.0])
        st2 = S.TimeStepper(half, grid2, coeffs, 1.0, 0.0, 0.2, 32)
        assert _is_m_matrix(st2, 0.1)

    def test_2d_constant_and_nonneg(self, half):
        bcn = S.BoundaryCondition.neumann_zero()
        g2 = S.SpatialGrid(extents=((0.0, 1.0), (0.0, 1.0)),
                           n_cells=(10, 10), boundary=((bcn, bcn),) * 2)
        coeffs = S.CoefficientField.constant([1.0, 1.5])
        fld = S.solve(half, g2, coeffs, 1.25, 0.0, 0.1, 24)
        assert np.max(np.abs(fld.values - 1.25)) <= 1e-12
        g2d = S.SpatialGrid(extents=((0.0, 1.0), (0.0, 1.0)),
                            n_cells=(12, 12),
                            boundary=((S.BoundaryCondition.dirichlet(0.0),) * 2,
                                      ) * 2)
        u0 = np.maximum(np.random.default_rng(8).normal(size=(12, 12)), 0.0)
        fld2 = S.solve(half, g2d, coeffs, u0, 0.0, 0.1, 24)
        assert float(np.min(fld2.values)) >= -1e-12
        assert float(np.max(fld2.residuals)) <= 1e-10

    def test_yosida_weight_consistency(self, half):
        # swapping the kernel for its n=256 regularization moves u only a little
        grid = dirichlet_grid(48)
        x = grid.axis_centers(0)
        u0 = np.sin(np.pi * x)
        n_steps, big_t = 256, 1.0
        base = S.solve(half, grid, IDENTITY, u0, 0.0, big_t, n_steps)
        tau = big_t / n_steps
        yos = V.yosida_kernels(half, 256, tau, n_steps)
        cum = np.concatenate(([0.0], np.cumsum(yos.k_n.masses())))
        reg = S.solve(half, grid, IDENTITY, u0, 0.0, big_t, n_steps,
                      kernel_cumulative=cum)
        assert np.max(np.abs(base.values - reg.values)) <= 5e-2

    def test_checkerboard_coefficients(self, half):
        cb = S.CoefficientField.checkerboard(0.5, 2.0, 0.25)
        grid = dirichlet_grid(40)
        u0 = np.maximum(np.sin(2 * np.pi * grid.axis_centers(0)), 0.0)
        fld = S.solve(half, grid, cb, u0, 0.0, 0.2, 40)
        assert float(np.min(fld.values)) >= -1e-12
        assert fld.coefficient_bounds == (0.5, 2.0)


class TestCoefficientBounds:
    """``(nu, lam)`` measured where the stepper reads A: the smallest
    diagonal entry and the largest Frobenius norm over the cell centres and
    Dirichlet face midpoints of every assembly."""

    @staticmethod
    def _square(n=8):
        bc = S.BoundaryCondition.dirichlet(0.0)
        return S.SpatialGrid(extents=((0.0, 1.0),) * 2, n_cells=(n, n),
                             boundary=((bc, bc),) * 2)

    def test_constant(self, half):
        fld = S.solve(half, self._square(), S.CoefficientField.constant(
            [3.0, 4.0]), 1.0, 0.0, 0.2, 16)
        assert fld.coefficient_bounds == (3.0, 5.0)

    def test_table_read_at_every_cell(self, half):
        # the largest entry sits in one corner cell of a 64 x 64 table
        grid = self._square(64)
        table = np.full((64, 64), 2.0)
        table[0, 0], table[-1, -1] = 0.5, 7.0
        fld = S.solve(half, grid, S.CoefficientField.from_table(table, grid),
                      1.0, 0.0, 0.2, 16)
        assert fld.coefficient_bounds == (0.5, 7.0 * math.sqrt(2.0))

    @pytest.mark.parametrize("low, high", [(0.1, 10.0), (10.0, 0.1)])
    def test_checkerboard_either_way_round(self, half, low, high):
        # the bounds do not depend on which value is passed as low
        fld = S.solve(half, self._square(16),
                      S.CoefficientField.checkerboard(low, high, 0.125),
                      1.0, 0.0, 0.2, 16)
        assert fld.coefficient_bounds == (0.1, 10.0 * math.sqrt(2.0))

    def test_time_dependent_bounds_cover_every_step(self, half):
        # A = (1 + t) I grows over the run: nu is read at the first step,
        # lam at the last, not at t = 0
        coeffs = S.CoefficientField(fn=lambda t, x: (1.0 + t) * np.ones_like(x),
                                    time_dependent=True)
        fld = S.solve(half, dirichlet_grid(8), coeffs, 1.0, 0.0, 1.0, 16)
        assert fld.coefficient_bounds == (1.0 + 1.0 / 16, 2.0)
        assert fld.lu_factorisations == 16

    def test_dirichlet_face_midpoints_count(self, half):
        # A is 4 at the boundary faces only, which no cell centre sees
        coeffs = S.CoefficientField(
            fn=lambda x: np.where((x == 0.0) | (x == 1.0), 4.0, 1.0))
        fld = S.solve(half, dirichlet_grid(8), coeffs, 1.0, 0.0, 0.2, 16)
        assert fld.coefficient_bounds == (1.0, 4.0)
        neumann = S.solve(half, neumann_grid(8), coeffs, 1.0, 0.0, 0.2, 16)
        assert neumann.coefficient_bounds == (1.0, 1.0)

    def test_no_bounds_without_a_grid(self, half):
        fld = S.solve(half, S.SpatialGrid(), None, 1.0, 0.0, 1.0, 16,
                      reaction=1.0)
        assert fld.coefficient_bounds is None

    @pytest.mark.parametrize("diagonal", [[1.0, -1.0], [0.0, 1.0],
                                          [1.0, np.nan], np.inf],
                             ids=["negative", "zero", "nan", "inf"])
    def test_entry_not_finite_and_positive_raises(self, half, diagonal):
        # named at the first step time and the first cell centre, an
        # infinite entry included
        with pytest.raises(S.SolverError, match=re.escape(
                "A(t=0.0125, x=[0.0625, 0.0625]) is not finite and positive")):
            S.solve(half, self._square(),
                    S.CoefficientField.constant(diagonal), 1.0, 0.0, 0.2, 16)

    def test_bad_entry_found_at_any_time_and_point(self, half):
        # positive until t = 0.1, then 0 at one face midpoint
        def fn(t, x):
            at = (x[..., 0] == 1.0) & (x[..., 1] < 0.1) & (t > 0.1)
            return np.where(at[..., None], 0.0, np.ones_like(x))

        coeffs = S.CoefficientField(fn=fn, time_dependent=True)
        with pytest.raises(S.SolverError,
                           match=re.escape("A(t=0.1125, x=[1.0, 0.0625])")):
            S.solve(half, self._square(), coeffs, 1.0, 0.0, 0.2, 16)

    @pytest.mark.parametrize("diagonal", [[1.0, 2.0, 3.0], [[1.0, 0.5],
                                                             [0.0, 1.0]]],
                             ids=["three-entries", "matrix"])
    def test_wrong_diagonal_shape_raises(self, half, diagonal):
        with pytest.raises(S.SolverError, match=re.escape(
                "A(t=0.0125) has a diagonal of shape")):
            S.solve(half, self._square(),
                    S.CoefficientField.constant(diagonal), 1.0, 0.0, 0.2, 16)

    def test_field_read_once_per_point_set(self, half):
        # cell centres and the 4 Dirichlet faces, at the one assembly
        shapes = []

        def fn(x):
            shapes.append(x.shape)
            return np.ones_like(x)

        S.solve(half, self._square(), S.CoefficientField(fn=fn), 1.0, 0.0,
                0.2, 16)
        assert shapes == [(8, 8, 2), (1, 8, 2), (1, 8, 2), (8, 1, 2),
                          (8, 1, 2)]

    def test_static_field_read_once_with_callable_dirichlet(self, half):
        # a callable g is sampled at every step from the face diffusivities
        # kept with the factors: 3 reads (centres and two faces), not 65,
        # and the same trajectory as reading A again at every step
        bc = S.BoundaryCondition.dirichlet(lambda t, x: t)
        grid = S.SpatialGrid(extents=((0.0, 1.0),), n_cells=(16,),
                             boundary=((bc, bc),))
        calls = []

        def fn(x):
            calls.append(x.shape)
            return 1.0 + x

        f = lambda t, x: one_star_k_eval(half, t)
        fld = S.solve(half, grid, S.CoefficientField(fn=fn), 0.0, f, 1.0, 32)
        assert calls == [(16, 1), (1, 1), (1, 1)]
        assert fld.lu_factorisations == 1
        again = S.solve(half, grid, S.CoefficientField(
            fn=lambda t, x: 1.0 + x, time_dependent=True), 0.0, f, 1.0, 32)
        assert np.array_equal(fld.values, again.values)
        assert fld.coefficient_bounds == again.coefficient_bounds == (1.0, 2.0)

    def test_static_field_never_receives_t(self, half):
        # a field of (t, x) that is not declared time dependent raises at
        # its first read instead of being frozen at t_1
        coeffs = S.CoefficientField(fn=lambda t, x: (1.0 + t) * np.ones_like(x))
        with pytest.raises(TypeError):
            S.solve(half, dirichlet_grid(8), coeffs, 1.0, 0.0, 1.0, 16)


class TestBlockHistory:
    """The block-FFT history of the 1d and 2d stepper against the direct
    full-history product."""

    @pytest.mark.parametrize("case", ["band-1d", "square-2d"])
    def test_against_direct_history_product(self, half, case):
        bc = S.BoundaryCondition.dirichlet(0.0)
        if case == "band-1d":
            spec = MeasureSpec(weight_breaks=(0.17, 0.78),
                               weight_values=(1.0 / 0.61,))
            grid, n_steps, f = dirichlet_grid(128), 2048, 0.3
            coeffs = IDENTITY
        else:
            spec = half
            grid = S.SpatialGrid(extents=((0.0, 1.0),) * 2, n_cells=(24, 24),
                                 boundary=((bc, bc),) * 2)
            n_steps, f = 768, 0.0
            coeffs = S.CoefficientField.constant([1.0, 0.8])
        u0 = np.maximum(np.random.default_rng(4).normal(size=grid.shape), 0.0)
        fld = S.solve(spec, grid, coeffs, u0, f, 1.0, n_steps)
        ref = DirectHistoryStepper(spec, grid, coeffs, u0, f, 1.0, n_steps)
        for _ in range(n_steps):
            ref.advance()
        scale = np.max(np.abs(ref.u))
        assert np.max(np.abs(fld.values - ref.u)) <= 1e-12 * scale

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("mixture", [False, True], ids=["half", "mixture"])
    def test_point_source_response_is_shift_invariant(self, half, dim,
                                                      mixture):
        # the weights and A do not depend on time, so a unit source in the
        # middle cell at step s answers with the step-1 response delayed by
        # s - 1 steps; the steps s cross the base blocks of 64 and the dense
        # and FFT far-field spans of the block history
        spec = MeasureSpec.from_atoms([(0.2, 0.99), (0.9, 0.01)]) \
            if mixture else half
        n_cells = 64 if dim == 1 else 24
        grid = S.SpatialGrid(extents=((-3.5, 4.5),) * dim,
                             n_cells=(n_cells,) * dim)
        coeffs = S.CoefficientField.checkerboard(0.1, 10.0, 0.5)
        n_steps = 384
        source = np.zeros(grid.shape)
        source[(n_cells // 2,) * dim] = 1.0

        def response(s):
            def f(t, x):
                return source if round(t * n_steps) == s else 0.0
            return S.solve(spec, grid, coeffs, 0.0, f, 1.0, n_steps).values

        first = response(1)
        scale = np.max(np.abs(first))
        for s in (2, 17, 64, 65, 130, 300):
            u = response(s)
            assert np.all(u[:s] == 0.0), s
            assert np.max(np.abs(u[s:] - first[1:n_steps + 2 - s])) <= \
                1e-13 * scale, s


class TestSteppingInPieces:
    """A trajectory stepped in pieces, by ``advance`` or by ``_run`` up to
    each stop, is the trajectory of one ``solve``, bit for bit."""

    STOPS = (1, 63, 64, 65, 128, 129, 160)

    @staticmethod
    def _case(case):
        bc = S.BoundaryCondition.dirichlet(0.0)
        u0 = lambda t, x: np.sin(3.0 * np.pi * x[..., 0]) ** 2
        if case == "static-1d":
            return dirichlet_grid(24), S.CoefficientField.checkerboard(
                0.1, 10.0, 0.125), u0, 0.3
        if case == "static-2d":
            grid = S.SpatialGrid(extents=((0.0, 1.0),) * 2, n_cells=(8, 6),
                                 boundary=((bc, bc),) * 2)
            return grid, S.CoefficientField.constant([1.0, 0.8]), u0, 0.3
        if case == "neumann":
            return neumann_grid(24), S.CoefficientField(
                lambda x: 1.0 + x), u0, 0.0
        if case == "relaxation":
            return S.SpatialGrid(), None, 1.0, 0.3
        if case == "relaxation-callable-f":
            return S.SpatialGrid(), None, 1.0, lambda t, x: np.cos(3.0 * t)
        return refreshed_run(case, [])

    @pytest.mark.parametrize("how", ["advance", "run"])
    @pytest.mark.parametrize("case", ["static-1d", "static-2d", "neumann",
                                      "callable-f", "callable-g",
                                      "time-dependent", "time-dependent-f-g",
                                      "relaxation", "relaxation-callable-f"])
    def test_pieces_equal_one_solve(self, half, case, how):
        n = self.STOPS[-1]
        args = self._case(case)
        fld = S.solve(half, *args, 1.0, n)
        stepper = S.TimeStepper(half, *args, 1.0, n)
        for stop in self.STOPS:
            while stepper.m < stop:
                if how == "advance":
                    got = stepper.advance()
                else:
                    stepper._run(stop)
                    got = stepper.u[stop]
            assert stepper.m == stop
            assert np.array_equal(got, fld.values[stop])
            assert np.array_equal(stepper.u[:stop + 1],
                                  fld.values[:stop + 1])
            assert np.array_equal(stepper.residuals[:stop],
                                  fld.residuals[:stop])
        assert np.array_equal(stepper.u, fld.values)
        assert np.array_equal(stepper.residuals, fld.residuals)
        if fld.f_samples is None:
            assert stepper.f_samples is None
        else:
            assert np.array_equal(stepper.f_samples, fld.f_samples)
        assert stepper.lu_factorisations == fld.lu_factorisations
        with pytest.raises(S.SolverError, match="already complete"):
            stepper.advance()


class TestStepResiduals:
    """The residuals checked once per run of steps that share one matrix
    against the check made after every solve."""

    @pytest.mark.parametrize("reads", ["1-63-64-65-N", "N"])
    @pytest.mark.parametrize("case", ["line-1d", "square-2d",
                                      "time-dependent"])
    def test_batched_equals_per_step(self, half, case, reads):
        rng = np.random.default_rng(6)
        if case == "line-1d":
            grid, n_steps, f = dirichlet_grid(64), 192, 0.3
            coeffs = IDENTITY
        elif case == "square-2d":
            bc = S.BoundaryCondition.dirichlet(0.0)
            grid = S.SpatialGrid(extents=((0.0, 1.0),) * 2, n_cells=(12, 12),
                                 boundary=((bc, bc),) * 2)
            n_steps, f = 160, 0.0
            coeffs = S.CoefficientField.constant([1.0, 0.8])
        else:
            # a check of a block against its last matrix reads 0.15-0.25 here
            bc = S.BoundaryCondition.dirichlet(lambda t, x: 0.1 * t)
            grid = S.SpatialGrid(extents=((0.0, 1.0),), n_cells=(32,),
                                 boundary=((bc, bc),))
            n_steps, f = 150, 0.0
            coeffs = S.CoefficientField(
                fn=lambda t, x: 1.0 + t + x,
                time_dependent=True)
        u0 = np.maximum(rng.normal(size=grid.shape), 0.0)
        stepper = PerStepResidualStepper(half, grid, coeffs, u0, f, 1.0,
                                         n_steps)
        stops = [1, 63, 64, 65, n_steps] if reads != "N" else [n_steps]
        for stop in stops:
            while stepper.m < stop:
                stepper.advance()
            got = stepper.residuals
            assert np.array_equal(got[:stop], stepper.reference)
            assert not np.any(got[stop:])
        assert max(stepper.reference) <= 1e-10


class TestAssembly:
    """The step matrix built from its diagonals and the factorisation kept
    across steps."""

    @pytest.mark.parametrize("case", ["1d-table", "1d-time-dependent",
                                      "2d-table", "2d-time-dependent"])
    def test_step_matrix_entries_against_cell_by_cell(self, half, case):
        # every entry of the step matrix against a dense one built cell by
        # cell: -(a_c + a_nb) / (2 h^2) between cells that share a face,
        # exactly, and 0 between any other two, as across the row ends of
        # the 2d axis-1 band; beta_mm + reaction, those couplings and 2 a /
        # h^2 per Dirichlet face (a at its midpoint) on the diagonal, and
        # 2 a g / h^2 in the boundary vector, within 1e-14
        dim, shape = int(case[0]), (7,) if case[0] == "1" else (5, 4)
        g = lambda t, x: 1.0 + t * x[..., 0]
        walls = ((S.BoundaryCondition.dirichlet(g),
                  S.BoundaryCondition.neumann_zero()),
                 (S.BoundaryCondition.neumann_zero(),
                  S.BoundaryCondition.dirichlet(0.3)))
        grid = S.SpatialGrid(extents=((0.0, 1.0), (-0.5, 2.0))[:dim],
                             n_cells=shape, boundary=walls[:dim])
        if case.endswith("table"):
            coeffs = S.CoefficientField.from_table(
                np.random.default_rng(2).uniform(0.1, 10.0, shape), grid)
            read = lambda t, x: coeffs.fn(x[None])[0]
        else:
            coeffs = S.CoefficientField(
                lambda t, x: (1.0 + t) * (1.0 + x * x) * [1.0, 2.5][:dim],
                time_dependent=True)
            read = lambda t, x: coeffs.fn(t, x[None])[0]
        t, reaction = 0.375, 0.7
        stepper = S.TimeStepper(half, grid, coeffs, 1.0, 0.0, 1.0, 8,
                                reaction=reaction)
        full, _, rhs_bc = stepper._factorise(t)[:3]
        n, centres = grid.n_total, grid.centers()
        ref, ref_bc = np.zeros((n, n)), np.zeros(n)
        for cell in np.ndindex(shape):
            i = np.ravel_multi_index(cell, shape)
            ref[i, i] = stepper.weights[0] + reaction
            for axis, h in enumerate(grid.spacing):
                a = read(t, centres[cell])[axis]
                for side, nb in enumerate((cell[axis] - 1, cell[axis] + 1)):
                    other = cell[:axis] + (nb,) + cell[axis + 1:]
                    if 0 <= nb < shape[axis]:
                        coef = 0.5 * (a + read(t, centres[other])[axis]) / h**2
                        ref[i, np.ravel_multi_index(other, shape)] = -coef
                        ref[i, i] += coef
                    elif grid.boundary[axis][side].kind == "dirichlet":
                        face = centres[cell].copy()
                        face[axis] = grid.extents[axis][side]
                        value = grid.boundary[axis][side].value
                        value = value(t, face[None])[0] if callable(value) \
                            else value
                        a_face = read(t, face)[axis]
                        ref[i, i] += 2.0 * a_face / h**2
                        ref_bc[i] += 2.0 * a_face * value / h**2
        dense, off = full.toarray(), ~np.eye(n, dtype=bool)
        assert np.array_equal(dense[off], ref[off])
        assert full.nnz == np.count_nonzero(ref)
        assert np.allclose(np.diag(dense), np.diag(ref), rtol=1e-14, atol=0)
        assert np.allclose(rhs_bc, ref_bc, rtol=1e-14, atol=0)
        assert np.count_nonzero(ref_bc) == (1 if dim == 1 else 8)

    def test_callable_dirichlet_linear_field_2d(self, half):
        linear = lambda t, x: x[..., 0] + 2.0 * x[..., 1]
        bc = S.BoundaryCondition.dirichlet(linear)
        grid = S.SpatialGrid(extents=((0.0, 1.0), (0.0, 2.0)), n_cells=(12, 9),
                             boundary=((bc, bc),) * 2)
        coeffs = S.CoefficientField.constant([1.0, 3.0])
        fld = S.solve(half, grid, coeffs, linear, 0.0, 0.5, 32)
        exact = grid.centers() @ np.array([1.0, 2.0])
        assert np.max(np.abs(fld.values - exact)) <= 1e-12

    def test_2d_factors_ordered_by_minimum_degree(self, half):
        # the minimum-degree ordering of the symmetric pattern holds fewer
        # entries than SuperLU's default column ordering, and lu_fill
        # counts them
        from scipy.sparse.linalg import splu

        bc = S.BoundaryCondition.dirichlet(0.0)
        grid = S.SpatialGrid(extents=((0.0, 1.0),) * 2, n_cells=(24, 24),
                             boundary=((bc, bc),) * 2)
        coeffs = S.CoefficientField.checkerboard(0.1, 10.0, 0.125)
        fld = S.solve(half, grid, coeffs, 1.0, 0.0, 0.5, 8)
        full = S.TimeStepper(half, grid, coeffs, 1.0, 0.0, 0.5,
                             8)._factorise(0.0625)[0]
        default = splu(full)
        assert fld.lu_fill < default.L.nnz + default.U.nnz
        assert fld.max_step_residual <= 1e-10

    def test_2d_with_neumann_y_walls_matches_1d(self, half):
        bcd = S.BoundaryCondition.dirichlet(0.5)
        bcn = S.BoundaryCondition.neumann_zero()
        line = S.SpatialGrid(extents=((0.0, 1.0),), n_cells=(20,),
                             boundary=((bcd, bcd),))
        sheet = S.SpatialGrid(extents=((0.0, 1.0), (0.0, 0.7)),
                              n_cells=(20, 6), boundary=((bcd, bcd), (bcn, bcn)))
        u0 = lambda t, x: np.sin(np.pi * x[..., 0]) ** 2
        one = S.solve(half, line, S.CoefficientField.constant(1.3),
                      u0, 0.2, 0.5, 48)
        two = S.solve(half, sheet,
                      S.CoefficientField.constant([1.3, 0.4]),
                      u0, 0.2, 0.5, 48)
        assert np.max(np.abs(two.values - one.values[..., None])) <= 1e-12

    def test_callable_dirichlet_sampled_at_every_step(self, half):
        # u = t solves the problem with g = t, u0 = 0 and f = (1*k)(t); the
        # product-integration weights are exact for linear u
        bc = S.BoundaryCondition.dirichlet(lambda t, x: t)
        grid = S.SpatialGrid(extents=((0.0, 1.0),), n_cells=(16,),
                             boundary=((bc, bc),))
        fld = S.solve(half, grid, IDENTITY, 0.0,
                      lambda t, x: one_star_k_eval(half, t), 1.0, 32)
        assert np.max(np.abs(fld.values - fld.times[:, None])) <= 1e-13

    @pytest.mark.parametrize("dim", [1, 2])
    def test_time_dependent_field_sampled_at_step_times(self, half, dim):
        bc = S.BoundaryCondition.dirichlet()
        grid = S.SpatialGrid(extents=((0.0, 1.0),) * dim, n_cells=(6,) * dim,
                             boundary=((bc, bc),) * dim)
        calls = []

        def fn(t, x):
            calls.append(t)
            return np.ones_like(x)

        flagged = S.CoefficientField(fn=fn, time_dependent=True)
        u0 = np.random.default_rng(3).random(grid.shape)
        fld = S.solve(half, grid, flagged, u0, 0.0, 0.4, 24)
        assert sorted(set(calls)) == [m * fld.step for m in range(1, 25)]
        cached = S.solve(half, grid, S.CoefficientField.constant(1.0),
                         u0, 0.0, 0.4, 24)
        assert np.array_equal(fld.values, cached.values)


def refreshed_run(case, calls):
    """``(grid, A, u0, f)`` of a 16-cell run whose right-hand side is
    sampled at every step, and for a time-dependent A its factors too; each
    read of A, f or g appends its name to ``calls``."""
    def read(name, value):
        def fn(*args):
            calls.append(name)
            return value(*args)
        return fn

    static = read("A", lambda x: 1.0 + x)
    varying = read("A", lambda t, x: (1.0 + t) * (1.0 + x))
    sine = lambda t, x: np.sin(np.pi * x[..., 0])
    g_t = read("g", lambda t, x: t)
    f_tx = read("f", lambda t, x: t * x[..., 0])
    g, u0, f = {"callable-f": (0.0, sine, f_tx),
                "callable-g": (g_t, 0.0, 0.0),
                "time-dependent": (0.0, sine, 0.3),
                "time-dependent-f-g": (g_t, sine, f_tx)}[case]
    coeffs = S.CoefficientField(varying, time_dependent=True) \
        if case.startswith("time-dependent") else S.CoefficientField(static)
    return dirichlet_grid(16, g), coeffs, u0, f


class SuperLUParityStepper(S.TimeStepper):
    """Solves each step as ``TimeStepper`` does and records, per step, how
    far SuperLU's solution ``y`` of the same system is from it, ``x``: the
    normwise backward gap ``max|full (x - y)| / (|full| max|x| + max|b|)``
    in ``backward``, ``|full|`` the infinity norm, and ``max|x - y| /
    max|y|`` in ``forward``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.backward, self.forward = [], []

    def _factorise(self, t):
        from scipy.sparse.linalg import splu

        full, solve, *rest = super()._factorise(t)
        reference = splu(full).solve
        norm = float(abs(full).sum(axis=1).max())

        def both(b):
            x, y = solve(b), reference(b)
            scale = norm * np.abs(x).max() + np.abs(b).max()
            self.backward.append(float(np.abs(full @ (x - y)).max() / scale))
            self.forward.append(float(np.abs(x - y).max() / np.abs(y).max()))
            return x

        return (full, both, *rest)


class TestTridiagonalSolve:
    """The 1d step solve, LAPACK's L D L^T, against SuperLU on the same
    step matrix and right-hand side at every step.

    The two solutions ``x`` and ``y`` agree within 1e-14 in the normwise
    backward sense: both solve the step system to rounding.  ``x - y``
    itself is within 1e-14 of ``y`` where the step matrix is well
    conditioned: on 3 cells and on the 16-cell runs that ``TestSharedSetup``
    pins.  On 64 and 2048 cells it reads up to 6.2e-12 (condition numbers
    up to 1.3e7), as both solvers err by about condition number times
    rounding; against a 40-digit tridiagonal solve of the 2048-cell board's
    96 steps the L D L^T solve errs by at most 7.8e-13 and SuperLU by
    6.7e-12."""

    @staticmethod
    def _case(case, n):
        grid = dirichlet_grid(n, 0.2)
        coeffs = S.CoefficientField.checkerboard(0.1, 10.0, 0.125)
        u0 = lambda t, x: np.sin(3.0 * np.pi * x[..., 0]) ** 2
        if case == "neumann":
            grid, coeffs = neumann_grid(n), S.CoefficientField(
                lambda x: 1.0 + x)
        elif case == "callable-g":
            bc = S.BoundaryCondition.dirichlet(
                lambda t, x: t * (1.0 + x[..., 0]))
            grid = S.SpatialGrid(extents=((0.0, 1.0),), n_cells=(n,),
                                 boundary=((bc, bc),))
        elif case == "time-dependent":
            coeffs = S.CoefficientField(
                lambda t, x: (1.0 + t) * (1.0 + x), time_dependent=True)
        return grid, coeffs, u0, 0.3

    @staticmethod
    def _run(half, grid, coeffs, u0, f, n_steps):
        stepper = SuperLUParityStepper(half, grid, coeffs, u0, f, 1.0,
                                       n_steps)
        while stepper.m < n_steps:
            stepper.advance()
        assert len(stepper.backward) == n_steps
        assert max(stepper.backward) <= 1e-14
        return stepper

    @pytest.mark.parametrize("n", [3, 64, 2048])
    @pytest.mark.parametrize("case", ["dirichlet", "neumann", "callable-g",
                                      "time-dependent"])
    def test_matches_superlu(self, half, case, n):
        stepper = self._run(half, *self._case(case, n), 96)
        if n == 3:
            assert max(stepper.forward) <= 1e-14
        assert stepper.lu_fill == 2 * n - 1  # d and e of L D L^T
        assert stepper.lu_factorisations == (96 if case == "time-dependent"
                                             else 1)

    @pytest.mark.parametrize("case", ["callable-f", "callable-g",
                                      "time-dependent", "time-dependent-f-g"])
    def test_pinned_runs_match_superlu(self, half, case):
        # the runs whose trajectory bytes TestSharedSetup pins
        stepper = self._run(half, *refreshed_run(case, []), 32)
        assert max(stepper.forward) <= 1e-14


class TestSharedSetup:
    """What steppers inside one ``_shared_systems()`` scope share, and what
    each step rebuilds."""

    def test_weights_shared_only_for_equal_measure_steps_and_step(self, half):
        # equal (spec, n_steps, tau) share one set of weights; another
        # measure, step count or horizon, or given kernel_cumulative, has its
        # own, and every trajectory is that of a solve outside the scope
        grid = dirichlet_grid(16)
        u0 = np.sin(np.pi * grid.axis_centers(0))
        big_k = one_star_k_eval(half, 0.5 / 192 * np.arange(193))
        runs = [(half, 0.5, 192, None), (half, 0.5, 192, None),
                (MeasureSpec.single_order(0.25), 0.5, 192, None),
                (half, 1.0, 384, None), (half, 0.75, 192, None),
                (half, 0.5, 192, big_k)]
        with S._shared_systems():
            steppers = [S.TimeStepper(spec, grid, IDENTITY, u0, 0.0, horizon,
                                      n, kernel_cumulative=cumulative)
                        for spec, horizon, n, cumulative in runs]
            for stepper in steppers:
                while stepper.m < stepper.n_steps:
                    stepper.advance()
        for part in ("_hist", "_history", "_lags"):
            first, again, *others = (getattr(s, part) for s in steppers)
            assert again is first
            assert len({id(first), *map(id, others)}) == len(runs) - 1
        for (spec, horizon, n, cumulative), stepper in zip(runs, steppers):
            alone = S.solve(spec, grid, IDENTITY, u0, 0.0, horizon, n,
                            kernel_cumulative=cumulative)
            assert np.array_equal(stepper.u, alone.values)
            assert np.array_equal(stepper.residuals, alone.residuals)

    # field reads, factorisations and SHA-256 of the trajectory's bytes,
    # each run checked against SuperLU by TestTridiagonalSolve and against
    # the direct history product by test_refreshed_runs_match_direct_history
    REFRESHED = {
        "callable-f": (3, 1, "ac50107c6ddcaab908e5e1633fccdb54"
                             "40b0494dbcf943e371910d96a3b3d889"),
        "callable-g": (3, 1, "9ab5eade958f00a3f9cf5460937745d4"
                             "11b3f6275db9ba8093a439ce31adf62f"),
        "time-dependent": (3 * 32, 32, "b48b6fa330b3557856b0b505984a8d08"
                                       "88ebcf75ad191745a572220a0a339097"),
        "time-dependent-f-g": (3 * 32, 32, "4c4e56866aa0bb9de87a97d1e4008bb5"
                                           "5d0e50107e2b296cb15992d90c2302c7"),
    }

    @pytest.mark.parametrize("n_steps", [32, 160])
    @pytest.mark.parametrize("case", list(REFRESHED))
    def test_refreshed_runs_match_direct_history(self, half, case, n_steps):
        # the pinned runs, and runs over three base blocks, against the
        # whole history multiplied at every step
        grid, coeffs, u0, f = refreshed_run(case, [])
        fld = S.solve(half, grid, coeffs, u0, f, 1.0, n_steps)
        ref = DirectHistoryStepper(half, grid, coeffs, u0, f, 1.0, n_steps)
        while ref.m < n_steps:
            ref.advance()
        scale = np.max(np.abs(ref.u))
        assert np.max(np.abs(fld.values - ref.u)) <= 1e-12 * scale

    @pytest.mark.parametrize("case", list(REFRESHED))
    def test_refreshed_each_step(self, half, case):
        # f_m + rhs_bc, and the factors for a time-dependent A, are rebuilt
        # at every step on these paths only; 16 cells and 32 steps
        reads, factorisations, digest = self.REFRESHED[case]
        calls = []
        grid, coeffs, u0, f = refreshed_run(case, calls)
        fld = S.solve(half, grid, coeffs, u0, f, 1.0, 32)
        # A as pinned, g once per Dirichlet side and step, f once per step
        g_read = callable(grid.boundary[0][0].value)
        assert [calls.count(name) for name in "Agf"] == [
            reads, 2 * 32 * g_read, 32 * callable(f)]
        assert fld.lu_factorisations == factorisations
        assert hashlib.sha256(fld.values.tobytes()).hexdigest() == digest
        if case == "callable-g":
            assert fld.f_samples is None
        else:
            x = dirichlet_grid(16).axis_centers(0)
            expect = fld.times[:, None] * x if callable(f) \
                else np.full((33, 16), f)
            assert np.array_equal(fld.f_samples[1:], expect[1:])
            assert not np.any(fld.f_samples[0])


class TestData:
    """u0, f and a Dirichlet value g are read as A is: a number, an array
    or one call ``value(t, points)`` per point set."""

    @staticmethod
    def _square(n=8, g=0.0):
        bc = S.BoundaryCondition.dirichlet(g)
        return S.SpatialGrid(extents=((0.0, 1.0),) * 2, n_cells=(n, n),
                             boundary=((bc, bc),) * 2)

    @pytest.mark.parametrize("dim", [2, 0])
    def test_callables_read_once_per_point_set(self, half, dim):
        # f once per step, in step order, at the cell centres (the one
        # point of the relaxation mode), g once per Dirichlet side and step
        # at its face midpoints, u0 once; f_samples holds the f read
        reads, f_read = {"u0": [], "f": [], "g": []}, []

        def datum(name):
            def value(t, x):
                reads[name].append((t, x.shape))
                out = np.sin((x[..., 0] if dim else 0.0) + t) ** 2
                if name == "f":
                    f_read.append(out)
                return out
            return value

        grid, coeffs, points = S.SpatialGrid(), None, (1, 0)
        if dim:
            grid, coeffs = self._square(g=datum("g")), IDENTITY
            points = (8, 8, 2)
        fld = S.solve(half, grid, coeffs, datum("u0"), datum("f"), 0.5, 16)
        times = [m * fld.step for m in range(1, 17)]
        assert reads["u0"] == [(0.0, points)]
        assert reads["f"] == [(t, points) for t in times]
        assert reads["g"] == [(t, shape) for t in times for shape in
                              [(1, 8, 2)] * 2 + [(8, 1, 2)] * 2] * (dim > 0)
        assert np.array_equal(fld.f_samples[1:], np.reshape(
            f_read, fld.f_samples[1:].shape))
        if dim:  # read at the cell centres
            assert np.array_equal(fld.f_samples[1:], np.sin(
                fld.grid.centers()[..., 0] + fld.times[1:, None, None]) ** 2)

    def test_flat_array_is_read_in_grid_order(self, half):
        grid = self._square()
        u0 = np.random.default_rng(2).random(grid.shape)
        shaped = S.solve(half, grid, IDENTITY, u0, u0, 0.5, 16)
        flat = S.solve(half, grid, IDENTITY, u0.ravel(), u0.ravel(), 0.5, 16)
        assert np.array_equal(shaped.values, flat.values)

    @pytest.mark.parametrize("case, message", [
        ("u0", "at t=0.0 has shape (1,) at points of shape (8, 1)"),
        ("f", "at t=0.0625 has shape (1,) at points of shape (8, 1)"),
        ("g", "at t=0.0625 has shape (8, 2) at points of shape (1, 8, 2)"),
        ("array", "at t=0.0 has shape (7,) at points of shape (8, 1)"),
        ("relaxation",
         "at t=0.0625 has shape (0,) at points of shape (1, 0)")])
    def test_other_shapes_refused(self, half, case, message):
        # a per-point callable, as x[0] reads the first point of the set,
        # and an array that is neither the grid's shape nor its flat form
        per_point = lambda t, x: x[0]
        grid, u0, f = dirichlet_grid(8), 1.0, 0.0
        if case == "u0":
            u0 = per_point
        elif case in ("f", "relaxation"):
            f = per_point
        elif case == "g":
            grid = self._square(g=per_point)
        else:
            u0 = np.ones(7)
        if case == "relaxation":
            grid = S.SpatialGrid()
        coeffs = None if grid.dim == 0 else IDENTITY
        with pytest.raises(S.SolverError, match=re.escape(message)):
            S.solve(half, grid, coeffs, u0, f, 1.0, 16, reaction=1.0)

    def test_scalar_per_point_forms_become_constant_in_1d(self, half):
        # 1d cell centres have shape (n, 1), so x[0] is the first centre,
        # of shape (1,).  A per-point form that makes a number of it
        # returns one number, which is spread as a t-only g must be: the
        # datum silently takes the first centre's value everywhere
        step = lambda t, x: 1.0 if x[0] < 0.5 else 0.0
        fld = S.solve(half, dirichlet_grid(8), IDENTITY, step, step, 0.5, 4)
        assert np.array_equal(fld.values[0], np.ones(8))
        assert np.array_equal(fld.f_samples[1:], np.ones((4, 8)))

class TestMittagLeffler:
    def test_values(self):
        assert S.mittag_leffler(1.0, -1.0) == pytest.approx(math.exp(-1),
                                                            rel=1e-14)
        assert S.mittag_leffler(0.5, -1.0) == pytest.approx(E_HALF_AT_1,
                                                            abs=1e-12)
        assert S.mittag_leffler(0.7, 0.0) == 1.0

    def test_two_parameter(self):
        got = S.mittag_leffler(0.5, -1.0, beta=0.5)
        identity = 1 / math.sqrt(math.pi) - math.e * math.erfc(1.0)
        assert got == pytest.approx(identity, abs=1e-12)

    def test_asymptotic_branch(self):
        from scipy.special import erfcx
        assert S.mittag_leffler(0.5, -25.0) == pytest.approx(
            float(erfcx(25.0)), rel=1e-4)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            S.mittag_leffler(1.5, -1.0)
        with pytest.raises(ValueError):
            S.mittag_leffler(0.5, 1.0)


class TestValidationErrors:
    def test_grid_too_coarse(self):
        with pytest.raises(S.SolverError):
            S.SpatialGrid(extents=((0.0, 1.0),), n_cells=(2,))

    @pytest.mark.parametrize("extents, n_cells, axis", [
        (((0.0, math.inf),), (8,), 0),
        (((math.nan, 1.0),), (8,), 0),
        (((0.0, 1.0), (-math.inf, 1.0)), (8, 8), 1),
        (((0.0, 1.0),), (3.5,), 0),
        (((0.0, 1.0),), (True,), 0),
        (((0.0, 1.0), (0.0, 1.0)), (8, 8.0), 1),
        (((0.0, 1.0), (0.0, 1.0, 2.0)), (8, 8), 1),
        (((0.0, 1.0), 1.0), (8, 8), 1)])
    def test_bad_axis_rejected_naming_it(self, extents, n_cells, axis):
        # an infinite extent used to solve with no diffusion and the boundary
        # ignored, a NaN one to fail in the sparse LU, 3.5 cells in numpy,
        # three bounds or one with a bare ValueError or TypeError
        with pytest.raises(S.SolverError, match=f"axis {axis}"):
            S.SpatialGrid(extents=extents, n_cells=n_cells)

    COUNTS = {
        "sample_l": lambda spec, n: V.sample_l(spec, 0.1, n),
        "sample_kernel": lambda spec, n: sample_kernel(spec, "k", 0.1, n),
        "yosida_kernels": lambda spec, n: V.yosida_kernels(spec, n, 0.1, 8),
        "conv_weights": lambda spec, n: S.conv_weights(spec, n, 0.1),
        "TimeStepper": lambda spec, n: S.TimeStepper(
            spec, S.SpatialGrid(), None, 1.0, 0.0, 1.0, n)}

    @pytest.mark.parametrize("count", [2.5, 4.0, True, np.float64(8.0)],
                             ids=["2.5", "4.0", "True", "float64"])
    @pytest.mark.parametrize("name", list(COUNTS))
    def test_count_not_an_integer_refused(self, half, name, count):
        # sample_l took 2.5 as 3 samples and sample_kernel 3.7 as 4,
        # yosida_kernels built n = 2.5 and conv_weights took True as m = 1
        with pytest.raises((ValueError, S.SolverError), match="integer"):
            self.COUNTS[name](half, count)

    @pytest.mark.parametrize("boundary, axis", [
        (((S.BoundaryCondition.dirichlet(1.0),),), 0),
        (((S.BoundaryCondition.dirichlet(),) * 2,
          (S.BoundaryCondition.dirichlet(),) * 3), 1),
        (((S.BoundaryCondition.dirichlet(),) * 2,
          S.BoundaryCondition.dirichlet()), 1)],
        ids=["one-side", "three-sides", "bare-side"])
    def test_boundary_not_a_pair_rejected_naming_axis(self, boundary, axis):
        # one side used to leave the hi side zero-flux silently, three sides
        # to fail inside solve with a bare IndexError, a bare side with a
        # TypeError
        extents = ((0.0, 1.0),) * len(boundary)
        pair = re.escape("is not a (lo, hi) pair")
        with pytest.raises(S.SolverError, match=f"axis {axis}: .* {pair}"):
            S.SpatialGrid(extents=extents, n_cells=(8,) * len(boundary),
                          boundary=boundary)

    @pytest.mark.parametrize("period", [0.0, -0.25, math.nan, math.inf])
    def test_checkerboard_period_must_be_finite_and_positive(self, period):
        # period 0 or NaN gave a constant high field with RuntimeWarnings,
        # an infinite one a constant low field
        with pytest.raises(S.SolverError, match="period"):
            S.CoefficientField.checkerboard(0.1, 10.0, period)

    def test_unknown_boundary_kind_rejected_at_construction(self):
        bc = S.BoundaryCondition.dirichlet()
        with pytest.raises(S.SolverError, match="dirichelt"):
            S.SpatialGrid(extents=((0.0, 1.0),), n_cells=(8,),
                          boundary=((bc, S.BoundaryCondition("dirichelt")),))

    @pytest.mark.parametrize("grid", [S.SpatialGrid(), dirichlet_grid(8)],
                             ids=["0d", "1d"])
    def test_nan_history_weight_rejected(self, half, grid):
        n_steps = 16
        cum = np.asarray(one_star_k_eval(half, np.arange(n_steps + 1) / n_steps))
        cum[5] = np.nan
        coeffs = None if grid.dim == 0 else IDENTITY
        with pytest.raises(S.SolverError, match="finite"):
            S.solve(half, grid, coeffs, 1.0, 0.0, 1.0, n_steps, reaction=1.0,
                    kernel_cumulative=cum)

    @pytest.mark.parametrize("last", [math.inf, 1e308])
    @pytest.mark.parametrize("grid", [S.SpatialGrid(), dirichlet_grid(8)],
                             ids=["0d", "1d"])
    def test_infinite_history_weight_rejected_before_stepping(self, half,
                                                              grid, last):
        # an infinite last weight, or one that overflows in the division
        # by the step, is refused by the stepper's constructor, without a
        # floating-point warning
        coeffs = None if grid.dim == 0 else IDENTITY
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(S.SolverError,
                               match="history weights must be finite"):
                S.TimeStepper(half, grid, coeffs, 1.0, 0.0, 1.0, 4,
                              kernel_cumulative=[0.0, 1.0, 2.0, 3.0, last])

    def test_indefinite_1d_step_matrix_refused(self, half):
        # beta_mm = 4 / Gamma(3/2) ~ 4.51 at order 1/2 and step 1/16, and L
        # of a Neumann line annihilates constants: with reaction -10 the
        # step matrix is indefinite, and a trajectory from u0 = 1 would
        # turn negative (u(T) = -0.057 by a pivoted LU)
        with pytest.raises(S.SolverError, match=re.escape(
                "1d step matrix at t=0.0625 with reaction -10.0 is not "
                "positive definite")):
            S.solve(half, neumann_grid(8), IDENTITY, 1.0, 0.0, 1.0, 16,
                    reaction=-10.0)
        # above -beta_mm it stays positive definite, and the flat line is
        # the relaxation trajectory of the same reaction
        line = S.solve(half, neumann_grid(8), IDENTITY, 1.0, 0.0, 1.0, 16,
                       reaction=-2.0)
        ode = S.solve(half, S.SpatialGrid(), None, 1.0, 0.0, 1.0, 16,
                      reaction=-2.0)
        assert np.max(np.abs(line.values - ode.values)) <= \
            1e-13 * np.max(ode.values)

    def test_indefinite_2d_step_matrix_refused(self, half):
        # the 8 x 8 Neumann square has one negative eigenvalue at reaction
        # -10 (L annihilates constants), which a pivoted LU solved without
        # comment to u(T) = -0.057; the Dirichlet square's smallest
        # eigenvalue of L, about 2 pi^2, keeps the same reaction definite
        def square(bc):
            return S.SpatialGrid(extents=((0.0, 1.0),) * 2, n_cells=(8, 8),
                                 boundary=((bc, bc),) * 2)

        with pytest.raises(S.SolverError, match=re.escape(
                "2d step matrix at t=0.0625 with reaction -10.0 is not "
                "positive definite")):
            S.solve(half, square(S.BoundaryCondition.neumann_zero()),
                    IDENTITY, 1.0, 0.0, 1.0, 16, reaction=-10.0)
        walled = S.solve(half, square(S.BoundaryCondition.dirichlet(0.0)),
                         IDENTITY, 1.0, 0.0, 1.0, 16, reaction=-10.0)
        assert walled.max_step_residual <= 1e-12
        assert np.all(walled.values[-1] > 0.0)

    @pytest.mark.parametrize("case, t_bad", [
        ("u0", 0.0), ("f", 0.0625), ("dirichlet", 0.0625),
        ("dirichlet-late", 0.5), ("relaxation", 0.0),
        ("relaxation-late", 0.5), ("relaxation-inf", 0.30078125)])
    def test_non_finite_trajectory_raises(self, half, case, t_bad):
        grid, u0, f = dirichlet_grid(8), 1.0, 0.0
        if case == "u0":
            u0 = np.where(np.arange(8) == 3, np.nan, 1.0)
        elif case == "f":
            f = np.nan
        elif case == "dirichlet":
            grid = dirichlet_grid(8, value=np.nan)
        elif case == "dirichlet-late":
            bc = S.BoundaryCondition.dirichlet(
                lambda t, x: np.inf if t >= 0.5 else 0.0)
            grid = S.SpatialGrid(extents=((0.0, 1.0),), n_cells=(8,),
                                 boundary=((bc, bc),))
        elif case == "relaxation":
            grid, u0 = S.SpatialGrid(), np.nan
        else:
            # from step 128, the last of a base block of 64, or step 77,
            # inside one: no earlier slice of that block may turn non-finite
            bad = np.nan if case == "relaxation-late" else np.inf
            grid, f = S.SpatialGrid(), lambda t, x: bad if t >= t_bad else 0.0
        coeffs = None if grid.dim == 0 else IDENTITY
        n_steps = 16 if grid.dim or case == "relaxation" else 256
        with pytest.raises(S.SolverError, match=re.escape(
                f"not finite from t = {t_bad} on")):
            S.solve(half, grid, coeffs, u0, f, 1.0, n_steps, reaction=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("part, index, t_bad", [
        ("values", (3, 5), 0.375), ("f_samples", (2, 0), 0.25),
        ("residuals", (3,), 0.5)])
    def test_solution_field_holds_finite_numbers_only(self, part, index,
                                                      t_bad, bad):
        # a field built by hand is checked as solve's is, as the harnack
        # graders cannot tell a NaN on the cylinders from data: the
        # oscillation profile would read "flat" and the strong-maximum
        # check "consistent"
        data = {"values": np.ones((9, 8)), "f_samples": np.zeros((9, 8)),
                "residuals": np.zeros(8)}
        data[part][index] = bad
        with pytest.raises(S.SolverError, match=re.escape(
                f"not finite from t = {t_bad} on")):
            S.SolutionField(grid=dirichlet_grid(8), step=0.125,
                            wall_time=0.0, **data)

    @pytest.mark.parametrize("part, shape", [
        ("residuals", (7,)), ("residuals", (9,)), ("residuals", (8, 1)),
        ("f_samples", (10, 8)), ("f_samples", (9, 7))])
    def test_solution_field_refuses_another_layout(self, part, shape):
        data = {"values": np.ones((9, 8)), "f_samples": np.zeros((9, 8)),
                "residuals": np.zeros(8)}
        data[part] = np.zeros(shape)
        with pytest.raises(S.SolverError, match="one residual per step"):
            S.SolutionField(grid=dirichlet_grid(8), step=0.125,
                            wall_time=0.0, **data)

    @pytest.mark.parametrize("grid", [S.SpatialGrid(), dirichlet_grid(8)],
                             ids=["0d", "1d"])
    @pytest.mark.parametrize("n_steps, horizon, reaction, message", [
        (16, math.nan, 0.0, "finite horizon > 0, not 16 and nan"),
        (16, math.inf, 0.0, "finite horizon > 0, not 16 and inf"),
        (16.5, 1.0, 0.0, "integer n_steps >= 1 and a finite horizon > 0, "
                         "not 16.5 and 1.0"),
        (16, 1.0, math.nan, "reaction = nan is not finite"),
        (16, 1.0, -math.inf, "reaction = -inf is not finite")])
    def test_bad_steps_horizon_or_reaction_rejected_first(
            self, half, monkeypatch, grid, n_steps, horizon, reaction,
            message):
        # refused before any work and without a warning: the history
        # weights, the first thing built, are never reached
        monkeypatch.setattr(S, "_history_setup", None)
        coeffs = None if grid.dim == 0 else IDENTITY
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(S.SolverError, match=re.escape(message)):
                S.solve(half, grid, coeffs, 1.0, 0.0, horizon, n_steps,
                        reaction=reaction)

    @pytest.mark.parametrize("m, tau", [
        (4, math.nan), (4, math.inf), (4, -0.5), (4.5, 0.1)])
    def test_conv_weights_need_a_count_and_a_finite_positive_step(
            self, half, m, tau):
        with pytest.raises(S.SolverError,
                           match=re.escape(f"tau > 0, not {m} and {tau}")):
            S.conv_weights(half, m, tau)

    @pytest.mark.parametrize("grid", [dirichlet_grid(8), S.SpatialGrid(
        extents=((0.0, 1.0), (0.0, 1.0)), n_cells=(4, 4))], ids=["1d", "2d"])
    def test_grid_without_coefficients_rejected(self, half, grid):
        with pytest.raises(S.SolverError, match=re.escape(
                f"a {grid.dim}d grid needs coefficients A, got None")):
            S.solve(half, grid, None, 1.0, 0.0, 1.0, 8)

    def test_table_of_wrong_shape_rejected(self):
        grid = dirichlet_grid(8)
        with pytest.raises(S.SolverError, match=r"table shape \(7,\)"):
            S.CoefficientField.from_table(np.ones(7), grid)
