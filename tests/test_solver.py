import math

import numpy as np
import pytest

from memkern.measure import MeasureSpec
from memkern import solver as S
from memkern import volterra as V
from memkern.kernels import one_star_k_eval

E_HALF_AT_1 = 0.4275835761558070  # E_{1/2}(-1) = e * erfc(1)


def dirichlet_grid(n=64, value=0.0):
    bc = S.BoundaryCondition.dirichlet(value)
    return S.SpatialGrid(extents=((0.0, 1.0),), n_cells=(n,),
                         boundary=((bc, bc),))


def neumann_grid(n=32):
    bc = S.BoundaryCondition.neumann_zero()
    return S.SpatialGrid(extents=((0.0, 1.0),), n_cells=(n,),
                         boundary=((bc, bc),))


IDENTITY = S.CoefficientField.constant([[1.0]])


def _is_m_matrix(stepper, t):
    """Off-diagonals of the assembled operator at t nonpositive, and rows of
    the step matrix beta_mm I + L_t weakly diagonally dominant."""
    mat = stepper._assemble(t).tocoo()
    off = mat.row != mat.col
    offsum = np.zeros(mat.shape[0])
    np.add.at(offsum, mat.row[off], np.abs(mat.data[off]))
    beta_mm = float(stepper.weights[0])
    return bool(np.all(mat.data[off] <= 1e-14)
                and np.all(mat.diagonal() + beta_mm >= offsum - 1e-12))


class DirectHistoryStepper(S.TimeStepper):
    """Reference stepper for 1d and 2d grids: step m multiplies the whole
    history ``du[:m-1]`` by its weights directly, O(N^2) over a trajectory."""

    def advance(self):
        m = self.m + 1
        u, n = self._u_flat, self.n_steps
        rhs = self._beta_mm * u[m - 1] + self._source
        if m >= 2:
            rhs -= self._hist[n - m:n - 1] @ self.du[:m - 1]
        full, lu, rhs_bc = self._system(m * self.tau)
        u[m] = lu.solve(rhs + rhs_bc)
        np.subtract(u[m], u[m - 1], out=self.du[m - 1])
        self.m = m
        return self.u[m]


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
        coeffs = S.CoefficientField.constant([[1.0, 0.1], [0.1, 2.0]])
        st2 = S.TimeStepper(half, grid2, coeffs, 1.0, 0.0, 0.2, 32)
        assert _is_m_matrix(st2, 0.1)

    def test_2d_constant_and_nonneg(self, half):
        bcn = S.BoundaryCondition.neumann_zero()
        g2 = S.SpatialGrid(extents=((0.0, 1.0), (0.0, 1.0)),
                           n_cells=(10, 10), boundary=((bcn, bcn),) * 2)
        coeffs = S.CoefficientField.constant([[1.0, 0.2], [0.2, 1.5]])
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
        cb = S.CoefficientField.checkerboard(0.5, 2.0, 0.25, dim=1)
        grid = dirichlet_grid(40)
        u0 = np.maximum(np.sin(2 * np.pi * grid.axis_centers(0)), 0.0)
        fld = S.solve(half, grid, cb, u0, 0.0, 0.2, 40)
        assert float(np.min(fld.values)) >= -1e-12
        assert not cb.validate_bounds(grid, [0.0, 0.1])

    def test_coefficient_bound_probes_catch_lies(self):
        field = S.CoefficientField(fn=lambda t, x: np.array([[2.0]]),
                                   lam=1.0, nu=0.5)
        problems = field.validate_bounds(dirichlet_grid(8), [0.0])
        assert problems


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
            coeffs = S.CoefficientField.constant([[1.0, 0.2], [0.2, 0.8]])
        u0 = np.maximum(np.random.default_rng(4).normal(size=grid.shape), 0.0)
        fld = S.solve(spec, grid, coeffs, u0, f, 1.0, n_steps)
        ref = DirectHistoryStepper(spec, grid, coeffs, u0, f, 1.0, n_steps)
        for _ in range(n_steps):
            ref.advance()
        scale = np.max(np.abs(ref.u))
        assert np.max(np.abs(fld.values - ref.u)) <= 1e-12 * scale


class TestAssembly:
    """The one sparse assembly and the factorisation kept across steps."""

    def test_callable_dirichlet_linear_field_2d(self, half):
        bc = S.BoundaryCondition.dirichlet(lambda t, x: x[0] + 2.0 * x[1])
        grid = S.SpatialGrid(extents=((0.0, 1.0), (0.0, 2.0)), n_cells=(12, 9),
                             boundary=((bc, bc),) * 2)
        coeffs = S.CoefficientField.constant([[1.0, 0.0], [0.0, 3.0]])
        fld = S.solve(half, grid, coeffs, lambda t, x: x[0] + 2.0 * x[1],
                      0.0, 0.5, 32)
        exact = grid.centers() @ np.array([1.0, 2.0])
        assert np.max(np.abs(fld.values - exact)) <= 1e-12

    def test_2d_with_neumann_y_walls_matches_1d(self, half):
        bcd = S.BoundaryCondition.dirichlet(0.5)
        bcn = S.BoundaryCondition.neumann_zero()
        line = S.SpatialGrid(extents=((0.0, 1.0),), n_cells=(20,),
                             boundary=((bcd, bcd),))
        sheet = S.SpatialGrid(extents=((0.0, 1.0), (0.0, 0.7)),
                              n_cells=(20, 6), boundary=((bcd, bcd), (bcn, bcn)))
        u0 = lambda t, x: np.sin(np.pi * x[0]) ** 2
        one = S.solve(half, line, S.CoefficientField.constant([[1.3]]),
                      u0, 0.2, 0.5, 48)
        two = S.solve(half, sheet,
                      S.CoefficientField.constant([[1.3, 0.0], [0.0, 0.4]]),
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
            return np.eye(dim)

        flagged = S.CoefficientField(fn=fn, lam=math.sqrt(dim), nu=1.0,
                                     time_dependent=True)
        u0 = np.random.default_rng(3).random(grid.shape)
        fld = S.solve(half, grid, flagged, u0, 0.0, 0.4, 24)
        assert sorted(set(calls)) == [m * fld.step for m in range(1, 25)]
        cached = S.solve(half, grid, S.CoefficientField.constant(np.eye(dim)),
                         u0, 0.0, 0.4, 24)
        assert np.array_equal(fld.values, cached.values)


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

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(S.SolverError):
            S.CoefficientField.constant([[1.0, 0.5], [0.0, 1.0]])
