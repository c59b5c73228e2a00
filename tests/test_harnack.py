import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from memkern.geometry import Cylinder, phi_bar
from memkern.measure import MeasureSpec
from memkern import harnack as H
from memkern import solver as S

IDENTITY = S.CoefficientField.constant(1.0)


def dirichlet_grid(n=64, value=0.0):
    bc = S.BoundaryCondition.dirichlet(value)
    return S.SpatialGrid(extents=((0.0, 1.0),), n_cells=(n,),
                         boundary=((bc, bc),))


def constant_field(grid, n_steps, step, value):
    vals = np.full((n_steps + 1,) + grid.shape, float(value))
    return S.SolutionField(grid=grid, step=step, values=vals, f_samples=None,
                           residuals=np.zeros(n_steps), wall_time=0.0)


class TestCriticalExponent:
    def test_examples(self):
        assert H.critical_exponent(0.5, 1) == pytest.approx(5.0 / 3.0)
        assert H.critical_exponent(1 - 1e-12, 1) == pytest.approx(3.0,
                                                                  rel=1e-9)
        assert H.critical_exponent(1 - 1e-12, 2) == pytest.approx(2.0,
                                                                  rel=1e-9)
        assert H.critical_exponent(1e-6, 3) == pytest.approx(1.0, abs=1e-5)

    @given(g=st.floats(0.05, 0.95), n=st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_monotone(self, g, n):
        eps = 0.02
        if g + eps < 1.0:
            assert H.critical_exponent(g + eps, n) > H.critical_exponent(g, n)
        if n > 1:
            assert H.critical_exponent(g, n) < H.critical_exponent(g, n - 1)
        assert H.critical_exponent(g, n) > 1.0

    def test_domain_errors(self):
        with pytest.raises(H.HarnackError):
            H.critical_exponent(1.0, 1)
        with pytest.raises(H.HarnackError):
            H.critical_exponent(0.5, 0)


@pytest.fixture(scope="module")
def geometry_half(half):
    height = 2.0 * phi_bar(half, 0.4)
    return {"t0": 0.0, "x0": 0.5, "r": 0.4, "delta": 0.5, "tau": 1.0,
            "height": height}


class TestWeakHarnackRatio:

    def test_constant_field_ratio_exactly_one(self, half, geometry_half):
        g = dirichlet_grid(64)
        fld = constant_field(g, 128, geometry_half["height"] / 128, 3.2)
        rep = H.weak_harnack_ratio(fld, half, t0=0.0, x0=0.5, r=0.4,
                                   delta=0.5, tau=1.0, p=1.0)
        assert rep.ratio == 1.0 and rep.status == "ok"

    def test_scale_invariance(self, half, geometry_half):
        g = dirichlet_grid(64)
        step = geometry_half["height"] / 128
        rng = np.random.default_rng(2)
        base_vals = np.abs(rng.normal(size=(129, 64))) + 0.1
        f1 = S.SolutionField(grid=g, step=step, values=base_vals,
                             f_samples=None, residuals=np.zeros(128),
                             wall_time=0.0)
        f2 = S.SolutionField(grid=g, step=step, values=17.0 * base_vals,
                             f_samples=None, residuals=np.zeros(128),
                             wall_time=0.0)
        kw = dict(t0=0.0, x0=0.5, r=0.4, delta=0.5, tau=1.0, p=1.0)
        r1 = H.weak_harnack_ratio(f1, half, **kw)
        r2 = H.weak_harnack_ratio(f2, half, **kw)
        assert r1.ratio == pytest.approx(r2.ratio, rel=1e-12)

    def test_mean_monotone_in_p(self, half, geometry_half):
        g = dirichlet_grid(64)
        step = geometry_half["height"] / 128
        rng = np.random.default_rng(4)
        vals = np.abs(rng.normal(size=(129, 64))) + 0.05
        fld = S.SolutionField(grid=g, step=step, values=vals, f_samples=None,
                              residuals=np.zeros(128), wall_time=0.0)
        means = [H.weak_harnack_ratio(fld, half, t0=0.0, x0=0.5, r=0.4,
                                      delta=0.5, tau=1.0, p=p).mean_p
                 for p in (0.5, 1.0, 1.5)]
        assert means[0] <= means[1] <= means[2]

    def test_degenerate_zero_field(self, half, geometry_half):
        g = dirichlet_grid(64)
        fld = constant_field(g, 128, geometry_half["height"] / 128, 0.0)
        rep = H.weak_harnack_ratio(fld, half, t0=0.0, x0=0.5, r=0.4,
                                   delta=0.5, tau=1.0, p=1.0)
        assert rep.status == "degenerate"

    def _cylinder_field(self, half, geometry_half, minus, rest):
        # ``minus`` on the cells of Q-, ``rest`` everywhere else
        g = dirichlet_grid(64)
        fld = constant_field(g, 128, geometry_half["height"] / 128, rest)
        early, late = H._harnack_masks(fld, half, 0.0, 0.5, 0.4, 0.5, 1.0)
        assert not np.intersect1d(early, late).size
        fld.values.reshape(-1)[early] = minus
        return fld

    def test_zero_late_infimum_is_unbounded(self, half, geometry_half):
        fld = self._cylinder_field(half, geometry_half, 1.0, 0.0)
        rep = H.weak_harnack_ratio(fld, half, t0=0.0, x0=0.5, r=0.4,
                                   delta=0.5, tau=1.0, p=1.0)
        assert (rep.status, rep.ratio) == ("unbounded", None)
        assert rep.mean_p == 1.0 and rep.inf_plus == 0.0

    def test_negative_field_on_cylinder_rejected(self, half, geometry_half):
        kw = dict(t0=0.0, x0=0.5, r=0.4, delta=0.5, tau=1.0, p=1.0)
        clipped = self._cylinder_field(half, geometry_half, -0.5e-9, 1.0)
        assert H.weak_harnack_ratio(clipped, half, **kw).mean_p == 0.0
        fld = self._cylinder_field(half, geometry_half, -2e-9, 1.0)
        with pytest.raises(H.HarnackError, match="negative on the working"):
            H.weak_harnack_ratio(fld, half, **kw)

    def test_too_coarse_grid_errors(self, half):
        g = dirichlet_grid(4)
        fld = constant_field(g, 16, 2.0 * phi_bar(half, 0.4) / 16, 1.0)
        with pytest.raises(H.HarnackError):
            H.weak_harnack_ratio(fld, half, t0=0.0, x0=0.5, r=0.4,
                                 delta=0.05, tau=1.0, p=1.0)

    def test_p_beyond_critical_rejected(self, half, geometry_half):
        g = dirichlet_grid(64)
        fld = constant_field(g, 128, geometry_half["height"] / 128, 1.0)
        with pytest.raises(H.HarnackError):
            H.weak_harnack_ratio(fld, half, t0=0.0, x0=0.5, r=0.4,
                                 delta=0.5, tau=1.0, p=5.0)

    def test_forcing_correction_enters(self, half, geometry_half):
        g = dirichlet_grid(64)
        step = geometry_half["height"] / 128
        vals = np.full((129, 64), 2.0)
        f_samples = np.full((129, 64), -0.5)  # f^- = 0.5
        fld = S.SolutionField(grid=g, step=step, values=vals,
                              f_samples=f_samples,
                              residuals=np.zeros(128), wall_time=0.0)
        rep = H.weak_harnack_ratio(fld, half, t0=0.0, x0=0.5, r=0.4,
                                   delta=0.5, tau=1.0, p=1.0)
        assert rep.correction == pytest.approx(0.4**2 * 0.5)
        assert rep.ratio == pytest.approx(2.0 / (2.0 + 0.08))


class TestGather:
    """The flat gathers of ``_cylinder_masks`` against a boolean selection
    of the same samples, element for element and in order."""

    @staticmethod
    def selected(field, cyl, anchor=None):
        """The documented rule written out: open edges, times in steps and
        distances in radii, each moved onto an integer within 1e-9 of it;
        rows floor(start) < m < ceil(end), cells |x - x0| / radius < 1."""
        def snap(x):
            near = np.round(x)
            return np.where(np.abs(x - near) <= 1e-9, near, x)

        start = int(np.floor(snap(cyl.t_start / field.step)))
        end = int(np.ceil(snap(cyl.t_end / field.step)))
        t_mask = np.zeros(field.values.shape[0], dtype=bool)
        t_mask[max(start + 1, 0):max(end, 0)] = True
        if anchor is not None:
            t_mask[anchor] = True
        dist = np.linalg.norm(field.grid.centers() - np.asarray(cyl.center),
                              axis=-1)
        return field.values[t_mask][:, snap(dist / cyl.radius) < 1].ravel()

    @staticmethod
    def field(shape, n_steps=96, step=0.5 / 96):
        bc = S.BoundaryCondition.dirichlet(0.0)
        grid = S.SpatialGrid(extents=((0.0, 1.0),) * len(shape),
                             n_cells=shape, boundary=((bc, bc),) * len(shape))
        values = np.random.default_rng(7).random((n_steps + 1,) + shape)
        return S.SolutionField(grid=grid, step=step, values=values,
                               f_samples=None, residuals=np.zeros(n_steps),
                               wall_time=0.0)

    @pytest.mark.parametrize("shape", [(64,), (16, 16)], ids=["1d", "2d"])
    def test_harnack_pair(self, half, shape):
        from memkern.geometry import build_cylinders

        fld = self.field(shape, step=2.0 * phi_bar(half, 0.4) / 96)
        gathers = H._harnack_masks(fld, half, 0.0, 0.5, 0.4, 0.5, 1.0)
        cylinders = build_cylinders(half, 0.0, np.full(len(shape), 0.5), 0.4,
                                    0.5, 1.0)
        for idx, cyl in zip(gathers, cylinders, strict=True):
            expected = self.selected(fld, cyl)
            assert expected.size >= 8
            assert np.array_equal(fld.values.take(idx), expected)

    @pytest.mark.parametrize("shape", [(64,), (16, 16)], ids=["1d", "2d"])
    def test_oscillation_levels_with_anchor(self, half, shape, monkeypatch):
        fld = self.field(shape)
        seen, gather = [], H._cylinder_masks

        def recorded(field, cyl, anchor=-1):
            seen.append((cyl, anchor))
            return gather(field, cyl, anchor)

        monkeypatch.setattr(H, "_cylinder_masks", recorded)
        prof = H.oscillation_profile(fld, half, t1=0.3, x1=0.5, theta=1.0,
                                     levels=[0, 1, 2, 3, 4, 5], r=0.3)
        assert len(seen) == 6 and len(prof.levels) >= 3
        kept = []
        for cyl, anchor in seen:
            assert anchor == int(0.3 / fld.step + 1e-12)
            expected = self.selected(fld, cyl, anchor)
            assert np.array_equal(fld.values.take(gather(fld, cyl, anchor)),
                                  expected)
            if expected.size >= 2:  # the levels the profile keeps
                kept.append(expected.max() - expected.min())
        assert prof.osc == tuple(kept)

    @pytest.mark.parametrize("shape", [(64,), (16, 16)], ids=["1d", "2d"])
    @pytest.mark.parametrize("cyl", [Cylinder(5.0, 6.0, (0.5, 0.5), 0.3),
                                     Cylinder(0.1, 0.2, (0.5, 0.5), 1e-3)],
                             ids=["after-the-horizon", "between-centres"])
    def test_empty_cylinder(self, shape, cyl):
        fld = self.field(shape)
        cyl = Cylinder(cyl.t_start, cyl.t_end, cyl.center[:len(shape)],
                       cyl.radius)
        samples = fld.values.take(H._cylinder_masks(fld, cyl))
        assert samples.shape == self.selected(fld, cyl).shape == (0,)
        assert samples.dtype == fld.values.dtype


class TestExactRescaling:
    """For a single order the discrete problem is self-similar under
    x -> lambda x with the steps scaled by Phi, so a constant measured on
    cylinders of radius r must not depend on r."""

    RADII = (0.01, 0.05, 0.2, 0.8, 3.0)

    @staticmethod
    def run(spec, x0, half_width, n_cells, n_steps, horizon, data):
        """Trajectory on x0 +- half_width, Dirichlet 0, with the data given
        on the domain's unit coordinate."""
        bc = S.BoundaryCondition.dirichlet(0.0)
        grid = S.SpatialGrid(extents=((x0 - half_width, x0 + half_width),),
                             n_cells=(n_cells,), boundary=((bc, bc),))
        y = (grid.axis_centers(0) - x0 + half_width) / (2.0 * half_width)
        return S.solve(spec, grid, IDENTITY, data(y), 0.0, horizon, n_steps)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    def test_ratio_and_kappa_do_not_depend_on_r(self, alpha):
        spec = MeasureSpec.single_order(alpha)
        profile = H.random_fourier_profile(np.random.default_rng(1))
        ratios, kappas = [], []
        for r in self.RADII:
            fld = self.run(spec, 0.5, 8.0 * r, 512, 192,
                           2.0 * phi_bar(spec, r), profile)
            ratios.append(H.weak_harnack_ratio(
                fld, spec, t0=0.0, x0=0.5, r=r, delta=0.5, tau=1.0,
                p=1.0).ratio)
            eta = 0.25
            fld = self.run(spec, 0.4, 2.0 * r, 256, 256,
                           2.0 * eta * phi_bar(spec, r),
                           lambda y: np.sin(np.pi * y))
            kappas.append(H.oscillation_profile(
                fld, spec, t1=1.5 * eta * phi_bar(spec, r), x1=0.4,
                theta=1.0, levels=[0, 1, 2, 3, 4], r=r).kappa)
        for values in (ratios, kappas):
            assert np.ptp(values) <= 1e-12 * min(values), values

    @pytest.mark.parametrize("shape", [(64,), (16, 16)], ids=["1d", "2d"])
    def test_node_on_an_edge_stays_out_one_ulp_either_way(self, shape):
        # rows 10 and 48 lie on the time edges, and the cells at distance
        # 5 cell widths (3-4-5 in 2d) on the ball's edge
        fld = TestGather.field(shape, step=0.3 / 96)
        h = 1.0 / shape[0]
        center = np.full(len(shape), (shape[0] // 2 - 0.5) * h)  # of a cell
        edges = (10 * fld.step, 48 * fld.step, 5.0 * h)
        exact = H._cylinder_masks(fld, Cylinder(*edges[:2], center,
                                                edges[2]))
        rows = exact // fld.grid.n_total
        assert np.array_equal(np.unique(rows), np.arange(11, 48))
        dist = np.linalg.norm(fld.grid.centers() - center, axis=-1).ravel()
        assert set(exact % fld.grid.n_total) == set(
            np.flatnonzero(dist < 4.999 * h))
        for way in (-np.inf, np.inf):
            for moved in range(3):
                shifted = list(edges)
                shifted[moved] = np.nextafter(edges[moved], way)
                assert np.array_equal(H._cylinder_masks(fld, Cylinder(
                    *shifted[:2], center, shifted[2])), exact)


class TestEnsemble:
    def test_small_ensemble_finite(self, half):
        rep = H.harnack_ensemble(half, dirichlet_grid(48), IDENTITY,
                                 n_members=5, seed=3, n_steps=96, r=0.4,
                                 x0=0.5)
        assert rep.all_finite
        assert rep.max_ratio >= rep.median_ratio > 0.0

    def test_seed_reproducible(self, half):
        a = H.harnack_ensemble(half, dirichlet_grid(32), IDENTITY,
                               n_members=3, seed=9, n_steps=64, r=0.4, x0=0.5)
        b = H.harnack_ensemble(half, dirichlet_grid(32), IDENTITY,
                               n_members=3, seed=9, n_steps=64, r=0.4, x0=0.5)
        assert a.ratios == b.ratios


class TestConfigSetup:
    """The ensemble runs on the grid and coefficients it is given."""

    def test_nan_boundary_data_is_never_graded(self, half):
        # a NaN Dirichlet value used to give NaN ratios with all_finite true
        with pytest.raises(S.SolverError, match="not finite"):
            H.harnack_ensemble(half, dirichlet_grid(32, value=np.nan),
                               IDENTITY, n_members=2, seed=5, n_steps=32,
                               r=0.4, x0=0.5)

    def test_checkerboard_changes_ratios(self, half):
        grid = dirichlet_grid(64)
        checker = S.CoefficientField.checkerboard(0.1, 10.0, 0.1)
        kw = dict(n_members=5, seed=7, n_steps=96, r=0.4, x0=0.5)
        plain = H.harnack_ensemble(half, grid, IDENTITY, **kw)
        rough = H.harnack_ensemble(half, grid, checker, **kw)
        assert rough.all_finite and rough.lu_factorisations == 1
        assert all(a != b for a, b in zip(plain.ratios, rough.ratios))

    def test_ensemble_reports_the_shared_systems_bounds(self, half):
        checker = S.CoefficientField.checkerboard(10.0, 0.1, 0.1)
        rep = H.harnack_ensemble(half, dirichlet_grid(32), checker,
                                 n_members=3, seed=7, n_steps=64, r=0.4,
                                 x0=0.5)
        assert rep.lu_factorisations == 1
        assert rep.coefficient_bounds == (0.1, 10.0)

    def test_ensemble_wall_time_sums_the_members(self, half, monkeypatch):
        fields = []

        def capture(*args, **kwargs):
            fields.append(S.solve(*args, **kwargs))
            return fields[-1]

        monkeypatch.setattr(H, "solve", capture)
        rep = H.harnack_ensemble(half, dirichlet_grid(32), IDENTITY,
                                 n_members=3, seed=7, n_steps=64, r=0.4,
                                 x0=0.5)
        assert len(fields) == 3
        assert rep.wall_time == sum(fld.wall_time for fld in fields) > 0.0

    def test_2d_grid_runs_in_2d(self, half, monkeypatch):
        bc = S.BoundaryCondition.dirichlet(0.0)
        grid = S.SpatialGrid(extents=((0.0, 1.0),) * 2, n_cells=(16, 16),
                             boundary=((bc, bc),) * 2)
        shapes = []
        real_solve = H.solve

        def capture(*args, **kwargs):
            fld = real_solve(*args, **kwargs)
            shapes.append(fld.values.shape[1:])
            return fld

        monkeypatch.setattr(H, "solve", capture)
        rep = H.harnack_ensemble(half, grid, S.CoefficientField.constant(1.0),
                                 n_members=2, seed=7, n_steps=48, r=0.4,
                                 x0=0.5)
        assert shapes == [(16, 16)] * 2
        assert rep.n_cells == grid.n_total == 256 and rep.all_finite

    def test_member_data_is_the_profile_times_sin_y(self):
        bc = S.BoundaryCondition.dirichlet(0.0)
        line = dirichlet_grid(24)
        square = S.SpatialGrid(extents=((0.0, 1.0), (0.0, 2.0)),
                               n_cells=(24, 10), boundary=((bc, bc),) * 2)
        rng = np.random.default_rng(np.random.SeedSequence([3, 4]))
        along = H.random_fourier_profile(rng)(line.axis_centers(0))
        assert np.array_equal(H.member_data(line, 3, 4), along)
        y = square.axis_centers(1)
        assert np.array_equal(H.member_data(square, 3, 4),
                              np.outer(along, np.sin(np.pi * y / 2.0)))

    def test_gridless_ensemble_rejected(self, half):
        with pytest.raises(H.HarnackError):
            H.harnack_ensemble(half, S.SpatialGrid(), IDENTITY, n_members=1,
                               seed=0, n_steps=16, r=0.4, x0=0.5)

    def test_memberless_ensemble_rejected(self, half):
        # no member, no max_ratio: refused rather than reported as NaN
        with pytest.raises(H.HarnackError, match="at least one member"):
            H.harnack_ensemble(half, dirichlet_grid(16), IDENTITY,
                               n_members=0, seed=0, n_steps=16, r=0.4, x0=0.5)

    @pytest.mark.parametrize("call, value, named", [
        ("levels", [1, 2.7, 3, 4], 2.7), ("levels", [1.5, 2, 3, 4], 1.5),
        ("levels", [True, 2, 3, 4], True), ("n_members", True, True),
        ("n_members", 2.0, 2.0), ("seed", True, True), ("seed", 1.0, 1.0)])
    def test_counts_must_be_integers(self, half, call, value, named):
        # these ran as levels (1, 2, 3, 4), one member or seed 1, or raised
        # a bare TypeError; numpy integers pass, bools do not
        if call == "levels":
            horizon = 0.5 * phi_bar(half, 0.2)
            fld = constant_field(dirichlet_grid(64), 64, horizon / 64, 1.0)
            run = lambda levels: H.oscillation_profile(
                fld, half, t1=0.9 * horizon, x1=0.4, theta=1.0,
                levels=levels, r=0.2)
            assert run(np.arange(1, 5)).flat
        else:
            kw = dict(n_members=1, seed=0)
            run = lambda v: H.harnack_ensemble(
                half, dirichlet_grid(16), IDENTITY, n_steps=16, r=0.4,
                x0=0.5, **{**kw, call: v})
            assert run(np.int64(1)).all_finite
        with pytest.raises(H.HarnackError, match=re.escape(repr(named))):
            run(value)


class TestSharedFactors:
    """The members of an ensemble share one factorised step system, and
    nothing of it outlives the ensemble."""

    def test_one_factorisation_same_ratios(self, half, monkeypatch):
        # one set of history weights and one factorisation per ensemble, on
        # a line (L D L^T) and on a square (sparse LU), with the
        # ratios, worst step residual and coefficient bounds of the members
        # solved one by one outside any shared scope; 130 steps reach two
        # far-field block starts
        from scipy.linalg import lapack
        from scipy.sparse import linalg as sparse_linalg

        calls = {"lu": 0, "weights": 0}
        real_weights = S._history_setup

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(lapack, "dpttrf", counted("lu", lapack.dpttrf))
        monkeypatch.setattr(sparse_linalg, "splu",
                            counted("lu", sparse_linalg.splu))
        monkeypatch.setattr(S, "_history_setup",
                            counted("weights", real_weights))
        bc = S.BoundaryCondition.dirichlet(0.0)
        square = S.SpatialGrid(extents=((0.0, 1.0),) * 2, n_cells=(12, 12),
                               boundary=((bc, bc),) * 2)
        height = 2.0 * phi_bar(half, 0.4)
        for grid in (dirichlet_grid(32), square):
            calls.update(lu=0, weights=0)
            rep = H.harnack_ensemble(half, grid, IDENTITY, n_members=4,
                                     seed=5, n_steps=130, r=0.4, x0=0.5)
            assert calls == {"lu": 1, "weights": 1}
            assert rep.lu_factorisations == 1
            assert S._shared.get() is None
            assert rep.max_step_residual <= 1e-10
            ratios, worst = [], 0.0
            for member in range(4):
                fld = S.solve(half, grid, IDENTITY,
                              H.member_data(grid, 5, member), 0.0, height,
                              130)
                assert fld.lu_factorisations == 1
                assert fld.coefficient_bounds == rep.coefficient_bounds
                worst = max(worst, fld.max_step_residual)
                ratios.append(H.weak_harnack_ratio(
                    fld, half, t0=0.0, x0=0.5, r=0.4, delta=0.5, tau=1.0,
                    p=1.0).ratio)
            assert calls == {"lu": 5, "weights": 5}
            assert rep.ratios == tuple(ratios)
            assert rep.max_step_residual == worst

    def test_grid_given_as_lists(self, half):
        # extents, n_cells and boundary given as lists are kept as tuples:
        # the grid is hashed into the shared set-ups' keys, and a list of
        # cells failed to extend the trajectory's shape
        bc = S.BoundaryCondition.dirichlet(0.0)
        listed = S.SpatialGrid(extents=[[0.0, 1.0]], n_cells=[32],
                               boundary=[[bc, bc]])
        grid = dirichlet_grid(32)
        assert listed == grid and hash(listed) == hash(grid)
        u0 = H.member_data(grid, 5, 0)
        fields = [S.solve(half, g, IDENTITY, u0, 0.0, 1.0, 32)
                  for g in (listed, grid)]
        assert np.array_equal(fields[0].values, fields[1].values)
        reports = [H.harnack_ensemble(half, g, IDENTITY, n_members=3, seed=5,
                                      n_steps=32, r=0.4, x0=0.5)
                   for g in (listed, grid)]
        assert reports[0].ratios == reports[1].ratios

    def test_cylinders_built_once_per_ensemble(self, half, monkeypatch):
        # phi once for the ensemble's horizon and once for its cylinders;
        # solve and weak_harnack_ratio still run once per member
        from memkern import geometry as G

        calls = {"phi": 0, "ratio": 0}
        phi, ratio = G.phi, H.weak_harnack_ratio

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(G, "phi", counted("phi", phi))
        monkeypatch.setattr(H, "weak_harnack_ratio",
                            counted("ratio", ratio))
        H.harnack_ensemble(half, dirichlet_grid(32), IDENTITY, n_members=5,
                           seed=5, n_steps=32, r=0.4, x0=0.5)
        assert calls == {"phi": 2, "ratio": 5}

    def test_cylinders_shared_only_for_one_layout_and_point(self, half):
        # fields of equal values shape, step and grid extents share one pair
        # of read-only index arrays for one point x0, however it is given;
        # another values shape, step, grid or x0 has its own, and every
        # ratio is the one computed outside the scope
        def field(n_cells=64, n_steps=96, step_scale=1.0, lo=0.0, seed=0):
            bc = S.BoundaryCondition.dirichlet(0.0)
            grid = S.SpatialGrid(extents=((lo, 1.0),), n_cells=(n_cells,),
                                 boundary=((bc, bc),))
            values = np.random.default_rng(seed).random(
                (n_steps + 1, n_cells)) + 0.5
            return S.SolutionField(
                grid=grid, step=step_scale * 2.0 * phi_bar(half, 0.4) / 96,
                values=values, f_samples=None, residuals=np.zeros(n_steps),
                wall_time=0.0)

        runs = [(field(), 0.5), (field(seed=1), np.array([0.5])),
                (field(n_cells=48), 0.5), (field(n_steps=128), 0.5),
                (field(step_scale=0.9), 0.5), (field(lo=-0.25), 0.5),
                (field(), (0.55,))]
        kw = dict(t0=0.0, r=0.4, delta=0.5, tau=1.0)
        with S._shared_systems():
            masks = [H._harnack_masks(fld, half, x0=x0, **kw)
                     for fld, x0 in runs]
            ratios = [H.weak_harnack_ratio(fld, half, x0=x0, p=1.0,
                                           **kw).ratio for fld, x0 in runs]
        for part in (0, 1):
            first, again, *others = (pair[part] for pair in masks)
            assert again is first and not first.flags.writeable
            assert len({id(first), *map(id, others)}) == len(runs) - 1
        for (fld, x0), ratio in zip(runs, ratios):
            assert ratio == H.weak_harnack_ratio(fld, half, x0=x0, p=1.0,
                                                 **kw).ratio

    def test_table_changed_after_ensemble_is_read_afresh(self, half):
        H.harnack_ensemble(half, dirichlet_grid(32), IDENTITY,
                           n_members=2, seed=5, n_steps=32,
                           r=0.4, x0=0.5)
        grid = dirichlet_grid(32)
        u0 = np.sin(np.pi * grid.axis_centers(0))
        table = np.ones(32)
        coeffs = S.CoefficientField.from_table(table, grid)
        first = S.solve(half, grid, coeffs, u0, 0.0, 0.5, 32)
        table[:16] = 3.0
        second = S.solve(half, grid, coeffs, u0, 0.0, 0.5, 32)
        for values, fld in ((np.ones(32), first), (table.copy(), second)):
            fresh = S.solve(half, grid,
                            S.CoefficientField.from_table(values, grid),
                            u0, 0.0, 0.5, 32)
            assert np.array_equal(fld.values, fresh.values)
        assert not np.array_equal(first.values, second.values)


class TestOscillation:
    def test_linear_profile_exponent_one(self, half):
        bc = S.BoundaryCondition.dirichlet(lambda t, x: x[..., 0])
        grid = S.SpatialGrid(extents=((0.0, 1.0),), n_cells=(256,),
                             boundary=((bc, bc),))
        x = grid.axis_centers(0)
        horizon = 0.5 * phi_bar(half, 0.2)
        fld = S.solve(half, grid, IDENTITY, x.copy(), 0.0, horizon, 256)
        prof = H.oscillation_profile(fld, half, t1=0.9 * horizon, x1=0.4,
                                     theta=1.0, levels=[1, 2, 3, 4], r=0.2)
        assert prof.kappa == pytest.approx(1.0, abs=0.05)

    def test_smooth_solution_positive_exponent(self, half):
        grid = dirichlet_grid(256)
        x = grid.axis_centers(0)
        eta, r = 0.25, 0.2
        horizon = 2 * eta * phi_bar(half, r)
        fld = S.solve(half, grid, IDENTITY, np.sin(np.pi * x), 0.0,
                      horizon, 256)
        prof = H.oscillation_profile(fld, half, t1=1.5 * eta * phi_bar(half, r),
                                     x1=0.4, theta=1.0,
                                     levels=[0, 1, 2, 3, 4], r=r)
        assert prof.status == "ok"
        assert prof.kappa > 0.0
        assert prof.fit_residual <= 0.2
        assert all(o2 <= o1 + 1e-15 for o1, o2 in zip(prof.osc, prof.osc[1:]))

    def test_constant_reports_flat(self, half):
        grid = dirichlet_grid(256)
        horizon = 0.5 * phi_bar(half, 0.2)
        fld = constant_field(grid, 128, horizon / 128, 4.2)
        prof = H.oscillation_profile(fld, half, t1=0.9 * horizon, x1=0.4,
                                     theta=1.0, levels=[1, 2, 3, 4], r=0.2)
        assert prof.flat and prof.kappa is None

    def test_too_few_levels_errors(self, half):
        grid = dirichlet_grid(64)
        horizon = 0.5 * phi_bar(half, 0.2)
        fld = constant_field(grid, 64, horizon / 64, 1.0)
        with pytest.raises(H.HarnackError):
            H.oscillation_profile(fld, half, t1=0.9 * horizon, x1=0.4,
                                  theta=1.0, levels=[1, 2], r=0.2)


    @pytest.mark.parametrize("shape", [(64,), (16, 16)], ids=["1d", "2d"])
    def test_level_shallower_than_a_step_reads_its_anchor_slice(
            self, half, shape, monkeypatch):
        bc = S.BoundaryCondition.dirichlet(0.0)
        grid = S.SpatialGrid(extents=((0.0, 1.0),) * len(shape),
                             n_cells=shape, boundary=((bc, bc),) * len(shape))
        values = np.random.default_rng(3).random((9,) + shape)
        fld = S.SolutionField(grid=grid, step=0.05 / 8, values=values,
                              f_samples=None, residuals=np.zeros(8),
                              wall_time=0.0)
        samples, cells = [], H._cylinder_masks
        monkeypatch.setattr(H, "_cylinder_masks", lambda f, *args: (
            samples.append(f.values.take(idx := cells(f, *args))) or idx))
        prof = H.oscillation_profile(fld, half, t1=0.045, x1=0.5, theta=1.0,
                                     levels=[0, 1, 2], r=0.2)
        assert prof.levels == (0, 1, 2) and len(samples) == 3
        dist = np.linalg.norm(grid.centers().reshape(-1, len(shape)) - 0.5,
                              axis=1)
        # level 0 reaches back over several slices; anchor slice 7
        assert samples[0].size > np.count_nonzero(dist < 0.2)
        for rho, u, osc in zip(prof.radii[1:], samples[1:], prof.osc[1:]):
            assert phi_bar(half, rho) < fld.step
            in_ball = dist < rho
            assert u.size == np.count_nonzero(in_ball)
            assert np.array_equal(u, values[7].reshape(-1)[in_ball])
            assert osc == u.max() - u.min()

    def test_repeated_levels_error(self, half):
        grid = dirichlet_grid(256)
        horizon = 0.5 * phi_bar(half, 0.2)
        fld = constant_field(grid, 128, horizon / 128, 1.0)
        with pytest.raises(H.HarnackError, match="repeat"):
            H.oscillation_profile(fld, half, t1=0.9 * horizon, x1=0.4,
                                  theta=1.0, levels=[1, 1, 1], r=0.2)


class TestPointOnEveryAxis:
    """A centre given as one number stands for it on every axis."""

    def test_holder_levels_inside_on_the_second_axis(self, half):
        bc = S.BoundaryCondition.dirichlet(0.0)
        grid = S.SpatialGrid(extents=((0.0, 1.0), (0.0, 0.5)),
                             n_cells=(64, 32), boundary=((bc, bc),) * 2)
        horizon = 1.5 * phi_bar(half, 0.4)  # level 0 fits in time
        fld = constant_field(grid, 64, horizon / 64, 1.0)
        prof = H.oscillation_profile(fld, half, t1=0.9 * horizon, x1=0.4,
                                     theta=1.0, levels=[0, 1, 2, 3], r=0.2)
        # the level-0 ball B(0.4, 0.2) leaves (0, 0.5) along y only
        assert prof.levels == (1, 2, 3)

    def test_scalar_and_tuple_centre_agree_in_2d(self, half):
        bc = S.BoundaryCondition.dirichlet(0.0)
        grid = S.SpatialGrid(extents=((0.0, 1.0),) * 2, n_cells=(16, 16),
                             boundary=((bc, bc),) * 2)
        fld = S.solve(half, grid, S.CoefficientField.constant(1.0),
                      H.member_data(grid, 7, 0), 0.0,
                      2.0 * phi_bar(half, 0.4), 48)
        kw = dict(t0=0.0, r=0.4, delta=0.5, tau=1.0, p=1.0)
        scalar = H.weak_harnack_ratio(fld, half, x0=0.5, **kw)
        pair = H.weak_harnack_ratio(fld, half, x0=(0.5, 0.5), **kw)
        assert scalar == pair
        with pytest.raises(H.HarnackError):
            H.weak_harnack_ratio(fld, half, x0=(0.5, 0.5, 0.5), **kw)


class TestStrongMax:
    def test_constant_scenario_consistent(self, half):
        # constant data with matching boundary stays at its maximum
        grid = dirichlet_grid(48, value=2.0)
        fld = S.solve(half, grid, IDENTITY, 2.0, 0.0, 0.05, 64)
        cyl = Cylinder(0.02, 0.04, (0.5,), 0.2)
        assert H.strong_max_check(fld, cyl) == "consistent"

    def test_decaying_scenario_not_applicable(self, half):
        grid = dirichlet_grid(64)
        x = grid.axis_centers(0)
        fld = S.solve(half, grid, IDENTITY, np.sin(np.pi * x), 0.0, 0.05, 64)
        cyl = Cylinder(0.02, 0.045, (0.5,), 0.2)
        assert H.strong_max_check(fld, cyl) == "not-applicable"

    def test_fabricated_violation_detected(self, half):
        grid = dirichlet_grid(32)
        vals = np.ones((65, 32))
        vals[3, 10] = 0.2          # non-flat early slice
        vals[40:, :] = 1.0         # late cylinder attains the sup
        fld = S.SolutionField(grid=grid, step=0.01, values=vals,
                              f_samples=None, residuals=np.zeros(64),
                              wall_time=0.0)
        cyl = Cylinder(0.5, 0.6, (0.5,), 0.3)
        assert H.strong_max_check(fld, cyl) == "violated"

    def test_empty_cylinder_errors(self, half):
        grid = dirichlet_grid(32)
        fld = constant_field(grid, 32, 0.01, 1.0)
        with pytest.raises(H.HarnackError):
            H.strong_max_check(fld, Cylinder(5.0, 6.0, (0.5,), 0.3))
