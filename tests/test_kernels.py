import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate, special
from scipy.special import rgamma

from memkern.measure import (MeasureSpec, MeasureError, alpha_power_moment,
                             mu_integral, power_moment, sin_cos_moments)
from memkern import cli
from memkern import geometry as G
from memkern import kernels as K
from memkern import volterra as V
from memkern.config import parse_config
from memkern.solver import mittag_leffler

SQRT_PI = math.sqrt(math.pi)


class TestPointwiseKernels:
    def test_k_half_closed_form(self, half):
        assert K.k_eval(half, 1.0) == pytest.approx(1 / SQRT_PI, rel=1e-12)
        assert K.k_eval(half, 4.0) == pytest.approx(0.5 / SQRT_PI, rel=1e-12)

    def test_k_at_one_matches_mu_integral(self, measures):
        for spec in measures.values():
            direct = mu_integral(spec, lambda a: float(rgamma(1.0 - a)))
            assert K.k_eval(spec, 1.0) == pytest.approx(direct, rel=1e-9)

    def test_k_requires_positive_time(self, half):
        with pytest.raises(MeasureError):
            K.k_eval(half, 0.0)

    def test_k_family_rejects_nonfinite_time(self, measures):
        # a NaN time used to give 0 for the running integrals
        def one_star_one_star_k(spec, t):
            return K._k_moments(spec, t, (2,))[0]

        for f in (K.k_eval, K.one_star_k_eval, one_star_one_star_k):
            for bad in (math.nan, math.inf):
                with pytest.raises(MeasureError):
                    f(measures["two_atom"], np.array([0.5, bad]))

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    @pytest.mark.parametrize("entry", [
        K.k_eval, K.k1_eval, K.one_star_k_eval, K.l_eval, K.h_laplace_eval,
        power_moment, alpha_power_moment, sin_cos_moments],
        ids=lambda f: f.__name__)
    def test_time_rule(self, half, entry, t):
        # k1 of NaN was NaN and of inf 0, and H of NaN was 0
        for arg in (t, np.array([0.5, t])):
            with pytest.raises(MeasureError):
                entry(half, arg)

    FORMED = {
        "k_eval": K.k_eval, "k1_eval": K.k1_eval,
        "one_star_k_eval": K.one_star_k_eval, "l_eval": K.l_eval,
        "r_theta_eval": lambda spec, t: K.r_theta_eval(spec, t, 4.0),
        "resolvent_running_integral": K.resolvent_running_integral,
        "power_moment": power_moment, "alpha_power_moment": alpha_power_moment,
        "sin_cos_moments": sin_cos_moments, "h_laplace_eval": K.h_laplace_eval,
        "phi": G.phi, "phi_bar": G.phi_bar}

    @pytest.mark.parametrize("name", list(FORMED))
    def test_form_rule(self, half, name):
        # the result takes the form of the points (measure._as_time_array):
        # k_eval of [0.5, 1.0] was the float k(0.5), power_moment of it a
        # TypeError
        def parts(out):
            return out if isinstance(out, tuple) else (out,)

        f = self.FORMED[name]
        for points in ([0.5, 1.0], (0.5, 1.0), [[0.5, 1.0], [2.0, 0.25]]):
            for got, ref in zip(parts(f(half, points)),
                                parts(f(half, np.array(points)))):
                assert type(got) is np.ndarray
                assert got.shape == np.shape(points)
                assert np.array_equal(got, ref)
        for point in (0.5, np.float64(0.5)):
            for got, ref in zip(parts(f(half, point)),
                                parts(f(half, np.array([0.5])))):
                assert type(got) is float and got == ref[0]
        for got in parts(f(half, np.array(0.5))):
            assert type(got) is np.ndarray and got.shape == ()
        for got in parts(f(half, [])):
            assert type(got) is np.ndarray and got.shape == (0,)

    def test_k1_values(self, half):
        assert K.k1_eval(half, 4.0) == pytest.approx(0.5, rel=1e-14)
        spec = MeasureSpec.uniform_weight()
        assert K.k1_eval(spec, math.e) == pytest.approx(1 - math.exp(-1),
                                                        rel=1e-12)
        two = MeasureSpec.from_atoms([(0.2, 0.4), (0.9, 0.6)])
        assert K.k1_eval(two, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_one_star_k(self, half):
        assert K.one_star_k_eval(half, 0.0) == 0.0
        assert K.one_star_k_eval(half, 1.0) == pytest.approx(
            1 / math.gamma(1.5), rel=1e-12)
        assert K.one_star_k_eval(half, 4.0) == pytest.approx(
            2 / math.gamma(1.5), rel=1e-12)

    def test_one_star_k_is_integral_of_k(self, measures):
        spec = measures["two_atom"]
        t = 0.7
        val, _ = integrate.quad(lambda s: K.k_eval(spec, s), 0.0, t,
                                points=[0.0], limit=200)
        assert K.one_star_k_eval(spec, t) == pytest.approx(val, rel=1e-8)

    @pytest.mark.parametrize("spec", [
        MeasureSpec.uniform_weight(),
        MeasureSpec(weight_breaks=(0.17, 0.78), weight_values=(1.0,)),
        MeasureSpec(atoms=((0.4, 0.5),), weight_breaks=(0.2, 0.5, 0.9),
                    weight_values=(0.3, 0.7)),
    ], ids=["uniform", "band", "atom_two_pieces"])
    def test_k_moments_match_order_quadrature(self, spec):
        # (1^d * k)(t) = int t^(d-a) / Gamma(d+1-a) dmu over 13 decades
        t = np.logspace(-12, 1, 27)
        depths = (0, 1, 2, 3)
        got = K._k_moments(spec, t, depths)
        for d, row in zip(depths, got):
            for ti, value in zip(t, row):
                exact = sum(q * ti ** (d - a) * rgamma(d + 1.0 - a)
                            for a, q in spec.atoms)
                for lo, hi, w in spec.pieces():
                    exact += w * integrate.quad(
                        lambda a: ti ** (d - a) * rgamma(d + 1.0 - a),
                        lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                assert abs(value - exact) <= 1e-12 * exact, (d, ti)

    def test_k_moments_order_coefficients_against_mpmath(self):
        # at t = 1 a unit atom's moment is its coefficient 1/Gamma(d+1-a)
        # alone; depths 0-3 and the non-integer g of the first-cell weight.
        # The reference takes the argument as rounded in double: near
        # d + 1 - a = 0.06 its own rounding moves 1/Gamma by up to 1.1e-15
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 40
        depths = (0, 1, 2, 3, 0.05, 0.3, 0.5, 0.77, 0.95)
        orders = np.concatenate(([1e-9, 1e-3], np.linspace(0.005, 0.995, 199),
                                 [0.999, 1.0 - 1e-9]))
        worst = 0.0
        for a in orders:
            got = K._k_moments(MeasureSpec.single_order(a), 1.0, depths)
            for d, value in zip(depths, got):
                exact = mp.rgamma(mp.mpf(d + 1.0 - a))
                worst = max(worst, abs(float((value - exact) / exact)))
        assert worst <= 1e-15

    def test_gauss_panels_dyadic_edges_exact(self):
        # the inversion's panels [2^k, 2^(k+1)] are 2^(k-1) * (3 + x) exactly
        k = np.arange(-900, 641)
        nodes, weights = K._gauss_legendre(24)
        p, w = K._gauss_panels(np.ldexp(1.0, np.append(k, k[-1] + 1)), 24)
        assert np.array_equal(p, np.ldexp(3.0 + nodes, k[:, None] - 1))
        assert np.array_equal(w, np.ldexp(weights, k[:, None] - 1))


class TestLaplacePlane:
    def test_atom_theta_zero(self, half):
        h, s, c = K.h_laplace_eval(half, 1.0, 0.0)
        assert (h, s, c) == pytest.approx((1.0, 1.0, 0.0), abs=1e-14)

    def test_atom_theta_one(self, half):
        h, _, _ = K.h_laplace_eval(half, 1.0, 1.0)
        assert h == pytest.approx(0.5, rel=1e-14)

    def test_uniform_weight(self):
        h, s, c = K.h_laplace_eval(MeasureSpec.uniform_weight(), 1.0, 0.0)
        assert s == pytest.approx(2 / math.pi, rel=1e-12)
        assert c == pytest.approx(0.0, abs=1e-14)
        assert h == pytest.approx(math.pi / 2, rel=1e-12)

    def test_extreme_p_stays_finite(self, half):
        p = np.array([1e-280, 1e280])
        h, _, _ = K.h_laplace_eval(half, p, 0.5)
        assert np.all(np.isfinite(h)) and np.all(h >= 0.0)


class TestSoninePartnerEval:
    def test_single_order_closed_form(self, half):
        for t in [0.25, 1.0]:
            exact = t ** (-0.5) / SQRT_PI
            assert K.l_eval(half, t) == pytest.approx(exact, rel=1e-12)

    def test_closed_form_log_grid(self):
        for alpha in (0.3, 0.5, 0.8):
            spec = MeasureSpec.single_order(alpha)
            t = np.logspace(-2, 1, 20)
            got = np.asarray(K.l_eval(spec, t))
            exact = t ** (alpha - 1) / math.gamma(alpha)
            assert np.max(np.abs(got - exact) / exact) <= 1e-6

    def test_two_atom_matches_volterra_oracle(self, measures):
        # independent first-kind product-integration solve at N=8192
        spec = measures["two_atom"]
        oracle = V.sonine_partner(spec, 1.0 / 8192, 8192)
        idx = 4095  # t = 0.5
        t = oracle.times[idx]
        assert K.l_eval(spec, float(t)) == pytest.approx(
            float(oracle.values[idx]), rel=1e-4)

    def test_oracle_match_window(self, measures):
        # compare on t >= 10/2048 against the N=8192 oracle
        for name in ("d05", "two_atom", "uniform"):
            spec = measures[name]
            oracle = V.sonine_partner(spec, 1.0 / 8192, 8192)
            keep = oracle.times >= 10.0 / 2048 - 1e-12
            t = oracle.times[keep][::8]
            got = np.asarray(K.l_eval(spec, t))
            ref = oracle.values[keep][::8]
            assert np.max(np.abs(got - ref) / ref) <= 1e-3, name

    def test_upper_bound_everywhere(self, measures):
        t = np.logspace(-4, 0.5, 60)
        for spec in measures.values():
            l_vals = np.asarray(K.l_eval(spec, t))
            bound = 1.0 / (t * np.asarray(K.k1_eval(spec, t)))
            assert np.all(l_vals <= bound * (1 + 1e-12))

    def test_monotone_decreasing(self, measures):
        t = np.linspace(0.01, 2.0, 100)
        for spec in measures.values():
            vals = np.asarray(K.l_eval(spec, t))
            assert np.all(np.diff(vals) <= 1e-12)

    def test_weight_near_order_one_against_log_p_quadrature(self):
        # H ~ p^-0.97 near p = 0, so (1/pi) int_0^eps H dp ~ eps^0.03 / 0.03:
        # the reference integrates in x = log p from -4000 (one cut at -120
        # reads 9% low) in 20-digit mpmath, with S and C in closed form
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 20
        lo, hi = mp.mpf("0.97"), mp.mpf("0.995")
        spec = MeasureSpec(weight_breaks=(0.97, 0.995), weight_values=(1.0,))

        def reference(t):
            def integrand(x):
                s = c = 0
                for a, sign in ((hi, 1), (lo, -1)):
                    e = sign * mp.exp(a * x) / (x * x + mp.pi**2)
                    s += e * (x * mp.sinpi(a) - mp.pi * mp.cospi(a))
                    c += e * (x * mp.cospi(a) + mp.pi * mp.sinpi(a))
                return mp.exp(x - mp.exp(x) * t) * s / (s * s + c * c)

            cuts = [-4000, -2000, -1000, -500, -250, -120, -60, -30, -15,
                    -8, -4, -2, 0, 2, 4]
            end = mp.log(800 / mp.mpf(t))
            return float(mp.quad(integrand, [mp.mpf(x) for x in cuts
                                             if x < end] + [end]) / mp.pi)

        for t in (0.01, 30.0):
            assert K.l_eval(spec, t) == pytest.approx(reference(t), rel=1e-13)

    def test_batch_matches_scalar_calls(self, measures):
        # one node set serves the whole array; each scalar call gets its own
        t = np.geomspace(1e-6, 2.0, 64)
        for name, spec in measures.items():
            batch = np.asarray(K.l_eval(spec, t))
            single = np.array([K.l_eval(spec, float(ti)) for ti in t])
            assert np.max(np.abs(batch - single) / single) <= 1e-13, name
        # the inversion sorts the times into tiles, contracts each against
        # its band of nodes and folds the nodes on both sides in exactly;
        # the results must land back in input order, duplicates included
        rng = np.random.default_rng(11)
        base = np.geomspace(1e-12, 10.0, 41)
        t = rng.permutation(np.concatenate((base, base[::3], [10.0, 1e-12])))
        for name, spec in measures.items():
            batch = np.asarray(K.l_eval(spec, t))
            single = np.array([K.l_eval(spec, float(ti)) for ti in t])
            assert np.max(np.abs(batch - single) / single) <= 1e-13, name
            for theta in (0.0, 4.0):
                batch = K.resolvent_tables(spec, t, theta)
                single = np.array([K.resolvent_tables(spec, t[i:i + 1], theta)
                                   for i in range(t.size)])[..., 0].T
                for d in range(4):
                    rel = np.abs(batch[d] - single[d]) / single[d]
                    assert np.max(rel) <= 1e-13, (name, theta, d)

    def test_uniform_weight_closed_form(self, measures):
        # H_theta = pi/(p+1) for the unit weight on (0,1), so l = e^t E1(t);
        # below t = 2^-L the inversion must still reach p < 1
        spec = measures["uniform"]
        t = np.geomspace(1e-120, 10.0, 25)
        exact = np.exp(t) * special.exp1(t)
        single = np.array([K.l_eval(spec, float(ti)) for ti in t])
        assert np.max(np.abs(single - exact) / exact) <= 1e-13
        batch = np.asarray(K.l_eval(spec, t))
        assert np.max(np.abs(batch - exact) / exact) <= 1e-13

    def test_zero_mass_atoms_change_nothing(self, half):
        # the tails take their shifts from the orders that carry mass; the
        # empty atoms at 0.05 and 0.999 would set them and give NaN
        spec = MeasureSpec.from_atoms([(0.05, 0.0), (0.5, 1.0), (0.999, 0.0)])
        t = np.geomspace(1e-6, 2.0, 33)
        for got, ref in zip(K.resolvent_tables(spec, t),
                            K.resolvent_tables(half, t)):
            assert np.array_equal(got, ref)

    def test_empty_and_nonfinite_times(self, half):
        assert np.asarray(K.l_eval(half, np.array([]))).shape == (0,)
        for bad in (math.nan, math.inf):
            with pytest.raises(MeasureError):
                K.l_eval(half, np.array([0.5, bad]))


class TestResolventTables:
    @pytest.mark.parametrize("alpha", [0.3, 0.55, 0.8])
    def test_single_order_closed_forms(self, alpha):
        # (1^d * l)(t) = t^(a-1+d) / Gamma(a+d), one call over 11 decades
        spec = MeasureSpec.single_order(alpha)
        t = np.geomspace(1e-10, 3.0, 97)
        for d, got in enumerate(K.resolvent_tables(spec, t)):
            exact = t ** (alpha - 1 + d) / math.gamma(alpha + d)
            tol = 1e-12 if d < 2 else 1e-10
            assert np.max(np.abs(got - exact) / exact) <= tol, d

    def test_order_near_zero_closed_forms(self):
        # H ~ p^-0.05 at the right end: the running integrals owe most of
        # their value to the right tail beyond the node table
        alpha = 0.05
        spec = MeasureSpec.single_order(alpha)
        t = np.geomspace(1e-10, 3.0, 97)
        for d, got in enumerate(K.resolvent_tables(spec, t)):
            exact = t ** (alpha - 1 + d) / math.gamma(alpha + d)
            assert np.max(np.abs(got - exact) / exact) <= 1e-13, d

    @settings(max_examples=12, deadline=None)
    @given(alpha=st.floats(0.001, 0.999))
    @example(alpha=0.001)
    @example(alpha=0.01)
    @example(alpha=0.02)
    @example(alpha=0.05)
    @example(alpha=0.95)
    @example(alpha=0.99)
    @example(alpha=0.999)
    def test_closed_forms_across_orders(self, alpha):
        # both tail closures at once: the left one carries most of l near
        # order 1, the right one most of 1*l and 1*1*l near order 0
        spec = MeasureSpec.single_order(alpha)
        t = np.geomspace(1e-10, 3.0, 97)
        for d, got in enumerate(K.resolvent_tables(spec, t)):
            exact = t ** (alpha - 1 + d) / math.gamma(alpha + d)
            assert np.max(np.abs(got - exact) / exact) <= 1e-13, d

    def test_cell_factors_match_mpmath(self):
        # phi_0, phi_1, phi_2 and the depth kernels phi_0 - phi_1 and
        # (phi_0 - phi_1 - phi_2)/2 of the running integrals; the recursion
        # from phi_0 cancels below v = 1.5 and the series must take over
        mpmath = pytest.importorskip("mpmath")
        v = np.concatenate((np.geomspace(1e-9, 700.0, 1201),
                            np.linspace(0.9, 1.1, 81),
                            np.linspace(9e-4, 1.1e-3, 81),
                            np.linspace(1.4, 1.6, 81),
                            [np.nextafter(1.5, 0.0), 1.5]))
        phi = K._cell_factors(v)
        got = np.vstack((phi, phi[0] - phi[1],
                         0.5 * (phi[0] - phi[1] - phi[2])))
        with mpmath.workdps(60):  # phi_2 loses 27 digits at 1e-9
            def exact(x):
                x = mpmath.mpf(x)
                e = mpmath.exp(-x)
                rows = ((1 - e) / x, (1 - (1 + x) * e) / x**2,
                        ((x - 2) + (x + 2) * e) / x**3)
                return [float(r) for r in (*rows, rows[0] - rows[1],
                                           (rows[0] - rows[1] - rows[2]) / 2)]

            ref = np.array([exact(x) for x in v]).T
        rel = np.abs(got - ref) / ref
        assert np.max(rel) <= 1.5e-15, np.max(rel, axis=1)
        assert K._cell_factors(np.zeros(1))[:, 0].tolist() == [1.0, 0.5, 1 / 6]

    def test_running_integral_is_depth_one(self, measures):
        # depth 1 of the tables, in the shape of t; a float for a scalar
        t = np.geomspace(1e-8, 3.0, 42)
        for name, spec in measures.items():
            for theta in (0.0, 4.0):
                got = K.resolvent_running_integral(spec, t.reshape(6, 7),
                                                   theta)
                assert got.shape == (6, 7), name
                assert np.array_equal(
                    got.ravel(), K.resolvent_tables(spec, t, theta)[1]), name
        alpha = 0.3
        spec = MeasureSpec.single_order(alpha)
        value = K.resolvent_running_integral(spec, 0.25)
        assert type(value) is float
        assert value == pytest.approx(0.25**alpha / math.gamma(1 + alpha),
                                      rel=1e-13)
        exact = t**alpha / math.gamma(1 + alpha)
        got = K.resolvent_running_integral(spec, t)
        assert np.max(np.abs(got - exact) / exact) <= 1e-13


class TestExpSums:
    @pytest.mark.parametrize("columns", [1, 4, 50])
    @pytest.mark.parametrize("p_exp, t_exp", [
        ((-40, 12), (-6, 6)),        # wide Taylor regions left of the bands
        ((-300, 300), (-290, 290)),  # powers of p far outside the range
    ])
    def test_matches_longdouble_direct_sum(self, columns, p_exp, t_exp):
        # the running Taylor moments of the nodes left of each tile's band
        # against the full sum in extended precision, on times that span
        # many tiles
        rng = np.random.default_rng(columns)
        p = np.sort(np.append(0.0, 10 ** rng.uniform(*p_exp, 800)))
        ts = np.sort(10 ** rng.uniform(*t_exp, 600))
        w = rng.uniform(0.0, 1.0, (p.size, columns)) / np.sqrt(1 + p[:, None])
        got = K._exp_sums(p, w, ts)
        assert len(list(K._tiles(p, ts))) >= 5
        wide = np.longdouble
        ref = np.exp(-np.multiply.outer(ts.astype(wide), p.astype(wide))
                     ) @ w.astype(wide)
        assert np.max(np.abs(got - ref) / ref) <= 1e-14

    @pytest.mark.parametrize("columns", [1, 4])
    @pytest.mark.parametrize("step", [1 / 2048, 4 / 64, 1e-3])
    @pytest.mark.parametrize("n", [2, 3, 64, 2048])
    @pytest.mark.parametrize("nodes", ["dense", "sparse", "clustered"])
    def test_grid_matches_longdouble_direct_sum(self, nodes, n, step,
                                                columns):
        # the one table exp(-p i step) of a uniform grid against the full
        # sum in extended precision.  Sparse nodes make tiles of 1792 rows;
        # 600 more nodes at p*step in [2^8, 2^9] make the tallest tile's
        # table pass _TABLE_ENTRIES, and the blocks are then formed entry
        # by entry as on arbitrary times
        rng = np.random.default_rng(n + columns)
        p_exp = (-300, 300) if nodes == "sparse" else (-40, 12)
        p = np.append(0.0, 10 ** rng.uniform(*p_exp, 800))
        if nodes == "clustered":
            p = np.append(p, np.ldexp(rng.uniform(1.0, 2.0, 600), 8) / step)
        p = np.sort(p)
        ts = step * np.arange(1, n + 1)
        w = rng.uniform(0.0, 1.0, (p.size, columns)) / np.sqrt(1 + p[:, None])
        got = K._exp_sums(p, w, ts, step)
        tiles = list(K._tiles(p, ts))
        table = (max(hi - lo for lo, hi, _, _ in tiles)
                 * (tiles[0][3] - tiles[-1][2]))
        if n == 2048:
            assert len(tiles) >= (2 if nodes == "sparse" else 5)
            assert (table > K._TABLE_ENTRIES) == (nodes == "clustered")
        wide = np.longdouble
        ref = np.vstack([np.exp(-np.multiply.outer(chunk, p.astype(wide)))
                         @ w.astype(wide)
                         for chunk in np.array_split(ts.astype(wide),
                                                     -(-n // 256))])
        assert np.max(np.abs(got - ref) / ref) <= 1e-14

    @pytest.mark.parametrize("theta", [0.0, 4.0])
    def test_grid_table_matches_arbitrary_times(self, measures, theta):
        # the grid's table and the per-entry block of arbitrary times, on
        # the inversion table of the grid
        step, n = 1 / 2048, 2048
        ts = step * np.arange(1, n + 1)
        for name, spec in measures.items():
            p, w, _ = K._inversion_table(spec, theta, ts[0], ts[-1])
            got = K._exp_sums(p, w, ts, step)
            ref = K._exp_sums(p, w, ts)
            assert np.max(np.abs(got - ref) / ref) <= 1e-15, name


class TestResolvent:
    def test_theta_zero_is_l(self, half):
        t = np.linspace(0.05, 1.5, 7)
        assert np.array_equal(np.asarray(K.r_theta_eval(half, t, 0.0)),
                              np.asarray(K.l_eval(half, t)))

    def test_single_order_ml_oracle(self, half):
        # r_theta(t) = t^(a-1) E_{a,a}(-theta t^a); the e-function value is
        # confirmed independently by E_{1/2,1/2}(z) = 1/sqrt(pi) + z*e^{z^2}erfc(-z)
        oracle = mittag_leffler(0.5, -1.0, beta=0.5)
        identity = 1 / SQRT_PI - math.e * math.erfc(1.0)
        assert oracle == pytest.approx(identity, abs=1e-12)
        assert K.r_theta_eval(half, 1.0, 1.0) == pytest.approx(oracle,
                                                               abs=1e-9)

    def test_near_zero_matches_l(self, half):
        t = 1e-6
        r = K.r_theta_eval(half, t, 1.0)
        l_val = K.l_eval(half, t)
        assert abs(r - l_val) / l_val <= 0.01

    def test_theta_monotone_and_bounded(self, measures):
        t = np.linspace(0.02, 1.0, 40)
        for spec in measures.values():
            l_vals = np.asarray(K.l_eval(spec, t))
            r1 = np.asarray(K.r_theta_eval(spec, t, 0.5))
            r2 = np.asarray(K.r_theta_eval(spec, t, 2.0))
            assert np.all(r1 >= r2 - 1e-15)
            assert np.all(r2 >= 0.0)
            assert np.all(r1 <= l_vals * (1 + 1e-12))

    def test_negative_theta_rejected(self, half):
        with pytest.raises(ValueError):
            K.r_theta_eval(half, 1.0, -0.5)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("entry", [
        "h_laplace_eval", "r_theta_eval", "resolvent_running_integral",
        "resolvent_tables", "sample_kernel", "sample_kernels",
        "sample_r_theta"])
    def test_theta_rule(self, half, entry, theta):
        # theta < 0 let NaN through: r_theta came out finite and wrong, H
        # was 0, and theta = inf gave NaN
        t = np.array([0.5, 1.0])
        calls = {
            "h_laplace_eval": lambda: K.h_laplace_eval(half, t, theta),
            "r_theta_eval": lambda: K.r_theta_eval(half, t, theta),
            "resolvent_running_integral":
                lambda: K.resolvent_running_integral(half, t, theta),
            "resolvent_tables": lambda: K.resolvent_tables(half, t, theta),
            "sample_kernel": lambda: K.sample_kernel(
                half, K.KernelKind.R_THETA, 1 / 64, 64, theta),
            "sample_kernels": lambda: K.sample_kernels(
                half, ["l", "r_theta"], 1 / 64, 64, theta),
            "sample_r_theta": lambda: V.sample_r_theta(half, 1 / 64, 64,
                                                       theta),
        }
        with pytest.raises(ValueError, match="theta"):
            calls[entry]()


class TestKernelGrid:
    def test_sampling_and_monotonicity(self, half):
        for kind in K.KernelKind:
            grid = K.sample_kernel(half, kind, 1.0 / 128, 128, theta=1.0)
            assert grid.n == 128
            assert grid.horizon == pytest.approx(1.0)

    def test_monotonicity_violation_raises(self, half, monkeypatch):
        # l is one weight column of the sampler's exponential sum
        monkeypatch.setattr(K, "_exp_sums", lambda p, w, ts, step:
                            np.array([[1.0], [2.0], [3.0]]))
        with pytest.raises(K.KernelGridError, match="nonincreasing"):
            K.sample_kernel(half, K.KernelKind.L_KERNEL, 0.1, 3)

    def test_negative_sample_raises(self, half, monkeypatch):
        monkeypatch.setattr(K, "one_star_k_eval",
                            lambda spec, t: np.array([-1.0, 0.0, 1.0]))
        with pytest.raises(K.KernelGridError, match="nonnegative"):
            K.sample_kernel(half, K.KernelKind.ONE_STAR_K, 0.1, 3)

    def test_csv_export_round_trip(self, half, tmp_path):
        config = parse_config({
            "experiment": "kernels",
            "measure": {"atoms": [{"alpha": 0.5, "q": 1.0}],
                        "weight": {"breaks": [], "values": []}},
            "horizon": 4.0, "n_steps": 16, "params": {"seed": 0}})
        assert cli.run(config, tmp_path) == 0
        path = tmp_path / "kernel_l.csv"
        lines = path.read_text().splitlines()
        assert lines[0] == "t,value"
        t, v = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
        grid = K.sample_kernels(half, list(K.KernelKind), 0.25, 16,
                                theta=1.0)[3]
        assert t[0] == 0.25
        assert np.array_equal(t, grid.times)
        assert np.array_equal(v, grid.values)

    def test_multi_kind_sampler_matches_each_kind(self, measures):
        kinds = list(K.KernelKind)
        for name, spec in measures.items():
            grids = K.sample_kernels(spec, kinds, 1.0 / 512, 512, theta=4.0)
            for kind, grid in zip(kinds, grids):
                one = K.sample_kernel(spec, kind, 1.0 / 512, 512, theta=4.0)
                assert np.array_equal(grid.times, one.times)
                assert np.max(np.abs(grid.values - one.values)
                              / one.values) <= 1e-14, (name, kind)
            # the l of `memkern kernels` is the l of `memkern verify`
            tabled = {K.KernelKind.L_KERNEL: V.sample_l(spec, 1.0 / 512, 512),
                      K.KernelKind.R_THETA: V.sample_r_theta(spec, 1.0 / 512,
                                                             512, 4.0)}
            for kind, one in tabled.items():
                grid = grids[kinds.index(kind)]
                assert np.max(np.abs(grid.values - one.values)
                              / one.values) <= 1e-15, (name, kind)

    @staticmethod
    def _sample(half, kind, step, n):
        samplers = {
            "sample_l": lambda: V.sample_l(half, step, n),
            "sample_r_theta": lambda: V.sample_r_theta(half, step, n, 1.0),
            "sample_k": lambda: V.sample_k(half, step, n)}
        if kind in samplers:
            return samplers[kind]()
        return K.sample_kernels(half, [kind], step, n)

    @pytest.mark.parametrize("kind", ["k", "k1", "l", "r_theta", "sample_l",
                                      "sample_r_theta", "sample_k"])
    @pytest.mark.parametrize("step", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_step_rejected(self, half, kind, step):
        # every sampler refuses the step itself in kernels._grid_times,
        # before the panel range of l and r_theta or the time check of k
        # and k1 sees it; volterra's samplers raised MeasureError
        with pytest.raises(K.KernelGridError, match="step"):
            self._sample(half, kind, step, 64)

    @pytest.mark.parametrize("kind", ["k", "l", "sample_l", "sample_r_theta",
                                      "sample_k"])
    @pytest.mark.parametrize("step, n", [(1 / 64, 0), (1 / 64, 1),
                                         (1e308, 4)])
    def test_bad_grid_size_rejected(self, half, kind, step, n):
        # fewer than 2 samples, or an infinite horizon: sample_k with n = 0
        # raised IndexError, sample_l GridMismatchError, and sample_kernels
        # an OverflowError for l at step 1e308
        with pytest.raises(K.KernelGridError, match="n >= 2"):
            self._sample(half, kind, step, n)

    def test_multi_kind_sampler_builds_one_exponential_block(
            self, half, monkeypatch):
        calls = []
        exp_sums = K._exp_sums
        monkeypatch.setattr(K, "_exp_sums", lambda p, w, ts, step:
                            calls.append(w.shape) or exp_sums(p, w, ts, step))
        K.sample_kernels(half, list(K.KernelKind), 1.0 / 256, 256, theta=1.0)
        assert calls == [(calls[0][0], 2)]

    @pytest.mark.parametrize("column, bad, message", [
        (0, [1.0, 2.0, 3.0], "l samples must be nonincreasing"),
        (1, [1.0, 2.0, 3.0], "r_theta samples must be nonincreasing"),
        (1, [1.0, -1.0, -2.0], "samples must be nonnegative"),
        (0, [np.nan, 1.0, 0.5], "samples must be finite"),
    ])
    def test_multi_kind_sampler_checks_each_kind(self, half, monkeypatch,
                                                 column, bad, message):
        # column 0 of the shared exponential sum is l, column 1 is r_theta
        cols = [[3.0, 2.0, 1.0]] * 2
        cols[column] = bad
        monkeypatch.setattr(K, "_exp_sums",
                            lambda p, w, ts, step: np.array(cols).T)
        kinds = [K.KernelKind.K_KERNEL, K.KernelKind.L_KERNEL,
                 K.KernelKind.R_THETA]
        with pytest.raises(K.KernelGridError, match=message):
            K.sample_kernels(half, kinds, 0.1, 3, theta=1.0)


class TestBoundCertificates:
    def test_no_hard_violations(self, half):
        certs = K.bound_certificates(half, V.sample_l(half, 1.0 / 256, 256),
                                     r=0.5)
        assert certs.ok and certs.hard_violations == 0

    def test_upper_ratio_constant_single_order(self, half):
        certs = K.bound_certificates(half, V.sample_l(half, 1.0 / 256, 256),
                                     r=0.5)
        # l(t) * int t^(1-a) dmu = 1/Gamma(0.5)Gamma(... ) is flat in t
        assert np.ptp(certs.upper_ratio) <= 1e-10
        assert certs.upper_ratio[0] == pytest.approx(1 / SQRT_PI, rel=1e-10)

    def test_holder_ratio_bounded_uniform_weight(self):
        spec = MeasureSpec.uniform_weight()
        certs = K.bound_certificates(spec, V.sample_l(spec, 1.0 / 256, 256),
                                     r=0.5)
        finite = certs.holder_ratio[np.isfinite(certs.holder_ratio)]
        assert finite.size and np.max(finite) < 10.0

    def test_resolvent_chain_positive(self, half):
        certs = K.bound_certificates(half, V.sample_l(half, 1.0 / 512, 512),
                                     r=0.5)
        assert certs.chain_t.size > 0
        assert np.all(certs.chain_r_over_avg > 0.0)
        assert np.all(certs.chain_r_over_avg <= 1.0 + 1e-12)
        assert np.all(certs.chain_avg_over_l > 0.0)
        assert np.all(certs.chain_l_times_K > 0.0)

    @pytest.mark.parametrize("size", [0, 1, 2])
    def test_chain_window_edges(self, measures, size):
        # windows of 0, 1 and 2 samples, below the 2 of one resolvent grid,
        # against the inversion of r_theta and 1*r_theta at the same times
        from memkern.geometry import phi

        for name, spec in measures.items():
            step = phi(spec, 0.5) / (size + 0.5)
            certs = K.bound_certificates(spec, V.sample_l(spec, step, 512),
                                         r=0.5)
            assert certs.chain_t.size == size, name
            if not size:
                continue
            r_vals, running = K.resolvent_tables(spec, certs.chain_t,
                                                 certs.theta)[:2]
            l_vals = certs.l_values[:size]
            expected = (r_vals * certs.chain_t / running,
                        running / certs.chain_t / l_vals)
            for got, ref in zip((certs.chain_r_over_avg,
                                 certs.chain_avg_over_l), expected):
                assert np.max(np.abs(got / ref - 1.0)) <= 1e-13, name

    @pytest.mark.parametrize("r", [0.0, -0.5])
    def test_nonpositive_radius_rejected(self, half, r):
        # phi refuses the radius before theta = 1/r^2 is formed: r = 0
        # raised a bare ZeroDivisionError
        from memkern.geometry import GeometryError

        with pytest.raises(GeometryError, match="r > 0"):
            K.bound_certificates(half, V.sample_l(half, 1 / 256, 256), r=r)

    def test_csv(self, half, verify_run):
        path = verify_run / "certificates.csv"
        header = path.read_text().splitlines()[0]
        assert header == "t,l,upper_ratio,holder_ratio"
        certs = K.bound_certificates(half, V.sample_l(half, 0.01, 32),
                                     r=0.5)
        table = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(table[:, 1], certs.l_values)

    def test_nan_counts_as_violation(self, half, monkeypatch):
        monkeypatch.setattr(K, "k1_eval",
                            lambda spec, t: np.full(np.shape(t), np.nan))
        certs = K.bound_certificates(half, V.sample_l(half, 0.01, 32),
                                     r=0.5)
        assert certs.hard_violations == 32 and not certs.ok
