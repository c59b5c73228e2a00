import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from memkern import kernels as K
from memkern import volterra as V
from memkern.measure import MeasureSpec, gamma_bar


_TABLE_MEASURES = {
    "order 0.3": MeasureSpec.single_order(0.3),
    "order 0.55": MeasureSpec.single_order(0.55),
    "order 0.8": MeasureSpec.single_order(0.8),
    "mixture": MeasureSpec.from_atoms([(0.32, 0.5), (0.68, 0.5)]),
    "band": MeasureSpec(weight_breaks=(0.17, 0.78), weight_values=(1.0,)),
    "uniform": MeasureSpec.uniform_weight(),
    "atom plus weight": MeasureSpec(atoms=((0.4, 0.5),),
                                    weight_breaks=(0.2, 0.5, 0.9),
                                    weight_values=(0.3, 0.7)),
}


def _second_differences(v, tau):
    """Centered second differences per node; zero at the two boundary nodes."""
    out = np.zeros_like(v)
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / tau**2
    return out


def reference_conv(a, b):
    """The direct O(N^2) product integration, one output node at a time:
    the oracle for ``V.conv``'s half-range product."""
    V._check_compatible(a, b)
    tau, n = a.step, a.n
    av, bv = a.values, b.values
    wl_a, wr_a = V._pl_weights(a)
    wl_b, wr_b = V._pl_weights(b)
    d_a, d_b = a.bubble_moments(), b.bubble_moments()
    app = _second_differences(av, tau)
    bpp = _second_differences(bv, tau)
    a_exact = a.cell_mass is not None
    b_exact = b.cell_mass is not None
    out = np.empty(n)
    if a_exact and not b_exact:
        out[0] = bv[0] * a.masses()[0]
    elif b_exact and not a_exact:
        out[0] = av[0] * b.masses()[0]
    else:
        out[0] = 0.5 * (av[0] * b.masses()[0] + bv[0] * a.masses()[0])

    def _side(w_l, w_r, d, other, otherpp, j, count):
        # cells m' = 1..count of the exact factor against the other factor's
        # nodes at t_{j-m'} and t_{j-m'+1}
        lo = j - count
        acc = float(np.dot(w_l[:count], other[lo - 1:j - 1][::-1]))
        acc += float(np.dot(w_r[:count], other[lo:j][::-1]))
        acc -= 0.5 * float(np.dot(d[:count], otherpp[lo - 1:j - 1][::-1]))
        return acc

    for j in range(2, n + 1):
        m = j // 2
        acc = 0.0
        if m:
            acc += _side(wl_b, wr_b, d_b, av, app, j, m)
        acc += _side(wl_a, wr_a, d_a, bv, bpp, j, j - m)
        if j % 2 == 1:
            # the middle cell sat on a's side; average in b's treatment of it
            mid = m + 1  # cell index on b's side, sigma-cell j-m on a's side
            own_a = (bv[m - 1] * wl_a[j - m - 1] + bv[m] * wr_a[j - m - 1]
                     - 0.5 * d_a[j - m - 1] * bpp[m - 1])
            own_b = (av[j - mid - 1] * wl_b[mid - 1] + av[j - mid] * wr_b[mid - 1]
                     - 0.5 * d_b[mid - 1] * app[j - mid - 1])
            acc += 0.5 * (own_b - own_a)
        out[j - 1] = acc
    return V.DiscreteKernel(tau, out)


def random_kernel(rng, n, tables, tau=0.05):
    """Random samples with no tables, exact cell masses alone, or all cell
    tables."""
    v = rng.standard_normal(n)
    if tables == "mass":
        return V.DiscreteKernel(tau, v, cell_mass=rng.standard_normal(n))
    if tables == "cells":
        return V.DiscreteKernel(tau, v, cell_mass=rng.standard_normal(n),
                                cell_first_moment=rng.standard_normal(n),
                                cell_bubble_moment=rng.standard_normal(n))
    return V.DiscreteKernel(tau, v)


def ones_kernel(n=256, tau=1.0 / 256):
    return V.DiscreteKernel(tau, np.ones(n))


class TestConv:
    def test_ones_convolve_to_t(self):
        a = ones_kernel()
        c = V.conv(a, a)
        assert np.max(np.abs(c.values - c.times)) <= 1e-14

    def test_sonine_identity_single_order(self, sampled_2048):
        lk, kk = sampled_2048["d05"]
        c = V.conv(kk, lk)
        assert np.max(np.abs(c.values[9:] - 1.0)) <= 1e-3

    def test_k_times_one_matches_running_integral(self, half, sampled_2048):
        _, kk = sampled_2048["d05"]
        one = V.DiscreteKernel(kk.step, np.ones(kk.n))
        c = V.conv(kk, one)
        exact = np.asarray(K.one_star_k_eval(half, c.times))
        rel = np.abs(c.values - exact) / exact
        assert np.max(rel[9:]) <= 1e-3

    def test_commutative_exactly(self, sampled_2048):
        lk, kk = sampled_2048["two_atom"]
        ab = V.conv(kk, lk).values
        ba = V.conv(lk, kk).values
        assert np.max(np.abs(ab - ba)) <= 1e-12

    @given(n=st.integers(2, 300), seed=st.integers(0, 2**32 - 1),
           a_tables=st.sampled_from(["none", "mass", "cells"]),
           b_tables=st.sampled_from(["none", "mass", "cells"]))
    @settings(max_examples=60, deadline=None)
    def test_matches_direct_sum(self, n, seed, a_tables, b_tables):
        rng = np.random.default_rng(seed)
        a = random_kernel(rng, n, a_tables)
        b = random_kernel(rng, n, b_tables)
        ref = reference_conv(a, b).values
        got = V.conv(a, b).values
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_shortest_grids(self, n):
        rng = np.random.default_rng(n)
        if n < 2:  # a kernel needs two samples
            with pytest.raises(V.GridMismatchError):
                random_kernel(rng, n, "cells")
            return
        for a_tables in ("none", "mass", "cells"):
            for b_tables in ("none", "mass", "cells"):
                a = random_kernel(rng, n, a_tables)
                b = random_kernel(rng, n, b_tables)
                ref = reference_conv(a, b).values
                got = V.conv(a, b).values
                assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [2048, 8192])
    @pytest.mark.parametrize("name", list(_TABLE_MEASURES))
    def test_sonine_product_matches_direct_sum(self, name, n):
        spec = _TABLE_MEASURES[name]
        kk = V.sample_k(spec, 1.0 / n, n)
        lk = V.sample_l(spec, 1.0 / n, n)
        ref = reference_conv(kk, lk).values
        got = V.conv(kk, lk).values
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_grid_mismatch_raises(self):
        a = V.DiscreteKernel(0.1, np.ones(8))
        b = V.DiscreteKernel(0.1, np.ones(9))
        with pytest.raises(V.GridMismatchError):
            V.conv(a, b)
        c = V.DiscreteKernel(0.2, np.ones(8))
        with pytest.raises(V.GridMismatchError):
            V.conv(a, c)

    @pytest.mark.parametrize("step", [math.nan, math.inf])
    def test_nonfinite_step_rejected(self, step):
        # step <= 0 let NaN through, and two NaN-step kernels passed
        # _check_compatible
        with pytest.raises(V.GridMismatchError, match="step"):
            V.DiscreteKernel(step, np.ones(4))

    def test_nonfinite_tables_rejected(self):
        ones = np.ones(4)
        bad = np.array([1.0, np.nan, 1.0, 1.0])
        with pytest.raises(V.GridMismatchError, match="cell_bubble_moment"):
            V.DiscreteKernel(0.1, ones, cell_bubble_moment=bad)
        with pytest.raises(V.GridMismatchError, match="cell_mass"):
            V.DiscreteKernel(0.1, ones, cell_mass=[math.inf, 1.0, 1.0, 1.0])

    @given(s1=st.floats(-2.0, 2.0), s2=st.floats(-2.0, 2.0))
    @settings(max_examples=20, deadline=None)
    def test_bilinear(self, s1, s2):
        rng = np.random.default_rng(42)
        tau, n = 0.05, 24
        a = V.DiscreteKernel(tau, rng.uniform(0.1, 1.0, n))
        b = V.DiscreteKernel(tau, rng.uniform(0.1, 1.0, n))
        c = V.DiscreteKernel(tau, rng.uniform(0.1, 1.0, n))
        combo = V.DiscreteKernel(tau, s1 * b.values + s2 * c.values)
        lhs = V.conv(a, combo).values
        rhs = s1 * V.conv(a, b).values + s2 * V.conv(a, c).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * (1 + abs(s1) + abs(s2))


_BUBBLE_MEASURES = {
    "order 0.5": MeasureSpec.single_order(0.5),
    "mixture": MeasureSpec.from_atoms([(0.32, 0.5), (0.68, 0.5)]),
    "uniform": MeasureSpec.uniform_weight(),
    "band": MeasureSpec(weight_breaks=(0.17, 0.78), weight_values=(1.0,)),
}


class TestSampleK:
    @pytest.mark.parametrize("name", list(_BUBBLE_MEASURES))
    def test_bubbles_against_quad(self, name):
        # int (s - t_(m-1))(t_m - s) k(s) ds per cell; the bubbles used to be
        # a difference of running integrals, 2.7e-6 to 2.4e-5 off here
        spec = _BUBBLE_MEASURES[name]
        n = 2048
        tau = 1.0 / n
        kk = V.sample_k(spec, tau, n)
        for m in np.unique(np.geomspace(1, n, 16).round().astype(int)):
            lo, hi = (m - 1) * tau, m * tau
            exact = integrate.quad(
                lambda s: (s - lo) * (hi - s) * K.k_eval(spec, s), lo, hi,
                epsabs=0.0, epsrel=1e-13, limit=200)[0]
            assert abs(kk.cell_bubble_moment[m - 1] - exact) <= 1e-10 * exact

    def test_bubbles_linear_in_the_measure(self):
        # the same k summed over its order nodes in another grouping
        tau, n = 1.0 / 2048, 2048
        mixture = V.sample_k(_BUBBLE_MEASURES["mixture"], tau, n)
        parts = [V.sample_k(MeasureSpec.single_order(a, 0.5), tau, n)
                 for a in (0.32, 0.68)]
        band = V.sample_k(_BUBBLE_MEASURES["band"], tau, n)
        pieces = V.sample_k(MeasureSpec(weight_breaks=(0.17, 0.5, 0.78),
                                        weight_values=(1.0, 1.0)), tau, n)
        for whole, split in ((mixture.cell_bubble_moment,
                              parts[0].cell_bubble_moment
                              + parts[1].cell_bubble_moment),
                             (band.cell_bubble_moment,
                              pieces.cell_bubble_moment)):
            assert np.max(np.abs(whole / split - 1.0)) <= 1e-12


class TestSecondKind:
    """The forward substitution of the ``_first_kind_weights`` scheme."""

    def test_forward_substitution_matches_loop(self, sampled_2048):
        # the blocked Toeplitz solve against the row-by-row recurrence of the
        # same scheme, for the first-kind solve k * x = 1 of sonine_partner
        def loop(weights, g):
            w_left, w_right, w_shape = weights
            x = np.zeros(g.size)
            x[0] = g[0] / w_shape[0]
            for j in range(2, g.size + 1):
                known = x[0] * w_shape[j - 1]
                known += np.dot(x[:j - 1], w_left[j - 2::-1])
                known += np.dot(x[1:j - 1], w_right[j - 2:0:-1])
                x[j - 1] = (g[j - 1] - known) / w_right[0]
            return x

        for name, (_, kk) in sampled_2048.items():
            weights = V._first_kind_weights(kk, 0.5, kk.step)
            g = np.ones(kk.n)
            ref = loop(weights, g)
            got = V._forward_substitution(weights, g)
            # the first kind amplifies rounding
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), \
                name


class TestToeplitzSolve:
    """The block-FFT lower-triangular Toeplitz engine against a dense solve."""

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 257, 2049])
    @pytest.mark.parametrize("columns", [None, 3], ids=["vector", "matrix"])
    def test_against_dense_triangular_solve(self, n, columns):
        from scipy.linalg import solve_triangular, toeplitz

        # n = 2049 reaches far-field spans 64..2048, past the dense crossover
        assert 2 * V._DENSE_FAR_FIELD <= 2048
        rng = np.random.default_rng(n)
        lags = np.arange(n)
        column = rng.uniform(0.5, 1.5, n) * (1.0 + lags) ** -1.5
        rhs = rng.normal(size=(n,) if columns is None else (n, columns))
        ref = solve_triangular(toeplitz(column, np.zeros(n)), rhs, lower=True)
        got = V._toeplitz_solve(column, rhs)
        assert got.shape == rhs.shape
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def _cell_integrals_longdouble(p, c, tau, cells):
    """Mass, first moment and bubble of sum c exp(-p s) over the cells
    ((m-1) tau, m tau], summed node by node in extended precision."""
    p, c, tau = (np.asarray(a, dtype=np.longdouble) for a in (p, c, tau))
    v = p * tau
    # int_0^1 w(x) exp(-v x) dx for w = 1, x, x(1-x): closed forms from v = 4,
    # series below (60 terms: 4^60/60! < 1e-45)
    phi = np.empty((3, v.size), dtype=np.longdouble)
    big = v >= 4
    vb, eb = v[big], np.exp(-v[big])
    phi[0, big] = (1 - eb) / vb
    phi[1, big] = (1 - (1 + vb) * eb) / vb**2
    phi[2, big] = ((vb - 2) + (vb + 2) * eb) / vb**3
    inv_fact = np.cumprod([np.longdouble(1)]
                          + [1 / np.longdouble(j) for j in range(1, 64)])
    k = np.arange(60)
    for row, coeff in enumerate((inv_fact[k + 1], (k + 1) * inv_fact[k + 2],
                                 (k + 1) * inv_fact[k + 3])):
        acc = np.zeros(int(np.sum(~big)), dtype=np.longdouble)
        for a in coeff[::-1]:
            acc = a - v[~big] * acc
        phi[row, ~big] = acc
    out = []
    for m in cells:
        lo = tau * (m - 1)
        w = c * np.exp(-p * lo)
        mass = np.sum(w * tau * phi[0])
        out.append((mass, lo * mass + np.sum(w * tau**2 * phi[1]),
                    np.sum(w * tau**3 * phi[2])))
    return np.array(out)


class TestResolventCellTables:
    @pytest.mark.parametrize("theta", [0.0, 4.0])
    def test_tables_against_extended_precision_and_quad(self, theta):
        n = 2048
        tau = 1.0 / n
        cells = np.unique(np.geomspace(1, n, 14).round().astype(int))
        assert cells.size >= 12
        for name, spec in _TABLE_MEASURES.items():
            rk = V.sample_r_theta(spec, tau, n, theta)
            points = np.asarray(K.r_theta_eval(spec, rk.times, theta))
            assert np.max(np.abs(rk.values - points) / points) <= 2e-15, name
            got = np.column_stack((rk.cell_mass, rk.cell_first_moment,
                                   rk.cell_bubble_moment))[cells - 1]
            assert rk.masses()[0] == got[0, 0]
            # the same node table, summed without any cancellation; right of
            # it the first cell's factors are 1/p, 1/p^2 and tau/p^2 - 2/p^3
            p, c, tails = K._inversion_table(spec, theta, tau, 1.0,
                                             right=(1, 2, 3))
            ref = _cell_integrals_longdouble(p, c[:, 0], tau, cells)
            m1, m2, m3 = tails[:, 0]
            ref[0] += (m1, m2, tau * m2 - 2.0 * m3)
            rel = np.abs((got - ref) / ref).astype(float)
            assert np.max(rel) <= 1e-14, (name, np.max(rel, axis=0))
            # adaptive quadrature of the pointwise kernel on the cells m >= 2
            for m, row in zip(cells[1:], got[1:]):
                lo, hi = (m - 1) * tau, m * tau
                seen = {}

                def r(s):
                    if s not in seen:
                        seen[s] = K.r_theta_eval(spec, s, theta)
                    return seen[s]

                for weight, value in zip(
                        (lambda s: 1.0, lambda s: s,
                         lambda s: (s - lo) * (hi - s)), row):
                    exact = integrate.quad(lambda s: weight(s) * r(s), lo, hi,
                                           epsabs=0.0, epsrel=1e-13)[0]
                    assert abs(value - exact) <= 1e-10 * exact, (name, m)


    @pytest.mark.parametrize("alpha", [0.001, 0.01, 0.02, 0.05, 0.95, 0.99])
    def test_l_cell_masses_at_both_ends(self, alpha):
        # l = t^(a-1)/Gamma(a) has cell masses
        # (t_m^a - t_(m-1)^a)/Gamma(1+a), here in 30-digit mpmath.  Near
        # order 0 the first cell owes most of its mass to the right tail
        # beyond the node table, near order 1 every cell most of its mass
        # to the left tail at p = 0.
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 30
        n = 2048
        lk = V.sample_l(MeasureSpec.single_order(alpha), 1.0 / n, n)
        a = mp.mpf(alpha)
        ref = np.array([float(((mp.mpf(m) / n) ** a - (mp.mpf(m - 1) / n) ** a)
                              / mp.gamma(1 + a)) for m in range(1, 65)])
        assert lk.cell_mass[0] == pytest.approx(ref[0], rel=1e-13)
        assert np.max(np.abs(lk.cell_mass[:64] / ref - 1.0)) <= 1e-13


class TestYosida:
    def test_positivity_resolved_regime(self, half):
        for n in (1, 4, 16, 64):
            y = V.yosida_kernels(half, n, 1.0 / 2048, 2048)
            assert float(np.min(y.h.values)) >= 0.0, n

    def test_l1_convergence_and_ordering(self, half, sampled_2048):
        _, kk = sampled_2048["d05"]
        norm_k = V.l1_norm(kk, horizon=1.0)
        dists = []
        for n in (4, 16, 64, 256):
            y = V.yosida_kernels(half, n, kk.step, kk.n)
            dists.append(V.l1_distance(y.k_n, kk, horizon=1.0))
        assert all(d2 < d1 for d1, d2 in zip(dists, dists[1:]))
        assert dists[-1] <= 0.05 * norm_k
        # smoothing ordering |k_{4n} - k| <= |k_n - k| for n in {4, 16, 64}
        assert dists[1] <= dists[0] and dists[2] <= dists[1] \
            and dists[3] <= dists[2]

    def test_kernel_identity_and_monotonicity(self, half):
        y = V.yosida_kernels(half, 16, 1.0 / 2048, 2048)
        assert np.array_equal(y.k_n.values, 16.0 * y.s_n.values)
        assert np.all(y.k_n.values >= 0.0)
        assert np.all(np.diff(y.k_n.values) <= 1e-12)

    def test_conv_route_agrees_when_resolved(self, half, sampled_2048):
        # k * h_n reproduces n*s_n within discretization error at small n
        _, kk = sampled_2048["d05"]
        y = V.yosida_kernels(half, 4, kk.step, kk.n)
        alt = V.conv(kk, y.h)
        rel = V.l1_distance(V.DiscreteKernel(kk.step, alt.values), y.k_n,
                            horizon=1.0) / V.l1_norm(y.k_n, horizon=1.0)
        assert rel <= 0.08

    @pytest.mark.parametrize("n", [4, 100, 256, 4096])
    def test_order_half_against_mittag_leffler(self, half, n):
        # s_n = E_1/2(-n t^1/2) = exp(n^2 t) erfc(n t^1/2) and
        # h_n = n t^-1/2 E_1/2,1/2(-n t^1/2), in 30-digit mpmath
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 30
        y = V.yosida_kernels(half, n, 1.0 / 2048, 2048)
        s_ref, h_ref = [], []
        for j in range(1, 2049):
            t = mp.mpf(j) / 2048
            z = n * mp.sqrt(t)
            e = mp.exp(z * z) * mp.erfc(z)
            s_ref.append(float(e))
            h_ref.append(float(n / mp.sqrt(t) * (1 / mp.sqrt(mp.pi) - z * e)))
        assert np.max(np.abs(y.s_n.values / s_ref - 1.0)) <= 1e-13
        assert np.max(np.abs(y.h.values / h_ref - 1.0)) <= 1e-13

    @pytest.mark.parametrize("alpha", [0.01, 0.02])
    def test_small_order_against_mittag_leffler(self, alpha):
        # Below order 0.09 the theta = n table ends short of p^a >> n and
        # both of its tails carry a share of sum c/p = 1/n.  References in
        # 30-digit mpmath, y = p^a: s_n = E_a(-n t^a) =
        # (n sin(pi a)/(pi a)) int exp(-t y^(1/a)) / (y^2 + 2n cos(pi a) y + n^2) dy,
        # h_n = -s_n', and h_n's first cell mass 1 - s_n(tau)
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 30
        n, a = 256, mp.mpf(alpha)
        scale = n * mp.sin(mp.pi * a) / (mp.pi * a)

        def reference(t, power):
            def f(y):
                return (y ** (power / a) * mp.exp(-t * y ** (1 / a))
                        / (y * y + 2 * n * mp.cos(mp.pi * a) * y + n * n))
            yc = t ** -a
            return float(scale * mp.quad(
                f, [0, yc / 4, yc / 2, yc, 2 * yc, 4 * yc, mp.inf]))

        y = V.yosida_kernels(MeasureSpec.single_order(alpha), n, 1.0 / 2048,
                             2048)
        for j in np.unique(np.geomspace(1, 2048, 8).round().astype(int)):
            t = mp.mpf(int(j)) / 2048
            assert abs(y.s_n.values[j - 1] / reference(t, 0) - 1.0) <= 1e-13
            assert abs(y.h.values[j - 1] / reference(t, 1) - 1.0) <= 1e-13
        head = 1.0 - reference(mp.mpf(1) / 2048, 0)
        assert abs(y.h.cell_mass[0] / head - 1.0) <= 1e-13

    @pytest.mark.parametrize("n", [4, 256])
    @pytest.mark.parametrize("name", ["uniform", "two_atom"])
    def test_distributed_orders_against_quad(self, measures, name, n):
        # s_n = (n/pi) int H_n(p) exp(-p t) dp/p by quad in x = log p, with
        # S and C in closed form: for the uniform weight
        # S = pi (1 + p)/(x^2 + pi^2) and C = -x (1 + p)/(x^2 + pi^2)
        def s_and_c(x):
            if name == "uniform":
                scale = (1.0 + math.exp(x)) / (x * x + math.pi**2)
                return math.pi * scale, -x * scale
            return (sum(q * math.exp(a * x) * math.sin(math.pi * a)
                        for a, q in measures[name].atoms),
                    sum(q * math.exp(a * x) * math.cos(math.pi * a)
                        for a, q in measures[name].atoms))

        y = V.yosida_kernels(measures[name], n, 1.0 / 2048, 2048)
        for j in np.unique(np.geomspace(1, 2048, 12).round().astype(int)):
            t = j / 2048

            def integrand(x):
                s, c = s_and_c(x)
                return s / (s * s + (n + c) ** 2) * math.exp(-math.exp(x) * t)

            ref = n / math.pi * sum(
                integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13,
                               limit=200)[0]
                for lo, hi in ((-np.inf, 0.0), (0.0, math.log(800.0 / t))))
            assert abs(y.s_n.values[j - 1] / ref - 1.0) <= 1e-12, (name, j)

    def test_invalid_n_raises(self, half):
        with pytest.raises(ValueError):
            V.yosida_kernels(half, 0, 0.01, 64)


@pytest.fixture(scope="module")
def setup_512(half):
    return V.yosida_kernels(half, 16, 1.0 / 512, 512).k_n


class TestFundamentalIdentity:

    def test_linear_h_collapses(self, setup_512):
        k_n = setup_512
        t = k_n.times
        rep = V.fundamental_identity_residual(
            k_n, 1.0 + t, lambda v: v, lambda v: np.ones_like(v))
        assert rep.sup_residual <= 1e-10

    def test_constant_u_collapses(self, setup_512):
        k_n = setup_512
        rep = V.fundamental_identity_residual(
            k_n, np.full(k_n.n, 1.5), lambda v: v**2, lambda v: 2 * v)
        assert rep.sup_residual <= 1e-12

    def test_quadratic_converges(self, half):
        sups = {}
        for n in (1024, 2048):
            y = V.yosida_kernels(half, 64, 1.0 / n, n)
            t = y.k_n.times
            rep = V.fundamental_identity_residual(
                y.k_n, 1.0 + t, lambda v: v**2, lambda v: 2 * v)
            sups[n] = rep.sup_residual
            assert rep.remainder_min >= -1e-10
        assert sups[1024] <= 1e-2
        assert sups[2048] <= 0.7 * sups[1024]

    def test_convex_remainder_nonnegative(self, setup_512):
        k_n = setup_512
        t = k_n.times
        u = np.cos(3.0 * t) + 2.0
        rep = V.fundamental_identity_residual(
            k_n, u, lambda v: np.exp(v), lambda v: np.exp(v))
        assert rep.remainder_min >= -1e-10

    def test_non_finite_h_raises(self, setup_512):
        k_n = setup_512
        u = np.linspace(-1.0, 1.0, k_n.n)
        with pytest.raises(ValueError), np.errstate(invalid="ignore",
                                                    divide="ignore"):
            V.fundamental_identity_residual(
                k_n, u, lambda v: np.log(v), lambda v: 1.0 / v)


class TestL1:
    def test_constant_kernel(self):
        # head cell plus trapezoid over [t_1, t_N] covers (0, 1] once
        tau = 2.0**-11
        one = V.DiscreteKernel(tau, np.ones(2048),
                               cell_mass=np.full(2048, tau))
        assert V.l1_norm(one) == 1.0
        assert V.l1_norm(one, horizon=0.5) == 0.5
        assert V.l1_distance(one.scaled(3.0), one) == 2.0

    def test_horizon_must_reach_a_node(self):
        # a negative horizon used to measure as its absolute value, a tiny
        # one raised IndexError and NaN a conversion error
        one = V.DiscreteKernel(1.0 / 64, np.ones(64),
                               cell_mass=np.full(64, 1.0 / 64))
        assert V.l1_norm(one, horizon=0.5) == 0.5
        assert V.l1_norm(one, horizon=1.5 / 64) == 2.0 / 64
        assert V.l1_norm(one, horizon=math.inf) == V.l1_norm(one)
        for bad in (-0.5, 1e-9, 0.5 / 64, 0.0, math.nan):
            with pytest.raises(V.GridMismatchError, match=f"horizon {bad}"):
                V.l1_norm(one, horizon=bad)
            with pytest.raises(V.GridMismatchError, match=f"horizon {bad}"):
                V.l1_distance(one, one.scaled(2.0), horizon=bad)


class TestSoninePartner:
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.55, 0.8, 0.9])
    def test_first_cell_shape_weight_single_order(self, alpha):
        # int_0^tau (s/tau)^(a-1) (tau-s)^-a / Gamma(1-a) ds = tau^(1-a) Gamma(a)
        spec = MeasureSpec.single_order(alpha)
        for tau in (2.0**-11, 1e-6, 0.5):
            got = V._first_cell_weight(spec, tau, alpha)
            exact = tau ** (1.0 - alpha) * math.gamma(alpha)
            assert abs(got - exact) <= 1e-13 * exact, tau

    @pytest.mark.parametrize("atoms", [None, ((0.3, 0.5), (0.995, 0.5))],
                             ids=["uniform", "order near one"])
    def test_first_cell_weight_against_mpmath(self, atoms):
        # the orders' sum of tau^(1-a) Gamma(g)/Gamma(1+g-a), each term the
        # shape integral of t^-a/Gamma(1-a), by 30-digit quadrature in a
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 30
        spec = (MeasureSpec.uniform_weight() if atoms is None
                else MeasureSpec.from_atoms(list(atoms)))
        tau, g = 2.0**-11, gamma_bar(spec)

        def term(a):
            return (mp.mpf(tau) ** (1 - a) * mp.gamma(g)
                    / mp.gamma(1 + mp.mpf(g) - a))

        ref = (mp.quad(term, [0, 1]) if atoms is None
               else mp.fsum(q * term(mp.mpf(a)) for a, q in atoms))
        got = V._first_cell_weight(spec, tau, g)
        assert abs(got / float(ref) - 1.0) <= 1e-14

    def test_single_order_first_cell_exact(self, half):
        oracle = V.sonine_partner(half, 1.0 / 256, 256)
        exact = oracle.times ** (-0.5) / math.sqrt(math.pi)
        assert oracle.values[0] == pytest.approx(exact[0], rel=1e-6)

    def test_decreasing(self, measures):
        oracle = V.sonine_partner(measures["two_atom"], 1.0 / 512, 512)
        assert np.all(np.diff(oracle.values) <= 0.0)
