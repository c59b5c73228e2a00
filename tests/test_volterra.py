import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from memkern import kernels as K
from memkern import volterra as V
from memkern.measure import MeasureSpec


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

    def test_grid_mismatch_raises(self):
        a = V.DiscreteKernel(0.1, np.ones(8))
        b = V.DiscreteKernel(0.1, np.ones(9))
        with pytest.raises(V.GridMismatchError):
            V.conv(a, b)
        c = V.DiscreteKernel(0.2, np.ones(8))
        with pytest.raises(V.GridMismatchError):
            V.conv(a, c)

    def test_nonfinite_tables_rejected(self):
        ones = np.ones(4)
        bad = np.array([1.0, np.nan, 1.0, 1.0])
        with pytest.raises(V.GridMismatchError, match="cell_bubble_moment"):
            V.DiscreteKernel(0.1, ones, cell_bubble_moment=bad)
        with pytest.raises(V.GridMismatchError, match="head"):
            V.DiscreteKernel(0.1, ones, head=math.inf)

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


class TestSecondKind:
    def test_lambda_zero_returns_forcing(self, sampled_2048):
        lk, _ = sampled_2048["d05"]
        x = V.solve_volterra_second_kind(lk, lk, 0.0)
        assert np.array_equal(x.values, lk.values)

    def test_discrete_resolvent_matches_quadrature(self, half, sampled_2048):
        lk, _ = sampled_2048["d05"]
        x = V.solve_volterra_second_kind(lk, lk, 1.0, singular_exponent=0.5)
        ref = np.asarray(K.r_theta_eval(half, x.times, 1.0))
        rel = np.abs(x.values - ref) / ref
        assert np.max(rel[9:]) <= 1e-3

    def test_residual_exact_by_construction(self, sampled_2048):
        lk, _ = sampled_2048["d05"]
        x = V.solve_volterra_second_kind(lk, lk, 3.0, singular_exponent=0.5)
        res = V.volterra_residual(x, lk, 3.0, lk, singular_exponent=0.5)
        assert res <= 1e-10

    def test_relaxation_solution_decreasing(self, sampled_2048):
        lk, _ = sampled_2048["d05"]
        for n in (1, 8):
            s = V.solve_volterra_second_kind(1.0, lk, float(n))
            assert s.values[0] > 0.9 if n == 1 else s.values[0] > 0.0
            assert np.all(np.diff(s.values) <= 1e-14)
            assert V.volterra_residual(s, lk, float(n), 1.0) <= 1e-10

    def test_degenerate_diagonal_raises(self, sampled_2048):
        lk, _ = sampled_2048["d05"]
        wr1 = float(lk.times[0] * lk.masses()[0] - lk.first_moments()[0]) \
            / lk.step
        with pytest.raises(V.GridMismatchError):
            V.solve_volterra_second_kind(lk, lk, -1.0 / wr1)


    def test_forward_substitution_matches_loop(self, sampled_2048):
        # the blocked Toeplitz solve against the row-by-row recurrence of the
        # same scheme, for second-kind solves of l and a first-kind solve of k
        def loop(c, lam, weights, g):
            w_left, w_right, w_shape = weights
            x = np.zeros(g.size)
            x[0] = g[0] / (c + lam * w_shape[0])
            for j in range(2, g.size + 1):
                known = x[0] * w_shape[j - 1]
                known += np.dot(x[:j - 1], w_left[j - 2::-1])
                known += np.dot(x[1:j - 1], w_right[j - 2:0:-1])
                x[j - 1] = (g[j - 1] - lam * known) / (c + lam * w_right[0])
            return x

        for name, (lk, kk) in sampled_2048.items():
            cases = [(1.0, lam, V._second_kind_weights(lk, 0.5, None), g)
                     for lam in (1.0, 256.0) for g in (lk.values, np.ones(lk.n))]
            cases.append((0.0, 1.0, V._second_kind_weights(kk, 0.5, kk.step),
                          np.ones(kk.n)))
            for c, lam, weights, g in cases:
                ref = loop(c, lam, weights, g)
                got = V._forward_substitution(c, lam, weights, g)
                tol = 1e-14 if c else 1e-12  # first kind amplifies rounding
                assert np.max(np.abs(got - ref)) <= tol * np.max(np.abs(ref)), \
                    (name, c, lam)


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
            assert rk.head == got[0, 0]
            # the same node table, summed without any cancellation
            p, c = K._node_table(spec, theta,
                                 *K._panel_range(spec, tau, 1.0, 1))
            ref = _cell_integrals_longdouble(p, c, tau, cells)
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


class TestYosida:
    def test_positivity_resolved_regime(self, half, sampled_2048):
        lk, kk = sampled_2048["d05"]
        for n in (1, 4, 16, 64):
            y = V.yosida_kernels(half, n, lk.step, lk.n,
                                 l_kernel=lk, k_kernel=kk)
            assert float(np.min(y.h.values)) >= 0.0, n

    def test_l1_convergence_and_ordering(self, half, sampled_2048):
        lk, kk = sampled_2048["d05"]
        norm_k = V.l1_norm(kk, horizon=1.0)
        dists = []
        for n in (4, 16, 64, 256):
            y = V.yosida_kernels(half, n, lk.step, lk.n,
                                 l_kernel=lk, k_kernel=kk)
            dists.append(V.l1_distance(y.k_n, kk, horizon=1.0))
        assert all(d2 < d1 for d1, d2 in zip(dists, dists[1:]))
        assert dists[-1] <= 0.05 * norm_k
        # smoothing ordering |k_{4n} - k| <= |k_n - k| for n in {4, 16, 64}
        assert dists[1] <= dists[0] and dists[2] <= dists[1] \
            and dists[3] <= dists[2]

    def test_kernel_identity_and_monotonicity(self, half, sampled_2048):
        lk, kk = sampled_2048["d05"]
        y = V.yosida_kernels(half, 16, lk.step, lk.n,
                             l_kernel=lk, k_kernel=kk)
        assert np.array_equal(y.k_n.values, 16.0 * y.s_n.values)
        assert np.all(y.k_n.values >= 0.0)
        assert np.all(np.diff(y.k_n.values) <= 1e-12)

    def test_direct_relaxation_equation_residual(self, half, sampled_2048):
        # the relaxation kernel solves s_n + n*(s_n * l) = 1 to round-off
        lk, kk = sampled_2048["d05"]
        y = V.yosida_kernels(half, 1, lk.step, lk.n,
                             l_kernel=lk, k_kernel=kk)
        assert V.volterra_residual(y.s_n, lk, 1.0, 1.0) <= 1e-10

    def test_conv_route_agrees_when_resolved(self, half, sampled_2048):
        # k * h_n reproduces n*s_n within discretization error at small n
        lk, kk = sampled_2048["d05"]
        y = V.yosida_kernels(half, 4, lk.step, lk.n,
                             l_kernel=lk, k_kernel=kk)
        alt = V.conv(kk, y.h)
        rel = V.l1_distance(V.DiscreteKernel(lk.step, alt.values), y.k_n,
                            horizon=1.0) / V.l1_norm(y.k_n, horizon=1.0)
        assert rel <= 0.08

    def test_invalid_n_raises(self, half):
        with pytest.raises(ValueError):
            V.yosida_kernels(half, 0, 0.01, 64)


@pytest.fixture(scope="module")
def setup_512(half):
    tau, n = 1.0 / 512, 512
    lk = V.sample_l(half, tau, n)
    kk = V.sample_k(half, tau, n)
    y = V.yosida_kernels(half, 16, tau, n, l_kernel=lk, k_kernel=kk)
    return y.k_n


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
            tau = 1.0 / n
            lk = V.sample_l(half, tau, n)
            kk = V.sample_k(half, tau, n)
            y = V.yosida_kernels(half, 64, tau, n, l_kernel=lk, k_kernel=kk)
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
        one = V.DiscreteKernel(tau, np.ones(2048), head=tau)
        assert V.l1_norm(one) == 1.0
        assert V.l1_norm(one, horizon=0.5) == 0.5
        assert V.l1_distance(one.scaled(3.0), one) == 2.0


class TestSoninePartner:
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.55, 0.8, 0.9])
    def test_first_cell_shape_weight_single_order(self, alpha):
        # int_0^tau (s/tau)^(a-1) (tau-s)^-a / Gamma(1-a) ds = tau^(1-a) Gamma(a)
        spec = MeasureSpec.single_order(alpha)
        for tau in (2.0**-11, 1e-6, 0.5):
            got = V._first_cell_shape_weight(
                lambda s: np.asarray(K.k_eval(spec, s)), tau, alpha, alpha)
            exact = tau ** (1.0 - alpha) * math.gamma(alpha)
            assert abs(got - exact) <= 1e-13 * exact, tau

    def test_single_order_first_cell_exact(self, half):
        oracle = V.sonine_partner(half, 1.0 / 256, 256)
        exact = oracle.times ** (-0.5) / math.sqrt(math.pi)
        assert oracle.values[0] == pytest.approx(exact[0], rel=1e-6)

    def test_decreasing(self, measures):
        oracle = V.sonine_partner(measures["two_atom"], 1.0 / 512, 512)
        assert np.all(np.diff(oracle.values) <= 0.0)
