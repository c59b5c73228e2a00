import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from memkern.measure import MeasureSpec, power_moment
from memkern import geometry as G


# the order extremes, and a mixture whose log k1 bends so sharply that an
# unclipped Newton step from x = 1 lands on x = 0
EXTREMES = (
    MeasureSpec.single_order(0.01),
    MeasureSpec.single_order(0.99),
    MeasureSpec.from_atoms([(0.01, 0.99), (0.99, 0.01)]),
)


def in_bracket(spec, r):
    """Radii whose Phi lies in [1e-300, 1e300]."""
    target = np.asarray(r) ** -2.0
    return ((power_moment(spec, 1e-300) > target)
            & (target > power_moment(spec, 1e300)))


class TestPhi:
    def test_single_order_closed_form(self, half):
        assert G.phi(half, 2.0) == pytest.approx(16.0, rel=1e-12)
        assert G.phi(half, 1.0) == pytest.approx(1.0, rel=1e-12)
        r = np.logspace(-2, 1, 24)
        got = G.phi(half, r)
        assert np.max(np.abs(got - r**4) / r**4) <= 1e-8

    def test_unit_mass_fixed_point(self, measures):
        for spec in [*measures.values(), *EXTREMES]:
            assert G.phi(spec, 1.0) == pytest.approx(1.0, rel=1e-10)

    def test_fixed_point_twelve_decades(self, measures):
        for spec in [*measures.values(), *EXTREMES]:
            for r in np.logspace(-11, 1, 13):
                if not in_bracket(spec, r):  # order 0.01 below r = 0.03
                    with pytest.raises(G.GeometryError):
                        G.phi(spec, float(r))
                    continue
                x = G.phi(spec, float(r))
                assert abs(power_moment(spec, x) * r * r - 1.0) <= 1e-12

    def test_batch_equals_scalar(self, measures):
        r = np.logspace(-11, 1, 25)
        for spec in [*measures.values(), *EXTREMES]:
            r_ok = r[in_bracket(spec, r)]
            batch = G.phi(spec, r_ok)
            for i in range(r_ok.size):
                assert batch[i] == G.phi(spec, float(r_ok[i]))

    def test_strictly_increasing(self, measures):
        r = np.logspace(-3, 1, 50)
        for spec in measures.values():
            vals = np.asarray(G.phi(spec, r))
            assert np.all(np.diff(vals) > 0.0)

    def test_nonpositive_radius_raises(self, half):
        with pytest.raises(G.GeometryError):
            G.phi(half, 0.0)

    def test_bracket_failure_raises(self):
        # the uniform weight has only log decay of k1, so huge radii push
        # the root beyond the representable bracket
        with pytest.raises(G.GeometryError):
            G.phi(MeasureSpec.uniform_weight(), 100.0)

    @given(r=st.floats(1e-3, 10.0), lam=st.floats(0.05, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_scaling_inequality_property(self, r, lam):
        spec = MeasureSpec.from_atoms([(0.3, 0.5), (0.7, 0.5)])
        assert G.phi(spec, lam * r) <= lam**2 * G.phi(spec, r) * (1 + 1e-10)


class TestCylinders:
    def test_example_geometry(self, half):
        qm, qp = G.build_cylinders(half, 0.0, 0.0, 0.5, 0.5, 1.0)
        assert (qm.t_start, qm.t_end) == (0.0, 0.5)
        assert (qp.t_start, qp.t_end) == (1.5, 2.0)
        assert qm.radius == qp.radius == 0.25

    def test_disjoint_and_contained(self, measures):
        for spec in measures.values():
            for delta in (0.2, 0.5, 0.999):
                qm, qp = G.build_cylinders(spec, 1.0, (0.3,), 0.4, delta, 0.7)
                assert qm.t_end <= qp.t_start  # disjoint, gap >= 0
                span = 2.0 * 0.7 * G.phi(spec, 0.8)
                assert qp.t_end == pytest.approx(1.0 + span, rel=1e-12)
                assert qm.radius < 0.4

    def test_near_one_delta_gap_positive(self, half):
        qm, qp = G.build_cylinders(half, 0.0, 0.0, 0.5, 0.999, 1.0)
        assert 0.0 < qp.t_start - qm.t_end < 0.01

    def test_single_order_span(self):
        beta = 0.4
        spec = MeasureSpec.single_order(beta)
        _, qp = G.build_cylinders(spec, 0.0, 0.0, 0.3, 0.5, 2.0)
        assert qp.t_end == pytest.approx(2 * 2.0 * 0.6 ** (2 / beta), rel=1e-9)

    def test_nan_radius_rejected(self):
        # radius <= 0 let NaN through, to fail later as an empty cylinder
        with pytest.raises(G.GeometryError, match="radius"):
            G.Cylinder(0.0, 1.0, (0.5,), math.nan)

    def test_invalid_parameters(self, half):
        with pytest.raises(G.GeometryError):
            G.build_cylinders(half, 0.0, 0.0, 0.5, 1.5, 1.0)
        with pytest.raises(G.GeometryError):
            G.build_cylinders(half, 0.0, 0.0, -0.5, 0.5, 1.0)

    @pytest.mark.parametrize("name, t0, r, tau", [
        ("t0", math.nan, 0.5, 1.0), ("t0", math.inf, 0.5, 1.0),
        ("r", 0.0, math.nan, 1.0), ("r", 0.0, math.inf, 1.0),
        ("tau", 0.0, 0.5, math.nan), ("tau", 0.0, 0.5, math.inf)])
    def test_non_finite_parameter_rejected_naming_it(self, half, name, t0,
                                                     r, tau):
        # NaN or infinite tau and NaN t0 used to raise the misleading
        # "cylinder needs t_start < t_end"
        with pytest.raises(G.GeometryError, match=f"^{name} = .* not finite"):
            G.build_cylinders(half, t0, 0.0, r, 0.5, tau)


class TestScalingCertificate:
    def test_single_order_constant_ratio(self, half):
        sc = G.scaling_certificate(half, 1.0, np.logspace(-3, -0.5, 6))
        expected = 4.0 / math.gamma(1.5)
        assert np.max(np.abs(sc.ratio - expected) / expected) <= 1e-6
        assert sc.c_emp == pytest.approx(expected, rel=1e-6)

    def test_single_order_lp_norm_closed_form(self):
        # l = s^(a-1)/Gamma(a): int_0^X l^p ds = X^e / (e Gamma(a)^p),
        # e = p(a-1) + 1; log_lhs adds (p-1) log X
        # the last two cases run to the 400-panel cap, where the rest is
        # the geometric series of the last two panels as well
        for alpha, p in ((0.3, 1.2), (0.55, 1.6), (0.7, 2.5), (0.5, 1.9),
                         (0.3, 1.35)):
            spec = MeasureSpec.single_order(alpha)
            sc = G.scaling_certificate(spec, p, np.logspace(-3, -0.35, 8))
            e = p * (alpha - 1.0) + 1.0
            x = sc.phi_2r
            exact = (e * np.log(x) - math.log(e) - p * math.lgamma(alpha)
                     + (p - 1.0) * np.log(x))
            assert np.max(np.abs(np.expm1(sc.log_lhs - exact))) <= 1e-12

    def test_lp_walk_matches_per_chunk_inversion(self, measures):
        # the walk takes every chunk of 8 panels from one exponential sum,
        # relying on chunk c being chunk 0 scaled by 2^(-8c) in s and the
        # dyadic p nodes scaled by 2^(8c); here each chunk inverts l afresh
        from memkern.kernels import _gauss_panels, l_eval
        from memkern.measure import gamma_bar

        def reference(spec, p, upper):
            total = prev = piece = 0.0
            for first in range(0, 400, 8):
                s, w = _gauss_panels(
                    upper * 0.5 ** np.arange(first + 8, first - 1, -1), 16)
                pieces = (np.asarray(l_eval(spec, s)) ** p * w).sum(axis=1)
                for j, x in enumerate(pieces[::-1].tolist(), start=first):
                    prev, piece = piece, x
                    total += piece
                    if j >= 20 and piece < 1e-10 * total:
                        q = piece / prev
                        return math.log(total + piece * q / (1.0 - q))
            q = piece / prev
            return math.log(total + piece * q / (1.0 - q))

        # order 0.05 runs to the 400-panel cap and the geometric rest
        extra = {
            "d005": MeasureSpec.single_order(0.05),
            "weight_to_zero": MeasureSpec(weight_breaks=(0.0, 0.4),
                                          weight_values=(2.5,)),
            "band": MeasureSpec(weight_breaks=(0.17, 0.78),
                                weight_values=(1.0,)),
            "atom_weight": MeasureSpec(atoms=((0.3, 0.5),),
                                       weight_breaks=(0.6, 1.0),
                                       weight_values=(1.25,)),
        }
        for name, spec in {**measures, **extra}.items():
            p = 0.5 * (1 + 1 / (1 - gamma_bar(spec)))
            sc = G.scaling_certificate(spec, p, [1e-3, 0.03, 0.4])
            ref = np.array([reference(spec, p, x) + (p - 1.0) * math.log(x)
                            for x in sc.phi_2r])
            assert np.max(np.abs(sc.log_lhs - ref) / np.abs(ref)) <= 1e-13, name

    def test_lp_walk_without_geometric_rest_raises(self, half, monkeypatch):
        # with l = s^-1.5 the panels grow by 2^0.5 toward zero, so the walk
        # runs to its panel cap and has no geometric rest to add
        def chunks(spec, s, m, n_chunks, t_lo, t_hi):
            return np.ldexp(s, -m * np.arange(n_chunks)[:, None]) ** -1.5

        monkeypatch.setattr(G, "_l_dyadic_chunks", chunks)
        with pytest.raises(G.GeometryError):
            G.scaling_certificate(half, 1.0, [0.1])

    def test_lp_walk_past_double_range_raises(self):
        # at order 0.02, Phi(2r) of verify's smallest radius is 1e-270, and
        # the walk to it needs dyadic nodes beyond 2^1023
        spec = MeasureSpec.single_order(0.02)
        p = 0.5 * (1 + 1 / 0.98)
        with pytest.raises(G.GeometryError, match="double range"):
            G.scaling_certificate(spec, p, np.logspace(-3, np.log10(0.45), 8))

    def test_lp_walk_underflow_raises(self):
        # Phi(20) = 5.2e173 for the uniform weight: l^50.5 is 0 in double on
        # every panel of the walk
        with pytest.raises(G.GeometryError, match="underflows"):
            G.scaling_certificate(MeasureSpec.uniform_weight(), 50.5, [10.0])

    @pytest.mark.parametrize("spec", [
        *(MeasureSpec.single_order(a)
          for a in (0.03, 0.1, 0.3, 0.5, 0.8, 0.95, 0.99)),
        MeasureSpec.from_atoms([(0.3, 0.5), (0.7, 0.5)]),
        MeasureSpec.from_atoms([(0.05, 0.5), (0.95, 0.5)]),
        MeasureSpec(weight_breaks=(0.17, 0.78), weight_values=(1 / 0.61,)),
        MeasureSpec(weight_breaks=(0.0, 0.4), weight_values=(2.5,)),
        MeasureSpec.uniform_weight(),
    ], ids=str)
    def test_bounded_walk_matches_full_walk(self, spec, monkeypatch):
        # the chunks predicted from the decay of l^p near 0 against every
        # chunk that fits in the double range (at most 50)
        from memkern.measure import gamma_bar
        p = 0.5 * (1 + 1 / (1 - gamma_bar(spec)))
        r_grid = np.logspace(-3, np.log10(0.45), 8)
        bounded = G.scaling_certificate(spec, p, r_grid)
        monkeypatch.setattr(G, "_walk_chunks",
                            lambda spec, p, upper, most: most)
        full = G.scaling_certificate(spec, p, r_grid)
        assert bounded.walk_chunks[1] == full.walk_chunks[1]
        assert abs(bounded.c_emp / full.c_emp - 1.0) <= 1e-14
        assert np.max(np.abs(bounded.log_lhs - full.log_lhs)
                      / np.abs(full.log_lhs)) <= 1e-14

    def test_stop_panels_on_hand_made_walks(self):
        stops = np.ones(32)
        stops[23:] = 1e-12
        early = np.ones(32)
        early[3:20] = 1e-12  # small, but before panel 20
        edge = np.ones(32)
        # below 1e-10 of the total only once the total includes it
        edge[20] = 2.0000000001e-9
        pieces = np.stack([stops, early, 0.9 ** np.arange(32.0), edge])
        totals, stop = G._stop_panels(pieces)
        assert stop.tolist() == [23, -1, -1, 20]
        assert np.array_equal(totals, np.cumsum(pieces, axis=1))

    def test_one_walk_call_for_every_radius(self, half, monkeypatch):
        calls = []
        chunks = G._l_dyadic_chunks
        monkeypatch.setattr(G, "_l_dyadic_chunks", lambda *args: calls.append(
            args[3]) or chunks(*args))
        sc = G.scaling_certificate(half, 1.5,
                                   np.logspace(-3, np.log10(0.45), 8))
        assert calls == [sc.walk_chunks[0]]
        assert sc.walk_chunks == (17, 16)

    def test_walk_short_of_chunks_gets_more(self, half, monkeypatch):
        r_grid = np.logspace(-3, np.log10(0.45), 8)
        expected = G.scaling_certificate(half, 1.5, r_grid)
        calls = []
        chunks = G._l_dyadic_chunks
        monkeypatch.setattr(G, "_l_dyadic_chunks", lambda *args: calls.append(
            args[3]) or chunks(*args))
        monkeypatch.setattr(G, "_walk_chunks", lambda spec, p, upper, most: 3)
        sc = G.scaling_certificate(half, 1.5, r_grid)
        assert calls == [3, 50] and sc.walk_chunks == (50, 16)
        assert np.max(np.abs(sc.log_lhs - expected.log_lhs)
                      / np.abs(expected.log_lhs)) <= 1e-14
        # past the double range the walk raises whatever it started with
        spec = MeasureSpec.single_order(0.02)
        with pytest.raises(G.GeometryError, match="double range"):
            G.scaling_certificate(spec, 0.5 * (1 + 1 / 0.98), r_grid)

    def test_ratio_finite_all_measures(self, measures):
        from memkern.measure import gamma_bar
        r_grid = np.logspace(-3, np.log10(0.45), 5)
        for spec in measures.values():
            p = 0.5 * (1 + 1 / (1 - gamma_bar(spec)))
            sc = G.scaling_certificate(spec, p, r_grid)
            assert np.all(np.isfinite(sc.log_ratio))
            assert sc.r_admissible >= r_grid[0]
            # r_admissible against a walk over the radii: the last of the
            # leading run within 2x of the plateau, and r[0] at least
            within = (sc.phi_2r <= 1.0) & (np.abs(
                sc.log_ratio - sc.log_plateau) <= math.log(2.0))
            r_adm = sc.r[0]
            for r, ok in zip(sc.r, within):
                if not ok:
                    break
                r_adm = r
            assert sc.r_admissible == r_adm

    def test_near_limit_exponent_larger_ratio(self, half):
        r_grid = np.logspace(-3, -1, 4)
        base = G.scaling_certificate(half, 1.0, r_grid)
        near = G.scaling_certificate(half, 0.95 * 2.0, r_grid)
        assert np.all(np.isfinite(near.log_ratio))
        assert near.c_emp > base.c_emp

    def test_p_out_of_range(self, half):
        with pytest.raises(G.GeometryError):
            G.scaling_certificate(half, 2.0, [0.1])
        with pytest.raises(G.GeometryError):
            G.scaling_certificate(half, 0.5, [0.1])

    def test_manifest_records_walk_chunks(self, verify_run):
        manifest = json.loads((verify_run / "manifest.json").read_text())
        chunks = manifest["lp_walk_chunks"]
        assert 1 <= chunks["most_used"] <= chunks["computed"] <= 50

    def test_csv(self, verify_run):
        lines = (verify_run / "scaling.csv").read_text().splitlines()
        assert lines[0] == "r,phi_2r,lhs,rhs,ratio"
        assert len(lines) == 9  # header + the 8 radii of ``memkern verify``


class TestPhiChecks:
    def test_lambda_one_equality(self, half):
        rep = G.phi_lambda_check(half, [0.5, 2.0], [1.0])
        assert rep.violations == 0
        assert abs(rep.worst_rel_slack) <= 1e-12

    def test_half_lambda_example(self, half):
        assert G.phi(half, 0.5) == pytest.approx(1.0 / 16, rel=1e-10)
        rep = G.phi_lambda_check(half, [1.0], [0.5])
        assert rep.ok

    def test_random_grid_no_violations(self, measures):
        rng = np.random.default_rng(3)
        r_grid = rng.uniform(0.01, 3.0, 6)
        lam_grid = rng.uniform(0.05, 1.0, 6)
        for spec in measures.values():
            assert G.phi_lambda_check(spec, r_grid, lam_grid).ok

    def test_lower_bound_single_order_equality(self, half):
        rep = G.phi_lower_bound_check(half, [0.1, 0.5, 0.999])
        assert rep.ok and rep.c_mu == 1.0
        assert abs(rep.worst_rel_slack) <= 1e-10

    def test_lower_bound_uniform_strict(self):
        spec = MeasureSpec.uniform_weight()
        rep = G.phi_lower_bound_check(spec, [0.1, 0.5, 0.999])
        assert rep.ok
        assert rep.worst_rel_slack < -1e-3  # strictly inside the bound

    def test_nan_counts_as_violation(self, half, monkeypatch):
        monkeypatch.setattr(G, "phi",
                            lambda spec, r: np.full(np.shape(r), math.nan))
        assert G.phi_lambda_check(half, [0.5], [0.5, 1.0]).violations == 2
        assert G.phi_lower_bound_check(half, [0.5]).violations == 1

    def test_lower_bound_domain_check(self, half):
        with pytest.raises(G.GeometryError):
            G.phi_lower_bound_check(half, [1.5])
