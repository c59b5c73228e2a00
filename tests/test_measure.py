import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from memkern.measure import (
    MeasureSpec,
    MeasureError,
    alpha_power_moment,
    gamma_bar,
    mass,
    mu_integral,
    power_moment,
    sin_cos_moments,
    tail_mass,
    validate_measure,
)


def codes(report):
    return {v.code for v in report.violations}


class TestValidation:
    def test_single_order_valid(self):
        assert validate_measure(MeasureSpec.single_order(0.5)).ok

    def test_pure_weight_valid(self):
        assert validate_measure(MeasureSpec.uniform_weight()).ok

    def test_zero_measure_rejected(self):
        spec = MeasureSpec(weight_breaks=(0.0, 1.0), weight_values=(0.0,))
        report = validate_measure(spec)
        assert not report.ok
        assert "zero_measure" in codes(report)

    def test_negative_mass_rejected(self):
        report = validate_measure(MeasureSpec(atoms=((0.5, -1.0),)))
        assert "atom_mass_negative" in codes(report)

    def test_non_monotone_orders_rejected(self):
        report = validate_measure(
            MeasureSpec(atoms=((0.7, 1.0), (0.3, 1.0))))
        assert "atom_order_monotone" in codes(report)

    def test_order_out_of_range_rejected(self):
        report = validate_measure(MeasureSpec(atoms=((1.0, 1.0),)))
        assert "atom_order_range" in codes(report)

    def test_weight_shape_rejected(self):
        report = validate_measure(
            MeasureSpec(weight_breaks=(0.0, 0.5, 1.0), weight_values=(1.0,)))
        assert "weight_shape" in codes(report)

    def test_all_violations_reported(self):
        spec = MeasureSpec(atoms=((0.9, -1.0), (0.2, 1.0)))
        report = validate_measure(spec)
        assert len(report.violations) >= 2


class TestMuIntegral:
    def test_single_atom(self):
        assert mu_integral(MeasureSpec.single_order(0.5), lambda a: a) == 0.5

    def test_total_mass_two_atoms(self):
        spec = MeasureSpec.from_atoms([(0.4, 0.3), (0.8, 0.7)])
        assert mu_integral(spec, lambda a: 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_uniform_weight_closed_form(self):
        # int_0^1 2^-a da = (1 - 1/2)/ln 2, cross-checked by a Riemann sum
        spec = MeasureSpec.uniform_weight()
        got = mu_integral(spec, lambda a: 2.0 ** (-a))
        exact = 0.5 / math.log(2.0)
        grid = (np.arange(10**6) + 0.5) / 10**6
        riemann = float(np.mean(2.0 ** (-grid)))
        assert got == pytest.approx(exact, rel=1e-10)
        assert got == pytest.approx(riemann, rel=1e-7)
        assert got == pytest.approx(0.7213475, abs=5e-8)

    def test_non_finite_integrand_raises(self):
        with pytest.raises(MeasureError):
            mu_integral(MeasureSpec.single_order(0.5),
                        lambda a: math.inf)

    @given(c=st.floats(0.1, 5.0), t=st.floats(0.05, 20.0))
    @settings(max_examples=30, deadline=None)
    def test_linearity_and_power_moment_agree(self, c, t):
        spec = MeasureSpec.from_atoms([(0.25, 0.5), (0.6, 1.5)])
        direct = mu_integral(spec, lambda a: c * t ** (-a))
        assert direct == pytest.approx(c * power_moment(spec, t), rel=1e-9)

    @given(t=st.floats(0.05, 10.0))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_integrand(self, t):
        spec = MeasureSpec(atoms=((0.5, 1.0),),
                           weight_breaks=(0.2, 0.9), weight_values=(0.5,))
        low = mu_integral(spec, lambda a: t ** (-a))
        high = mu_integral(spec, lambda a: t ** (-a) + 1.0)
        assert high >= low


class TestMoments:
    def test_power_moment_weight_at_e(self):
        spec = MeasureSpec.uniform_weight()
        assert power_moment(spec, math.e) == pytest.approx(1 - math.exp(-1),
                                                           rel=1e-12)

    def test_power_moment_near_one_switches_to_limit(self):
        spec = MeasureSpec.uniform_weight()
        assert power_moment(spec, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_alpha_moment_matches_quadrature(self):
        spec = MeasureSpec(atoms=((0.4, 0.7),),
                           weight_breaks=(0.0, 1.0), weight_values=(0.3,))
        for t in [0.2, 0.999999, 1.0, 1.0001, 7.0]:
            direct = mu_integral(spec, lambda a: a * t ** (-a))
            assert alpha_power_moment(spec, t) == pytest.approx(direct,
                                                                rel=1e-8)

    def test_sin_cos_moments_uniform(self):
        s, c = sin_cos_moments(MeasureSpec.uniform_weight(), 1.0)
        assert s == pytest.approx(2.0 / math.pi, rel=1e-12)
        assert c == pytest.approx(0.0, abs=1e-14)

    def test_sin_cos_moments_atom(self):
        s, c = sin_cos_moments(MeasureSpec.single_order(0.5), 4.0)
        assert s == pytest.approx(2.0, rel=1e-12)
        assert c == pytest.approx(0.0, abs=1e-12)


class TestGammaBar:
    def test_top_atom_dominates(self):
        spec = MeasureSpec.from_atoms([(0.3, 1.0), (0.7, 2.0)])
        assert gamma_bar(spec) == 0.7

    def test_uniform_weight_slack(self):
        assert gamma_bar(MeasureSpec.uniform_weight()) == pytest.approx(0.99)

    def test_weight_below_atom(self):
        spec = MeasureSpec(atoms=((0.3, 1.0),),
                           weight_breaks=(0.0, 0.3), weight_values=(1.0,))
        assert gamma_bar(spec) == 0.3

    def test_tail_mass_positive(self, measures):
        for spec in measures.values():
            gb = gamma_bar(spec)
            assert tail_mass(spec, gb) > 0.0

    def test_tail_mass_matches_indicator_integral(self):
        spec = MeasureSpec(atoms=((0.5, 2.0),),
                           weight_breaks=(0.0, 1.0), weight_values=(1.0,))
        gb = gamma_bar(spec)
        indicator = mu_integral(spec, lambda a: 1.0 if a >= gb else 0.0)
        assert indicator == pytest.approx(tail_mass(spec, gb), rel=1e-6)


def test_json_round_trip():
    spec = MeasureSpec(atoms=((0.3, 1.0), (0.7, 2.0)),
                       weight_breaks=(0.0, 0.5), weight_values=(0.25,),
                       gamma_slack=0.02)
    assert MeasureSpec.from_dict(spec.to_dict()) == spec


def test_mass_mixed():
    spec = MeasureSpec(atoms=((0.5, 1.5),),
                       weight_breaks=(0.0, 0.5, 1.0),
                       weight_values=(2.0, 0.0))
    assert mass(spec) == pytest.approx(2.5)
