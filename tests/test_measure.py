import math

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from memkern.config import ConfigError, parse_config
from memkern.kernels import k_eval
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
)


def violations_of(**fields):
    with pytest.raises(MeasureError) as err:
        MeasureSpec(**fields)
    return err.value.violations


def codes(violations):
    return {v.code for v in violations}


class TestValidation:
    def test_single_order_valid(self):
        assert MeasureSpec.single_order(0.5).atoms == ((0.5, 1.0),)

    def test_pure_weight_valid(self):
        assert mass(MeasureSpec.uniform_weight()) == 1.0

    def test_zero_measure_rejected(self):
        bad = violations_of(weight_breaks=(0.0, 1.0), weight_values=(0.0,))
        assert [(v.code, v.pointer) for v in bad] == [("zero_measure", "")]

    def test_negative_mass_rejected(self):
        bad = violations_of(atoms=((0.5, -1.0),))
        assert "atom_mass_negative" in codes(bad)

    def test_non_monotone_orders_rejected(self):
        bad = violations_of(atoms=((0.7, 1.0), (0.3, 1.0)))
        assert "atom_order_monotone" in codes(bad)

    def test_order_out_of_range_rejected(self):
        bad = violations_of(atoms=((1.0, 1.0),))
        assert "atom_order_range" in codes(bad)

    def test_weight_shape_rejected(self):
        bad = violations_of(weight_breaks=(0.0, 0.5, 1.0),
                            weight_values=(1.0,))
        assert "weight_shape" in codes(bad)

    def test_all_violations_reported(self):
        bad = violations_of(atoms=((0.9, -1.0), (0.2, 1.0)))
        assert codes(bad) == {"atom_mass_negative", "atom_order_monotone"}

    @pytest.mark.parametrize("fields,code,pointer", [
        (dict(atoms=((0.0, 1.0),)), "atom_order_range", "/atoms/0/alpha"),
        (dict(atoms=((0.5, math.inf),)), "atom_not_finite", "/atoms/0"),
        (dict(weight_breaks=(-0.1, 1.0), weight_values=(1.0,)),
         "weight_break_range", "/weight/breaks/0"),
        (dict(weight_breaks=(0.5, 0.5), weight_values=(1.0,)),
         "weight_break_monotone", "/weight/breaks/1"),
        (dict(weight_breaks=(0.0, 1.0), weight_values=(-1.0,)),
         "weight_value_negative", "/weight/values/0"),
        (dict(weight_values=(1.0,)), "weight_shape", "/weight"),
        (dict(atoms=((0.5, 1.0),), gamma_slack=1.0), "gamma_slack_range",
         "/gamma_slack"),
        (dict(atoms=((0.5, 0.0),)), "zero_measure", ""),
        (dict(weight_breaks=(0.0, 0.5, 1.0), weight_values=(1.0, math.nan)),
         "weight_value_not_finite", "/weight/values/1"),
        (dict(weight_breaks=(0.0, 1.0), weight_values=(math.inf,)),
         "weight_value_not_finite", "/weight/values/0"),
        # a subnormal mass used to build, and gamma_bar then raised "tail
        # level carries no mass"
        (dict(weight_breaks=(0.0, 1.0), weight_values=(5e-324,)),
         "zero_measure", ""),
        (dict(atoms=((0.5, 2.2250738585072009e-308),)), "zero_measure", ""),
    ])
    def test_every_rule_raises_on_construction(self, fields, code, pointer):
        bad = violations_of(**fields)
        assert (code, pointer) in {(v.code, v.pointer) for v in bad}

    @pytest.mark.parametrize("atoms,code,pointer", [
        (((1.5, 1.0),), "atom_order_range", "/atoms/0/alpha"),
        (((0.5, -1.0),), "atom_mass_negative", "/atoms/0/q"),
        (((0.7, 1.0), (0.3, 1.0)), "atom_order_monotone", "/atoms/1/alpha"),
    ])
    def test_inadmissible_measure_cannot_be_built(self, atoms, code, pointer):
        # these used to build, and k_eval, conv_weights and sample_k then
        # returned negative kernels from them without a word
        with pytest.raises(MeasureError, match=code) as err:
            MeasureSpec(atoms=atoms)
        assert [(v.code, v.pointer) for v in err.value.violations] == [
            (code, pointer)]
        with pytest.raises(MeasureError):
            MeasureSpec.from_atoms(atoms)

    def test_gamma_bar_skips_a_massless_top_atom(self):
        # a zero-mass atom above the support used to be taken as its top
        spec = MeasureSpec(atoms=((0.3, 1.0), (0.6, 0.0)))
        assert gamma_bar(spec) == 0.3
        spec = MeasureSpec(atoms=((0.3, 1.0), (0.9, 0.0)),
                           weight_breaks=(0.2, 0.5), weight_values=(1.0,))
        assert gamma_bar(spec) == 0.5 - spec.gamma_slack

    @pytest.mark.parametrize("top", [0.5, 1.0])
    def test_gamma_bar_below_a_weight_top_for_any_slack(self, top):
        # a slack below the last bit of the top used to give gamma_bar = top,
        # which carries no mass (or lies outside (0,1) at top = 1)
        spec = MeasureSpec(weight_breaks=(0.0, top), weight_values=(1.0,),
                           gamma_slack=1e-300)
        assert gamma_bar(spec) == math.nextafter(top, 0.0)


def admissible(data) -> bool:
    """Admissibility decided from the dict alone: orders strictly rising in
    (0,1), masses >= 0, a weight with one finite nonnegative value per piece
    of a strictly rising partition inside [0,1], a slack in (0,1), and a
    total mass of at least the smallest normal double."""
    orders = [a["alpha"] for a in data["atoms"]]
    masses = [a["q"] for a in data["atoms"]]
    breaks, values = data["weight"]["breaks"], data["weight"]["values"]
    pieces = list(zip(breaks, breaks[1:], values))
    return (all(0.0 < a < 1.0 for a in orders)
            and all(lo < hi for lo, hi in zip(orders, orders[1:]))
            and all(q >= 0.0 for q in masses)
            and (breaks == values == [] or len(values) == len(breaks) - 1 > 0)
            and all(0.0 <= b <= 1.0 for b in breaks)
            and all(lo < hi for lo, hi, _ in pieces)
            and all(0.0 <= v < math.inf for v in values)
            and 0.0 < data.get("gamma_slack", 0.01) < 1.0
            and sum(masses) + sum(v * (hi - lo) for lo, hi, v in pieces)
            >= 2.2250738585072014e-308)


def mostly(inside, outside, **open_ends):
    """Floats from ``inside`` seven times in eight, else from ``outside``."""
    return st.one_of(*[st.floats(*inside, **open_ends)] * 7,
                     st.floats(*outside))


@st.composite
def measure_dicts(draw):
    """Measure dicts with orders in [-0.5, 1.5], masses and densities in
    [-1, 2], breaks in [-0.25, 1.25] and a slack in [-0.5, 1.5], mostly
    inside their admissible ranges and mostly sorted and of matching shape,
    so that about one in five is admissible."""
    atoms = draw(st.lists(st.fixed_dictionaries(
        {"alpha": mostly((0.0, 1.0), (-0.5, 1.5), exclude_min=True,
                         exclude_max=True),
         "q": mostly((0.0, 2.0), (-1.0, 2.0), exclude_min=True)}),
        max_size=3))
    breaks = draw(st.one_of(st.just([]), st.lists(
        mostly((0.0, 1.0), (-0.25, 1.25)), min_size=2, max_size=4)))
    for entries, key in ((atoms, lambda a: a["alpha"]), (breaks, None)):
        if draw(st.integers(0, 3)):
            entries.sort(key=key)
    n_values = max(len(breaks) - 1, 0)
    if not draw(st.integers(0, 3)):
        n_values = draw(st.integers(0, 3))
    values = draw(st.lists(mostly((0.0, 2.0), (-1.0, 2.0)),
                           min_size=n_values, max_size=n_values))
    data = {"atoms": atoms, "weight": {"breaks": breaks, "values": values}}
    if draw(st.booleans()):
        data["gamma_slack"] = draw(mostly((0.0, 1.0), (-0.5, 1.5),
                                          exclude_min=True, exclude_max=True))
    return data


class TestAdmissibility:
    @given(data=measure_dicts())
    @settings(max_examples=300, deadline=None)
    def test_construction_agrees_with_an_independent_oracle(self, data):
        config = {"experiment": "kernels", "measure": data}
        try:
            spec = MeasureSpec.from_dict(data)
        except MeasureError as exc:
            event("refused")
            assert not admissible(data)
            assert exc.violations
            with pytest.raises(ConfigError) as err:
                parse_config(config)
            assert [ptr for ptr, _ in err.value.violations] == [
                "/measure" + v.pointer for v in exc.violations]
            return
        event("admitted")
        assert admissible(data)
        assert parse_config(config).measure == spec
        for t in (1e-3, 1.0, 10.0):
            for value in (k_eval(spec, t), power_moment(spec, t)):
                assert math.isfinite(value) and value >= 0.0


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
