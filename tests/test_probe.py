"""Smoothness probes: verdicts, fits, directional checks, curve families."""

from fractions import Fraction
from random import Random

import pytest

from ultracalc.errors import DomainError
from ultracalc.field import Ball, FieldContext, PadicVector, Prime
from ultracalc.functions import (
    BallIndicator,
    MultiPolynomial,
    Poly,
    build_gallery,
    polynomial_curve,
)
from ultracalc.gallery import build_counterexample, discontinuity_witness, patchwork_curve
from ultracalc.probe import (
    ProbeConfig,
    Verdict,
    boman_experiment,
    cn_norm_estimate,
    continuity_probe,
    directional_continuity_probe,
    lipschitz_fit,
    local_boundedness_probe,
    probe_smoothness,
    scaling_inequality_check,
)

CTX = FieldContext(Prime(5))
UNIT1 = CTX.unit_ball(1)


def poly1(*coeffs):
    return Poly(MultiPolynomial.univariate([CTX.vector([c]) for c in coeffs]))


IDENT = poly1(0, 1)
SQUARE = poly1(0, 0, 1)


def witness_focus(cf, count):
    rows = discontinuity_witness(cf, count)
    return [PadicVector(list(r["x"].entries) + [r["y"]]) for r in rows]


# -- continuity ------------------------------------------------------------------


def test_probe_config_validation():
    with pytest.raises(ValueError):
        ProbeConfig(order=-1, region=UNIT1)
    with pytest.raises(ValueError):
        ProbeConfig(order=1, region=UNIT1, j0=5, j1=5)
    with pytest.raises(ValueError):
        ProbeConfig(order=1, region=UNIT1, samples=0)
    with pytest.raises(ValueError):
        ProbeConfig(order=1, region=UNIT1, delta=0)


def test_polynomial_gets_extension_at_all_orders():
    f = poly1(1, Fraction(1, 2), 3, 1)
    cfg = ProbeConfig(order=3, region=UNIT1, samples=4, seed=3)
    rep = probe_smoothness(f, cfg)
    assert [o.verdict for o in rep.orders] == [Verdict.CONTINUOUS_EXTENSION] * 4


def test_indicator_off_boundary_is_flat():
    psi = BallIndicator(CTX.ball([0], 0))
    cfg = ProbeConfig(order=1, region=CTX.ball([0], -1), samples=4, seed=5)
    rep = probe_smoothness(psi, cfg)
    assert all(o.verdict == Verdict.CONTINUOUS_EXTENSION for o in rep.orders)
    assert rep.orders[1].max_norm == 0


def test_counterexample_flagged_at_order_zero_with_witness():
    cf = build_counterexample(CTX, 1)
    f41 = build_gallery("thm41", CTX, m=1)
    cfg = ProbeConfig(order=0, region=CTX.unit_ball(2), samples=3, seed=2)
    rep = continuity_probe(f41, cfg, focus=witness_focus(cf, 8))
    assert rep.verdict == Verdict.LOCALLY_BOUNDED
    assert rep.witnesses and rep.witnesses[0].kind == "cauchy-failure"


def test_monotone_verdicts_for_polynomials():
    rng = Random(7)
    from ultracalc.verify import random_poly

    for _ in range(4):
        f = Poly(random_poly(CTX, rng, degree_max=4))
        cfg = ProbeConfig(order=3, region=UNIT1, samples=3, seed=rng.randrange(99))
        rep = probe_smoothness(f, cfg)
        granted = [o.verdict == Verdict.CONTINUOUS_EXTENSION for o in rep.orders]
        # once granted at the top order, every lower order was granted too
        if granted[-1]:
            assert all(granted)


def test_digit_backend_probe_grants_extension_to_polynomials():
    # differences that vanish at working precision are stabilization,
    # not stalls: constant and deep-order data must still pass
    from ultracalc.verify import random_poly

    td = FieldContext(Prime(5), backend="digits", precision=32)
    rng = Random(42)
    for i in range(6):
        f = Poly(random_poly(td, rng, degree_max=4))
        cfg = ProbeConfig(order=3, region=td.unit_ball(1), samples=3, seed=100 + i)
        rep = probe_smoothness(f, cfg)
        assert all(
            o.verdict == Verdict.CONTINUOUS_EXTENSION for o in rep.orders
        ), [o.verdict for o in rep.orders]


def test_probe_samples_at_the_configured_precision():
    td = FieldContext(Prime(5), backend="digits", precision=8)
    seen = set()

    class Recording(Poly):
        def evaluate(self, x):
            seen.update(e.abs_prec for e in x)
            return super().evaluate(x)

    f = Recording(MultiPolynomial.univariate([td.vector([c]) for c in (1, 2, 3)]))
    probe_smoothness(f, ProbeConfig(order=1, region=td.unit_ball(1), samples=3, seed=5))
    assert seen == {8}


def test_probe_reports_are_deterministic():
    f = poly1(2, 3, 1)
    cfg = ProbeConfig(order=2, region=UNIT1, samples=4, seed=11)
    a = probe_smoothness(f, cfg).to_json(5)
    b = probe_smoothness(f, cfg).to_json(5)
    assert a == b


# -- boundedness ------------------------------------------------------------------


def test_unit_coefficient_polynomial_bounded_by_one():
    f = poly1(1, Fraction(2, 3), 1)
    cfg = ProbeConfig(order=2, region=UNIT1, samples=4, seed=13)
    out = local_boundedness_probe(f, cfg)
    assert out["verdict"] == Verdict.LOCALLY_BOUNDED.value
    assert Fraction(out["max_norm"]) <= 1


def test_constant_function_bound_zero():
    f = poly1(0)
    cfg = ProbeConfig(order=1, region=UNIT1, samples=3, seed=17)
    out = local_boundedness_probe(f, cfg)
    assert Fraction(out["max_norm"]) == 0


def test_reciprocal_unbounded_near_zero_with_witness():
    rec = build_gallery("reciprocal", CTX)
    focus = [CTX.vector([Fraction(5) ** j]) for j in range(1, 9)]
    cfg = ProbeConfig(order=0, region=UNIT1, samples=2, seed=19, growth_ceiling=6)
    out = local_boundedness_probe(rec, cfg, focus=focus)
    assert out["verdict"] == Verdict.UNBOUNDED.value
    assert out["witness"] is not None


# -- Lipschitz fitting ---------------------------------------------------------------


def test_identity_fits_slope_one_constant_one():
    fit = lipschitz_fit(IDENT, UNIT1, seed=23)
    assert fit.exponent == 1
    assert fit.constant_value(5) == 1
    assert not fit.degenerate


def test_square_fits_slope_one():
    fit = lipschitz_fit(SQUARE, UNIT1, seed=23)
    assert fit.exponent == 1
    assert fit.constant_value(5) <= 1


def test_indicator_boundary_pairs_give_slope_zero():
    psi = BallIndicator(UNIT1)
    fit = lipschitz_fit(psi, UNIT1, j0=-4, j1=4, seed=29)
    assert fit.exponent == 0
    assert fit.constant_value(5) == 1


def test_constant_function_degenerate_fit():
    fit = lipschitz_fit(poly1(3), UNIT1, seed=31)
    assert fit.degenerate
    assert fit.exponent == 1 and fit.constant_value(5) == 0


@pytest.mark.parametrize("precision", [8, 32])
def test_apparent_zero_differences_are_not_fitted(precision):
    # On thm41 over the unit ball every difference the digits resolve is
    # an exact zero, as on the exact backend; the rest vanish only to
    # working precision.  Fitting those as measured gave r = 0 with
    # C = 5**-precision; left out, the fit is the exact backend's.
    ctx = FieldContext(Prime(5), backend="digits", precision=precision)
    f = build_gallery("thm41", ctx, m=1)
    fit = lipschitz_fit(f, ctx.unit_ball(2), j0=1, j1=8, seed=3)
    exact = lipschitz_fit(build_gallery("thm41", CTX, m=1), CTX.unit_ball(2), j0=1, j1=8, seed=3)
    assert exact.degenerate and exact.samples == 64
    assert fit.degenerate and fit.exponent == 1 and fit.constant_value(5) == 0
    assert 0 < fit.samples < 64


def test_a_measured_entry_decides_a_difference_with_an_apparent_zero():
    # (5 + O(5**8), O(5**8)): the first entry fixes the valuation at 1,
    # whatever the second hides; (O(5**8), O(5**8)) decides nothing.
    td8 = FieldContext(Prime(5), backend="digits", precision=8)
    lost = td8.scalar(5**9)
    assert lost.is_zero() and lost.valuation() == 8

    def pair(first):
        return lambda x: PadicVector([x[0] * first, lost])

    fit = lipschitz_fit(pair(td8.one()), td8.unit_ball(1), j0=1, j1=3, samples=2, seed=1)
    assert fit.samples == 6 and not fit.degenerate
    fit = lipschitz_fit(pair(lost), td8.unit_ball(1), j0=1, j1=3, samples=2, seed=1)
    assert fit.samples == 0 and fit.degenerate


def test_fit_residuals_are_one_sided():
    from ultracalc.verify import random_poly

    rng = Random(37)
    for _ in range(5):
        f = Poly(random_poly(CTX, rng, degree_max=4))
        fit = lipschitz_fit(f, UNIT1, seed=rng.randrange(999))
        assert all(res >= 0 for res in fit.residuals)


# -- directional continuity ------------------------------------------------------------


def test_polynomial_directionally_continuous():
    out = directional_continuity_probe(SQUARE, CTX.vector([1]), UNIT1, seed=41)
    assert out["verdict"] == "converges"


def test_counterexample_continuous_along_zero_section():
    f41 = build_gallery("thm41", CTX, m=1)
    region = Ball(CTX.vector([0, 0]), 0)
    out = directional_continuity_probe(f41, CTX.vector([1, 0]), region, seed=43)
    assert out["verdict"] == "converges"


def test_counterexample_fails_along_witness_direction():
    cf = build_counterexample(CTX, 1)
    f41 = build_gallery("thm41", CTX, m=1)
    region = Ball(CTX.vector([0, 0]), 0)
    # base points on the bump centers; stepping off in the y direction
    # drops the value from 1 to 0 at every scale
    focus = witness_focus(cf, 8)
    out = directional_continuity_probe(
        f41, CTX.vector([0, 1]), region, seed=47, focus=focus
    )
    assert out["verdict"] == "fails"
    assert "witness" in out


def test_zero_direction_rejected():
    with pytest.raises(ValueError):
        directional_continuity_probe(SQUARE, CTX.zero_vector(1), UNIT1)


# -- graded norm ------------------------------------------------------------------


def test_norm_estimate_identity():
    cfg = ProbeConfig(order=1, region=UNIT1, samples=4, seed=53)
    out = cn_norm_estimate(IDENT, 1, cfg)
    assert out["value"] == 1


def test_norm_estimate_zero_function():
    cfg = ProbeConfig(order=2, region=UNIT1, samples=3, seed=59)
    out = cn_norm_estimate(poly1(0), 2, cfg)
    assert out["value"] == 0


def test_norm_estimate_square():
    cfg = ProbeConfig(order=2, region=UNIT1, samples=4, seed=61)
    out = cn_norm_estimate(SQUARE, 2, cfg)
    assert out["value"] == 1


# -- curve-family experiments -----------------------------------------------------------


def test_boman_polynomial_consistent():
    f = Poly(
        MultiPolynomial(
            2, 1, {(2, 0): CTX.vector([1]), (1, 1): CTX.vector([2])}
        )
    )
    curves = [
        polynomial_curve([CTX.zero_vector(2), CTX.vector([1, 2])]),
        polynomial_curve([CTX.vector([1, 0]), CTX.vector([0, 1]), CTX.vector([1, 1])]),
    ]
    cfg = ProbeConfig(order=2, region=CTX.unit_ball(2), samples=3, seed=67)
    out = boman_experiment(f, curves, 2, cfg)
    assert out["compositions_smooth"] and out["function_smooth"]
    assert out["consistent"]


def test_boman_counterexample_with_analytic_curves_disagrees():
    f41 = build_gallery("thm41", CTX, m=1)
    cf = build_counterexample(CTX, 1)
    curves = [
        polynomial_curve([CTX.zero_vector(2), CTX.vector([1, 1])]),
        polynomial_curve([CTX.zero_vector(2), CTX.vector([2, 1]), CTX.vector([0, 3])]),
        polynomial_curve([CTX.zero_vector(2), CTX.zero_vector(2), CTX.vector([1, 2])]),
    ]
    cfg = ProbeConfig(
        order=1, region=CTX.unit_ball(2), j0=2, j1=8, samples=3, seed=71
    )
    param_region = Ball(CTX.vector([0]), -2)
    out = boman_experiment(
        f41,
        curves,
        1,
        cfg,
        param_region=param_region,
        focus=witness_focus(cf, 7),
    )
    # every sampled composition looks smooth, yet the function itself
    # fails at order zero: exactly the gap the finite family cannot see
    assert out["compositions_smooth"]
    assert not out["function_smooth"]
    assert not out["consistent"]


def test_boman_patchwork_curve_detects_failure():
    f41 = build_gallery("thm41", CTX, m=1)
    cf = build_counterexample(CTX, 1)
    rows = discontinuity_witness(cf, 4)
    anchors = [PadicVector(list(r["x"].entries) + [r["y"]]) for r in rows]
    pw = patchwork_curve(CTX, 4, target_dim=2, anchors=anchors)
    curve = pw.as_curve()
    centers = [PadicVector([c]) for c in pw.centers]
    limit = PadicVector([pw.limit_point()])
    cfg = ProbeConfig(order=0, region=CTX.unit_ball(2), samples=2, seed=73)
    out = boman_experiment(
        f41,
        [curve],
        0,
        cfg,
        param_region=Ball(limit, -1),
        focus=witness_focus(cf, 7),
        curve_focus={0: centers},
    )
    assert not out["compositions_smooth"]
    assert out["curves"][0]["witnesses"]


# -- scaling inequality ------------------------------------------------------------


def test_scaling_inequality_identity_function():
    out = scaling_inequality_check(
        IDENT,
        q=CTX.scalar(Fraction(1, 5)),
        radius_exponent=0,
        r=Fraction(1),
        log_b=Fraction(-40),
        log_c1=Fraction(0),
        seed=79,
    )
    assert out["passed"], out


def test_scaling_inequality_rejects_small_q():
    with pytest.raises(ValueError):
        scaling_inequality_check(
            IDENT,
            q=CTX.scalar(5),
            radius_exponent=0,
            r=Fraction(1),
            log_b=Fraction(0),
            log_c1=Fraction(0),
        )


# -- lost walks -----------------------------------------------------------------------


class Nowhere(Poly):
    """A function whose domain the probes never hit."""

    def evaluate(self, x):
        raise DomainError("outside the domain everywhere")


@pytest.mark.parametrize("order", [0, 1])
def test_probes_measuring_nothing_are_indeterminate(order):
    f = Nowhere(MultiPolynomial.univariate([CTX.vector([1])]))
    cfg = ProbeConfig(order=order, region=UNIT1, samples=3, seed=83)
    rep = continuity_probe(f, cfg)
    assert rep.verdict == Verdict.INDETERMINATE
    assert rep.skipped == (3 if order == 0 else 6) and rep.rows == []
    out = local_boundedness_probe(f, cfg)
    assert out["verdict"] == Verdict.INDETERMINATE.value
    assert out["skipped"] == 3


def test_boundedness_probe_counts_walks_cut_short_at_precision_8():
    # Every quotient walk of the cubic runs out of digits before its last
    # stage: the values measured still bound the norm, but no walk
    # finished, so boundedness is not granted.
    td8 = FieldContext(Prime(5), backend="digits", precision=8)
    f = Poly(MultiPolynomial.univariate([td8.vector([c]) for c in (0, 2, 0, 1)]))
    cfg = ProbeConfig(order=1, region=td8.unit_ball(1), samples=3, seed=3)
    out = local_boundedness_probe(f, cfg)
    assert out["indeterminate"] == 3
    assert out["verdict"] == Verdict.INDETERMINATE.value
    assert Fraction(out["max_norm"]) > 0
