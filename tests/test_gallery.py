"""Counterexample constructions: digit family, moving bump, patchwork."""

from fractions import Fraction
from random import Random

import pytest

from ultracalc.engine import UpsilonPoint, upsilon
from ultracalc.errors import PrecisionExhausted
from ultracalc.field import Ball, FieldContext, PadicVector, Prime
from ultracalc.functions import build_gallery, polynomial_curve
from ultracalc.gallery import (
    CounterexampleF,
    HFamily,
    build_counterexample,
    curve_flatness_check,
    discontinuity_witness,
    patchwork_curve,
)
from ultracalc.verify import (
    random_increment,
    random_integral_vector,
    random_nonneg_unit_bounded,
    random_unit_bounded,
)

CTX = FieldContext(Prime(5))
FAM = HFamily(CTX, 1)
CF = CounterexampleF(FAM)


# -- digit family ----------------------------------------------------------------


def test_h_vanishes_at_zero():
    for j in (0, 1):
        assert FAM.eval(j, CTX.zero()).is_zero()


def test_h_single_digit_values():
    # m = 1: reindexing exponents are n**4 + n for member 0, n**2 + n
    # for member 1; at y = pi both give pi**2
    y = CTX.pi()
    assert FAM.eval(1, y) == CTX.pi_pow(2)
    assert FAM.eval(0, y) == CTX.pi_pow(2)
    y2 = CTX.pi_pow(2)
    assert FAM.eval(1, y2) == CTX.pi_pow(6)
    assert FAM.eval(0, y2) == CTX.pi_pow(18)


def test_h_valuation_separation_near_zero():
    # |h_0| < |h_1| strictly once past the first digit shell
    for k in range(2, 8):
        y = CTX.pi_pow(k)
        assert FAM.eval(0, y).valuation() > FAM.eval(1, y).valuation()


def test_h_multi_digit_sum():
    y = CTX.scalar(5 + 2 * 25)  # digits a_1 = 1, a_2 = 2
    expect = CTX.pi_pow(2) + CTX.scalar(2) * CTX.pi_pow(6)
    assert FAM.eval(1, y) == expect


def test_h_growth_margins_eventually_increase():
    fam2 = HFamily(CTX, 2)
    for fam in (FAM, fam2):
        table = fam.growth_table(n_max=4, k_max=8)
        for row in table["separation"]:
            margins = row["margins"]
            # strictly increasing tail and a positive final margin
            assert margins[-1] > margins[-2] > margins[-3]
            assert margins[-1] > 0
        for row in table["vanishing"]:
            margins = row["margins"]
            assert margins[-1] > margins[-2]
            assert margins[-1] > 0


# -- moving bump -----------------------------------------------------------------


def test_f_vanishes_on_zero_section():
    rng = Random(1)
    for _ in range(50):
        x = random_integral_vector(CTX, rng, 1)
        assert CF.evaluate(x, CTX.zero()).is_zero()


def test_f_is_one_at_bump_center():
    for k in (1, 2, 3, 5):
        y = CTX.pi_pow(k)
        x = CF.h_vector(y)
        assert CF.evaluate(x, y) == CTX.one()


def test_f_total_outside_unit_ball():
    # negative digit positions collide under reindexing; the gate is
    # then computed from the summed series and evaluation stays total
    y = CTX.scalar(Fraction(7, 5))
    x = CTX.vector([3])
    value = CF.evaluate(x, y)
    assert value == CTX.zero() or value == CTX.one()
    centered = CF.h_vector(y)
    assert CF.evaluate(centered, y) == CTX.one()


def test_f_vanishes_outside_gate():
    y = CTX.pi_pow(2)
    # x far from h(y) relative to |h_0(y)|
    x = CF.h_vector(y) + CTX.vector([1])
    assert CF.evaluate(x, y).is_zero()
    shifted = CF.h_vector(y) + CTX.vector([Fraction(5) ** 7])  # gate is 5**-18
    assert CF.evaluate(shifted, y).is_zero()


def test_witness_certifies_discontinuity():
    rows = discontinuity_witness(CF, 10)
    assert len(rows) == 10
    norms = [r["max_norm"] for r in rows]
    assert all(r["value_norm"] == 1 for r in rows)
    assert all(a > b for a, b in zip(norms, norms[1:]))
    assert norms[-1] < Fraction(1, 5**9)


def test_witness_shifted_off_center_vanishes():
    rows = discontinuity_witness(CF, 6)
    for r in rows:
        outside = PadicVector([r["x"][0] + CTX.one()])
        assert CF.evaluate(outside, r["y"]).is_zero()


def test_flatness_along_diagonal_curve():
    u = polynomial_curve([CTX.zero_vector(2), CTX.vector([1, 1])])
    out = curve_flatness_check(CF, u)
    assert out["passed"] and out["samples"] > 0


def test_flatness_constant_zero_curve():
    u = polynomial_curve([CTX.zero_vector(2)])
    out = curve_flatness_check(CF, u)
    assert out["passed"]


def test_flatness_high_order_tangency():
    # curve components vanish to different orders at 0
    u = polynomial_curve(
        [CTX.zero_vector(2), CTX.zero_vector(2), CTX.vector([3, 1]), CTX.vector([1, 2])]
    )
    out = curve_flatness_check(CF, u)
    assert out["passed"]


def test_flatness_requires_vanishing_curve():
    u = polynomial_curve([CTX.vector([1, 1]), CTX.vector([1, 1])])
    with pytest.raises(ValueError):
        curve_flatness_check(CF, u)


def test_gallery_function_wraps_evaluator():
    f = build_gallery("thm41", CTX, m=1)
    y = CTX.pi_pow(3)
    x = CF.h_vector(y)
    point = PadicVector(list(x.entries) + [y])
    assert f.evaluate(point).scalar() == CTX.one()


def test_digit_backend_witness_shallow_and_deep():
    ctx = FieldContext(Prime(5), backend="digits", precision=32)
    cf = build_counterexample(ctx, m=1)
    rows = discontinuity_witness(cf, 2)
    assert all(r["value_norm"] == 1 for r in rows)
    with pytest.raises(PrecisionExhausted):
        discontinuity_witness(cf, 8)


# -- patchwork curve ---------------------------------------------------------------


def test_patchwork_single_piece():
    pw = patchwork_curve(CTX, 1)
    center = pw.centers[0]
    value = pw.at(center)
    assert value == pw.anchors[0]
    assert pw.at(center + CTX.one()).is_zero()


def test_patchwork_supports_pairwise_disjoint():
    pw = patchwork_curve(CTX, 3)
    for a in range(3):
        for b in range(a + 1, 3):
            ball_a = Ball(PadicVector([pw.centers[a]]), pw.support_radius_exponent(a))
            ball_b = Ball(PadicVector([pw.centers[b]]), pw.support_radius_exponent(b))
            assert ball_a.relation(ball_b) == "disjoint"


def test_patchwork_center_gaps_exceed_scales():
    pw = patchwork_curve(CTX, 4)
    for j in range(3):
        gap = (pw.centers[j] - pw.centers[j + 1]).norm()
        scale = Fraction(1, 5 ** pw.scale_exponents[j])
        assert gap > scale


def test_patchwork_zero_outside_supports():
    pw = patchwork_curve(CTX, 3)
    rng = Random(2)
    hits = 0
    for _ in range(40):
        t = CTX.scalar(rng.randrange(-200, 200))
        inside = any(
            (t - pw.centers[j]).norm()
            <= Fraction(1, 5 ** (pw.scale_exponents[j] + 1))
            for j in range(3)
        )
        if not inside:
            hits += 1
            assert pw.at(t).is_zero()
    assert hits > 10


def test_patchwork_rejects_nonincreasing_scales():
    with pytest.raises(ValueError):
        patchwork_curve(CTX, 3, sigma=lambda j: 5 - j)


def test_patchwork_no_point_in_two_pieces():
    pw = patchwork_curve(CTX, 3)
    rng = Random(3)
    for j in range(3):
        ball = Ball(PadicVector([pw.centers[j]]), pw.support_radius_exponent(j))
        for _ in range(10):
            t = CTX.sample_ball(ball, rng).scalar()
            memberships = sum(
                1
                for k in range(3)
                if (t - pw.centers[k]).norm()
                <= Fraction(1, 5 ** (pw.scale_exponents[k] + 1))
            )
            assert memberships == 1


def test_patchwork_quotient_bound_on_pieces():
    pw = patchwork_curve(CTX, 3)
    expr = pw.as_curve().expr
    rng = Random(4)
    for j in range(3):
        ball = Ball(PadicVector([pw.centers[j]]), pw.support_radius_exponent(j))
        for q in (1, 2):
            ceiling = pw.quotient_bound_rhs(j, q, Fraction(1))
            for _ in range(5):
                x = CTX.sample_ball(ball, rng)

                def build(order, displacement):
                    if order == 0:
                        return UpsilonPoint.leaf(
                            PadicVector([random_unit_bounded(CTX, rng, False)])
                            if displacement
                            else x
                        )
                    t = (
                        random_nonneg_unit_bounded(CTX, rng, False)
                        if displacement
                        else random_increment(CTX, rng, 0, 2)
                    )
                    return UpsilonPoint.node(
                        build(order - 1, displacement), build(order - 1, True), t
                    )

                measured = upsilon(expr, build(q, False)).norm()
                assert measured <= ceiling


def test_patchwork_limit_point_outside_supports():
    pw = patchwork_curve(CTX, 3)
    y0 = pw.limit_point()
    assert pw.at(y0).is_zero()


def test_patchwork_custom_anchors_pass_through():
    anchors = [CTX.vector([7, 1]), CTX.vector([2, 3])]
    pw = patchwork_curve(CTX, 2, anchors=anchors)
    assert pw.at(pw.centers[0]) == anchors[0]
    assert pw.at(pw.centers[1]) == anchors[1]
