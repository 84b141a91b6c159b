"""Difference-quotient towers and their operator identities.

Expected values here were frozen from independent derivations: the
order-1 and order-2 quotients of monomials were expanded by hand and
cross-checked against the recursive evaluator before being asserted.
"""

from fractions import Fraction
from random import Random

import pytest

from ultracalc.engine import (
    CheckReport,
    PhiPoint,
    UpsilonPoint,
    chain_phi_low,
    compose_then_phi,
    differential,
    directional_span_rank,
    embed_phi_point,
    leibniz_phi,
    multilinearity_at_zero_check,
    padic_rank,
    phi,
    phi_poly_closed,
    rank_bound,
    scaling_identity_check,
    transposition_symmetry_check,
    upsilon,
    upsilon_poly_closed_low,
    upsilon_sup_bound_check,
    zero_one_directions,
)
from ultracalc import engine
from ultracalc.errors import PrecisionExhausted, UnsupportedOrder, ZeroIncrement
from ultracalc.field import FieldContext, PadicVector, Prime
from ultracalc.functions import (
    BallIndicator,
    FunctionExpr,
    MultiPolynomial,
    Poly,
    Product,
    polynomial_curve,
)
from ultracalc.verify import (
    _attempt,
    random_increment,
    random_integral_vector,
    random_phi_point,
    random_poly,
    random_upsilon_point,
)

CTX = FieldContext(Prime(5))


def poly1(*coeffs):
    return MultiPolynomial.univariate([CTX.vector([c]) for c in coeffs])


IDENTITY = Poly(poly1(0, 1))
SQUARE = Poly(poly1(0, 0, 1))
CUBE = Poly(poly1(0, 0, 0, 1))


def phi_point(x, vs, ts):
    return PhiPoint(
        CTX.vector([x]),
        tuple(CTX.vector([v]) for v in vs),
        tuple(CTX.scalar(t) for t in ts),
    )


# -- evaluators -------------------------------------------------------------


def test_phi_of_identity_returns_direction():
    for v, t in [(3, 5), (Fraction(1, 2), 1), (7, 25)]:
        pt = phi_point(2, [v], [t])
        assert phi(IDENTITY, pt).scalar() == CTX.scalar(v)


def test_phi_of_constant_vanishes():
    const = Poly(poly1(9))
    for n in (1, 2, 3):
        pt = random_phi_point(CTX, Random(n), 1, n)
        assert phi(const, pt).is_zero()


def test_phi_square_frozen_value():
    # ((1 + 5)^2 - 1)/5 = 7 = 2xv + v^2 t at x=v=1, t=5
    pt = phi_point(1, [1], [5])
    assert phi(SQUARE, pt).scalar() == 7


def test_phi_cube_order_two_closed_pattern():
    # second quotient of x^3 at unit directions: 6x + 3t2 + 3t1
    for x, t1, t2 in [(2, 5, 25), (3, 1, 2), (-4, 10, 15)]:
        pt = phi_point(x, [1, 1], [t1, t2])
        assert phi(CUBE, pt).scalar() == CTX.scalar(6 * x + 3 * t2 + 3 * t1)


def test_phi_zero_increment_rejected():
    pt = phi_point(1, [1], [0])
    with pytest.raises(ZeroIncrement):
        phi(SQUARE, pt)



# A nonzero increment that vanishes to working precision, and an exact zero.
TD8 = FieldContext(Prime(5), backend="digits", precision=8)
LOST = TD8.scalar(5**8)


@pytest.mark.parametrize(
    "zero, error", [(LOST, PrecisionExhausted), (TD8.zero(), ZeroIncrement)]
)
def test_every_quotient_guard_tells_lost_increments_from_zero_ones(zero, error):
    square = Poly(MultiPolynomial.univariate([TD8.vector([c]) for c in (0, 0, 1)]))
    x, v, leaf = TD8.vector([3]), TD8.vector([1]), UpsilonPoint.leaf
    u = polynomial_curve([TD8.vector([0]), TD8.vector([1])])
    with pytest.raises(error):
        phi(square, PhiPoint(x, (v,), (zero,)))
    with pytest.raises(error):
        upsilon(square, UpsilonPoint.node(leaf(x), leaf(v), zero))
    with pytest.raises(error):
        chain_phi_low(square, u, PhiPoint(x, (v,), (zero,)))
    with pytest.raises(error):
        chain_phi_low(square, u, PhiPoint(x, (v, v), (TD8.scalar(5), zero)))
    with pytest.raises(error):
        engine._coordinate_quotient(BallIndicator(TD8.unit_ball(1)), x, 0, zero)
    # The closed form of a polynomial node is defined at either zero.
    assert engine._coordinate_quotient(square, x, 0, zero).scalar() == 6


def test_an_exact_zero_increment_outranks_a_lost_one():
    x, v = TD8.vector([3]), TD8.vector([1])
    u = polynomial_curve([TD8.vector([0]), TD8.vector([1])])
    with pytest.raises(ZeroIncrement):
        pt = PhiPoint(x, (v, v), (LOST, TD8.zero()))
        chain_phi_low(Poly(MultiPolynomial.univariate([v, v])), u, pt)

def test_upsilon_identity_gives_middle_displacement():
    base = UpsilonPoint.node(
        UpsilonPoint.leaf(CTX.vector([3])), UpsilonPoint.leaf(CTX.vector([2])), CTX.scalar(5)
    )
    disp = UpsilonPoint.node(
        UpsilonPoint.leaf(CTX.vector([7])), UpsilonPoint.leaf(CTX.vector([11])), CTX.scalar(1)
    )
    pt = UpsilonPoint.node(base, disp, CTX.scalar(25))
    assert upsilon(IDENTITY, pt).scalar() == 11


def test_upsilon_constant_vanishes():
    const = Poly(poly1(4))
    for n in (1, 2, 3):
        pt = random_upsilon_point(CTX, Random(n), 1, n)
        assert upsilon(const, pt).is_zero()


def test_quotient_towers_are_linear():
    rng = Random(55)
    for n in (1, 2, 3):
        f = Poly(random_poly(CTX, rng, degree_max=4))
        g = Poly(random_poly(CTX, rng, degree_max=4))
        a = CTX.scalar(Fraction(3, 7))
        b = CTX.scalar(-2)
        combo = Poly(
            MultiPolynomial.univariate(
                [
                    PadicVector(
                        [
                            (f.polynomial.univariate_coeff(k) or CTX.zero_vector(1))[0] * a
                            + (g.polynomial.univariate_coeff(k) or CTX.zero_vector(1))[0] * b
                        ]
                    )
                    for k in range(5)
                ]
            )
        )
        pt = random_phi_point(CTX, rng, 1, n)
        assert phi(combo, pt) == phi(f, pt) * a + phi(g, pt) * b
        upt = random_upsilon_point(CTX, rng, 1, min(n, 2))
        assert upsilon(combo, upt) == upsilon(f, upt) * a + upsilon(g, upt) * b


def test_order_one_towers_coincide():
    rng = Random(8)
    for _ in range(25):
        f = Poly(random_poly(CTX, rng, degree_max=4))
        x = random_integral_vector(CTX, rng, 1)
        v = random_integral_vector(CTX, rng, 1)
        t = random_increment(CTX, rng)
        ppt = PhiPoint(x, (v,), (t,))
        upt = UpsilonPoint.node(UpsilonPoint.leaf(x), UpsilonPoint.leaf(v), t)
        assert phi(f, ppt) == upsilon(f, upt)


def test_upsilon_flatten_count_doubles():
    rng = Random(2)
    for n in range(4):
        pt = random_upsilon_point(CTX, rng, 1, n)
        assert len(pt.flatten()) == 2 ** (n + 1) - 1


# -- restriction embedding ----------------------------------------------------


def test_embedding_order_one_is_same_triple():
    pt = phi_point(2, [3], [5])
    e = embed_phi_point(pt)
    assert e.base.point == pt.x
    assert e.disp.point == pt.vs[0]
    assert e.t == pt.ts[0]


def test_embedding_of_order_zero_is_same_point():
    pt = PhiPoint(CTX.vector([9]), (), ())
    e = embed_phi_point(pt)
    assert e.order == 0 and e.point == pt.x


def test_upsilon_restricts_to_phi_through_embedding():
    rng = Random(3)
    corpus = [SQUARE, CUBE, BallIndicator(CTX.unit_ball(1)), Product(SQUARE, IDENTITY)]
    for n in (1, 2, 3):
        for f in corpus:
            pt = random_phi_point(CTX, rng, 1, n)
            assert upsilon(f, embed_phi_point(pt)) == phi(f, pt)


# -- closed forms --------------------------------------------------------------


def test_phi_poly_closed_cube_order_two():
    # frozen expansion: 6 x v1 v2 + 3 v1 v2^2 t2 + 3 v1^2 v2 t1
    rng = Random(5)
    for _ in range(10):
        x, v1, v2 = (rng.randrange(-9, 10) for _ in range(3))
        t1, t2 = (rng.randrange(1, 20) for _ in range(2))
        pt = phi_point(x, [v1, v2], [t1, t2])
        expect = 6 * x * v1 * v2 + 3 * v1 * v2**2 * t2 + 3 * v1**2 * v2 * t1
        assert phi_poly_closed(poly1(0, 0, 0, 1), pt).scalar() == CTX.scalar(expect)


def test_phi_poly_closed_matches_recursion():
    rng = Random(6)
    for _ in range(40):
        u = random_poly(CTX, rng, degree_max=4, l=2)
        n = rng.choice((1, 2, 3))
        pt = random_phi_point(CTX, rng, 1, n)
        assert phi_poly_closed(u, pt) == phi(Poly(u), pt)


def test_phi_poly_closed_beyond_degree_is_zero():
    pt = random_phi_point(CTX, Random(1), 1, 3)
    assert phi_poly_closed(poly1(4, 2, 1), pt).is_zero()


def test_phi_poly_closed_extends_to_zero_increments():
    # order-1 extension of x^2 at t = 0 is 2xv; checked against the
    # limit of the recursion along t = 5^k
    x, v = 3, 7
    closed = phi_poly_closed(
        poly1(0, 0, 1), phi_point(x, [v], [0])
    ).scalar()
    assert closed == CTX.scalar(2 * x * v)
    for k in (1, 3, 6):
        t = Fraction(5) ** k
        brute = phi(SQUARE, phi_point(x, [v], [t])).scalar()
        assert (brute - closed).valuation() >= k


def test_upsilon_closed_low_order_one_pattern():
    # v*(2x + v*t1) for x^2
    rng = Random(7)
    for _ in range(10):
        x, v = rng.randrange(-9, 10), rng.randrange(-9, 10)
        t1 = rng.randrange(1, 9)
        pt = UpsilonPoint.node(
            UpsilonPoint.leaf(CTX.vector([x])),
            UpsilonPoint.leaf(CTX.vector([v])),
            CTX.scalar(t1),
        )
        got = upsilon_poly_closed_low(poly1(0, 0, 1), pt).scalar()
        assert got == CTX.scalar(v * (2 * x + v * t1))


def test_upsilon_closed_low_matches_recursion():
    rng = Random(9)
    for _ in range(40):
        u = random_poly(CTX, rng, degree_max=4)
        n = rng.choice((1, 2))
        pt = random_upsilon_point(CTX, rng, 1, n)
        assert upsilon_poly_closed_low(u, pt) == upsilon(Poly(u), pt)


def test_upsilon_closed_low_constant_and_order_guard():
    pt = random_upsilon_point(CTX, Random(2), 1, 2)
    assert upsilon_poly_closed_low(poly1(8), pt).is_zero()
    pt3 = random_upsilon_point(CTX, Random(3), 1, 3)
    with pytest.raises(UnsupportedOrder):
        upsilon_poly_closed_low(poly1(0, 1), pt3)


def test_differential_exposes_both_normalizations():
    out = differential(poly1(0, 0, 0, 1), CTX.scalar(2), [CTX.scalar(1), CTX.scalar(1)])
    assert out["raw"].scalar() == CTX.scalar(12)  # 6x at x=2
    assert out["factorial_scaled"].scalar() == CTX.scalar(24)


# -- sup bound ------------------------------------------------------------------


def test_sup_bound_on_unit_polydisk():
    rng = Random(12)
    u = poly1(1, Fraction(1, 2), 0, 1)
    pts = [random_upsilon_point(CTX, rng, 1, 1 + i % 3) for i in range(100)]
    out = upsilon_sup_bound_check(u, pts)
    assert out["passed"]
    assert Fraction(out["max_attained"]) <= Fraction(out["bound"])


def test_sup_bound_zero_polynomial():
    rng = Random(13)
    u = MultiPolynomial.univariate([CTX.zero_vector(1)])
    pts = [random_upsilon_point(CTX, rng, 1, 1) for _ in range(10)]
    out = upsilon_sup_bound_check(u, pts)
    assert out["passed"] and Fraction(out["max_attained"]) == 0


def test_sup_bound_scaled_polynomial_tightens():
    rng = Random(14)
    u = poly1(0, 5)  # coefficient norm 1/5
    pts = [random_upsilon_point(CTX, rng, 1, 1) for _ in range(60)]
    out = upsilon_sup_bound_check(u, pts)
    assert out["passed"]
    assert Fraction(out["bound"]) == Fraction(1, 5)


def test_sup_bound_separates_violations_from_apparent_zeros(monkeypatch):
    import ultracalc.engine as engine
    from ultracalc.field import DigitScalar

    td = FieldContext(Prime(5), backend="digits", precision=32)
    u = MultiPolynomial.univariate([td.vector([0]), td.vector([25])])  # bound 1/25
    pts = [random_upsilon_point(td, Random(15), 1, 1)]

    def check_with(value):
        monkeypatch.setattr(engine, "upsilon", lambda f, pt: value)
        return upsilon_sup_bound_check(u, pts)

    # Known digits of norm 1/5 above the bound: a real violation.
    out = check_with(td.vector([5]))
    assert [v["norm"] for v in out["failures"]] == ["1/5"]
    assert out["indeterminate"] == 0 and not out["passed"]

    # O(p^1) only has norm <= 1/5: the bound neither holds nor fails.
    out = check_with(PadicVector([DigitScalar.apparent_zero(td, 1)]))
    assert out["failures"] == [] and out["indeterminate"] == 1
    assert not out["passed"]

    # O(p^2) has norm <= 1/25 and passes.
    out = check_with(PadicVector([DigitScalar.apparent_zero(td, 2)]))
    assert out["passed"] and out["indeterminate"] == 0


def test_sup_bound_rejects_points_outside_polydisk():
    u = poly1(0, 1)
    big = UpsilonPoint.node(
        UpsilonPoint.leaf(CTX.vector([Fraction(1, 5)])),
        UpsilonPoint.leaf(CTX.vector([1])),
        CTX.scalar(1),
    )
    with pytest.raises(ValueError):
        upsilon_sup_bound_check(u, [big])


# -- product rule ----------------------------------------------------------------


def test_leibniz_first_order_identity_pair():
    pt = phi_point(1, [1], [5])
    got = leibniz_phi(IDENTITY, IDENTITY, pt)
    assert got.scalar() == 7  # 2xv + v^2 t
    assert got == phi(SQUARE, pt)


def test_leibniz_constant_factor_reduces_to_scaling():
    rng = Random(15)
    c = CTX.scalar(Fraction(3, 7))
    const = Poly(poly1(Fraction(3, 7)))
    for n in (1, 2, 3):
        g = Poly(random_poly(CTX, rng, degree_max=4))
        pt = random_phi_point(CTX, rng, 1, n)
        assert leibniz_phi(const, g, pt) == phi(g, pt) * c


def test_leibniz_second_order_against_cube():
    rng = Random(16)
    for _ in range(10):
        pt = random_phi_point(CTX, rng, 1, 2)
        lhs = leibniz_phi(IDENTITY, SQUARE, pt)
        assert lhs == phi(CUBE, pt)


def test_leibniz_matches_product_recursion_random():
    rng = Random(17)
    for _ in range(20):
        f = Poly(random_poly(CTX, rng, degree_max=4))
        g = Poly(random_poly(CTX, rng, degree_max=4))
        n = rng.choice((1, 2, 3))
        pt = random_phi_point(CTX, rng, 1, n)
        assert leibniz_phi(f, g, pt) == phi(Product(f, g), pt)


# -- composition rule -------------------------------------------------------------


def test_chain_order_one_single_coordinate():
    # m = 1: one term with the curve increment as the new increment
    u = polynomial_curve([CTX.vector([1]), CTX.vector([2]), CTX.vector([1])])
    f = SQUARE
    pt = phi_point(3, [2], [5])
    assert chain_phi_low(f, u, pt) == compose_then_phi(f, u, pt)


def test_chain_affine_curve_exact():
    u = polynomial_curve([CTX.vector([2, 1]), CTX.vector([1, 3])])
    f = Poly(
        MultiPolynomial(2, 1, {(2, 0): CTX.vector([1]), (0, 1): CTX.vector([4])})
    )
    for n in (1, 2):
        pt = random_phi_point(CTX, Random(20 + n), 1, n)
        assert chain_phi_low(f, u, pt) == compose_then_phi(f, u, pt)


def test_chain_constant_function_vanishes():
    u = polynomial_curve([CTX.vector([1]), CTX.vector([1])])
    const = Poly(poly1(11))
    for n in (1, 2):
        pt = random_phi_point(CTX, Random(30 + n), 1, n)
        assert chain_phi_low(const, u, pt).is_zero()


def test_chain_random_pairs_both_orders():
    rng = Random(21)
    for case in range(20):
        m = 1 + case % 3
        f = Poly(random_poly(CTX, rng, degree_max=3, m=m))
        u = polynomial_curve(
            [random_integral_vector(CTX, rng, m) for _ in range(3)]
        )
        n = 1 + case % 2
        pt = random_phi_point(CTX, rng, 1, n)
        assert chain_phi_low(f, u, pt) == compose_then_phi(f, u, pt)


def test_chain_handles_constant_coordinates():
    # one coordinate of the curve is constant: its increments vanish
    u = polynomial_curve([CTX.vector([3, 0]), CTX.vector([0, 1])])
    f = Poly(
        MultiPolynomial(2, 1, {(1, 1): CTX.vector([1]), (2, 0): CTX.vector([1])})
    )
    for n in (1, 2):
        pt = random_phi_point(CTX, Random(40 + n), 1, n)
        assert chain_phi_low(f, u, pt) == compose_then_phi(f, u, pt)


def test_chain_order_guard():
    u = polynomial_curve([CTX.vector([0]), CTX.vector([1])])
    pt = random_phi_point(CTX, Random(50), 1, 3)
    with pytest.raises(UnsupportedOrder):
        chain_phi_low(SQUARE, u, pt)


def test_chain_order_two_nonpolynomial_needs_nonzero_sections():
    # a constant curve coordinate zeroes the section increment; only a
    # polynomial node supplies the extension there
    u = polynomial_curve([CTX.vector([3, 0]), CTX.vector([0, 1])])
    psi = BallIndicator(CTX.unit_ball(2))
    pt = random_phi_point(CTX, Random(51), 1, 2)
    with pytest.raises(ZeroIncrement):
        chain_phi_low(psi, u, pt)


# -- scaling identities ------------------------------------------------------------


def test_scaling_identities_polynomial():
    pt = phi_point(2, [3], [5])
    rep = scaling_identity_check(SQUARE, pt, CTX.scalar(5), CTX.scalar(25))
    assert rep.passed


def test_check_report_without_samples_has_not_passed():
    # A check that sampled nothing has shown nothing: no vacuous pass.
    report = CheckReport("empty")
    assert not report.passed and report.to_json()["passed"] is False
    report.merge(CheckReport("one", samples=1))
    assert report.passed


def test_scaling_identity_unit_factor_trivial():
    pt = phi_point(1, [1], [5])
    rep = scaling_identity_check(CUBE, pt, CTX.one(), CTX.one())
    assert rep.passed


def test_scaling_identities_indicator_random_units():
    rng = Random(23)
    psi = BallIndicator(CTX.unit_ball(1))
    for _ in range(10):
        pt = random_phi_point(CTX, rng, 1, 1)
        a = random_increment(CTX, rng, 0, 1)
        T = random_increment(CTX, rng, 0, 1)
        rep = scaling_identity_check(psi, pt, a, T)
        assert rep.passed


# -- symmetry ------------------------------------------------------------------


def test_transposition_symmetry_cube():
    rng = Random(24)
    for _ in range(10):
        pt = random_phi_point(CTX, rng, 1, 2)
        swapped = pt.permuted((1, 0))
        assert phi(CUBE, pt) == phi(CUBE, swapped)


def test_transposition_symmetry_order_one_vacuous():
    pt = random_phi_point(CTX, Random(25), 1, 1)
    rep = transposition_symmetry_check(SQUARE, pt)
    assert rep.passed and rep.samples == 1


def test_transposition_symmetry_product_order_three():
    rng = Random(26)
    f = Product(Poly(random_poly(CTX, rng, degree_max=2)), Poly(random_poly(CTX, rng, degree_max=2)))
    pt = random_phi_point(CTX, rng, 1, 3)
    rep = transposition_symmetry_check(f, pt)
    assert rep.passed and rep.samples == 6


# -- multilinearity at zero increments ----------------------------------------------


def test_multilinearity_scaling_slot():
    u = poly1(0, 0, 0, 1)
    rep = multilinearity_at_zero_check(
        u,
        CTX.scalar(3),
        [CTX.scalar(2), CTX.scalar(5)],
        CTX.scalar(1),
        CTX.scalar(2),
    )
    assert rep.passed


def test_multilinearity_zero_direction_annihilates():
    u = poly1(0, 0, 0, 1)
    pt = PhiPoint(
        CTX.vector([2]),
        (CTX.vector([0]), CTX.vector([3])),
        (CTX.zero(), CTX.zero()),
    )
    assert phi_poly_closed(u, pt).is_zero()


def test_multilinearity_symmetry_at_zero():
    u = poly1(1, 2, 0, 1)
    rep = multilinearity_at_zero_check(
        u,
        CTX.scalar(2),
        [CTX.scalar(3), CTX.scalar(7), CTX.scalar(11)],
        CTX.scalar(4),
        CTX.scalar(6),
    )
    assert rep.passed


# -- rank probe -----------------------------------------------------------------


def test_rank_bound_single_direction():
    rng = Random(27)
    grid = [
        (random_integral_vector(CTX, rng, 1), (random_increment(CTX, rng),))
        for _ in range(10)
    ]
    assert directional_span_rank(SQUARE, 1, 1, grid) <= rank_bound(1, 1) == 1
    assert directional_span_rank(SQUARE, 1, 1, grid) == 1


def test_rank_of_zero_function():
    rng = Random(28)
    zero = Poly(MultiPolynomial.univariate([CTX.zero_vector(1)]))
    grid = [
        (random_integral_vector(CTX, rng, 1), (random_increment(CTX, rng),))
        for _ in range(6)
    ]
    assert directional_span_rank(zero, 1, 1, grid) == 0


def test_rank_linear_function_collapses():
    rng = Random(29)
    f = Poly(
        MultiPolynomial(
            2, 1, {(1, 0): CTX.vector([2]), (0, 1): CTX.vector([3])}
        )
    )
    grid = [
        (
            random_integral_vector(CTX, rng, 2),
            (random_increment(CTX, rng),),
        )
        for _ in range(12)
    ]
    r = directional_span_rank(f, 1, 2, grid)
    assert r <= 2  # columns over 0/1 directions combine linearly


def test_rank_bound_generic_b2_n2():
    rng = Random(30)
    f = Poly(random_poly(CTX, rng, degree_max=3, m=2))
    grid = [
        (
            random_integral_vector(CTX, rng, 2),
            tuple(random_increment(CTX, rng) for _ in range(2)),
        )
        for _ in range(20)
    ]
    assert directional_span_rank(f, 2, 2, grid) <= rank_bound(2, 2) == 9


def test_zero_one_direction_enumeration():
    cols = zero_one_directions(CTX, 2, 2)
    assert len(cols) == 9
    singles = zero_one_directions(CTX, 3, 1)
    assert len(singles) == 7


def test_padic_rank_prefers_max_norm_pivots():
    rows = [
        [CTX.scalar(5), CTX.scalar(1)],
        [CTX.scalar(25), CTX.scalar(7)],
    ]
    assert padic_rank(rows) == 2
    rows2 = [
        [CTX.scalar(5), CTX.scalar(10)],
        [CTX.scalar(1), CTX.scalar(2)],
    ]
    assert padic_rank(rows2) == 1



# -- leaf memo within one sample ---------------------------------------------------


class _Counted(FunctionExpr):
    """``inner`` with a count of its evaluations; raises when ``fail`` is set."""

    def __init__(self, inner, fail=False):
        self.inner, self.fail, self.calls = inner, fail, 0
        self.input_dim, self.output_dim = inner.input_dim, inner.output_dim

    def evaluate(self, x):
        self.calls += 1
        if self.fail:
            raise PrecisionExhausted("leaf out of digits")
        return self.inner.evaluate(x)


def test_leaf_memo_is_set_only_for_the_span_of_one_sample():
    report = CheckReport("memo")
    seen = []
    assert engine._LEAF_MEMO.get() is None
    _attempt(report, lambda: seen.append(engine._LEAF_MEMO.get()))
    _attempt(report, lambda: seen.append(engine._LEAF_MEMO.get()))
    assert seen == [{}, {}] and seen[0] is not seen[1]
    assert engine._LEAF_MEMO.get() is None

    def lost():
        raise PrecisionExhausted("out of digits")

    def broken():
        raise ValueError("not a sample's failure")

    assert _attempt(report, lost) is None and report.indeterminate == 1
    assert engine._LEAF_MEMO.get() is None
    with pytest.raises(ValueError):
        _attempt(report, broken)
    assert engine._LEAF_MEMO.get() is None


@pytest.mark.parametrize("backend", ["exact", "digits"])
def test_leaf_memo_hit_equals_recomputation(backend):
    ctx = FieldContext(Prime(5), backend=backend, precision=32)
    rng = Random(11)
    f = _Counted(Poly(random_poly(ctx, rng, degree_max=4)))
    pt = random_phi_point(ctx, rng, 1, 3)
    plain = transposition_symmetry_check(f, pt).to_json()
    assert f.calls == 7 * 2**3
    f.calls = 0
    shared = _attempt(CheckReport("memo"), lambda: transposition_symmetry_check(f, pt))
    # Every permutation meets the same 2**3 points x + sum of some v_i t_i.
    assert f.calls == 2**3
    assert shared.to_json() == plain
    g = _Counted(Poly(random_poly(ctx, rng, degree_max=3)))
    upt = random_upsilon_point(ctx, rng, 1, 2)
    assert _attempt(CheckReport("memo"), lambda: upsilon(g, upt)) == upsilon(g, upt)


def test_a_raising_leaf_is_not_cached():
    f = _Counted(SQUARE, fail=True)
    pt = phi_point(2, [1], [5])
    outcomes = []

    def twice():
        for _ in range(2):
            with pytest.raises(PrecisionExhausted, match="leaf out of digits"):
                phi(f, pt)
            outcomes.append(f.calls)
        return True

    assert _attempt(CheckReport("memo"), twice)
    assert outcomes == [1, 2]
