"""Expression trees: evaluation, composition, serialization."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultracalc.errors import (
    BackendMismatch,
    DimensionMismatch,
    DomainError,
    PrecisionExhausted,
    PrimeMismatch,
)
from ultracalc.field import Ball, FieldContext, Prime
from ultracalc.functions import (
    AffinePrecompose,
    BallIndicator,
    Compose,
    Curve,
    MultiPolynomial,
    Poly,
    Product,
    Scale,
    Shift,
    Sum,
    affine_curve,
    build_gallery,
    compose,
    expr_from_json,
    gallery_names,
    polynomial_curve,
)

CTX = FieldContext(Prime(5))


def univariate(*coeffs):
    return Poly(MultiPolynomial.univariate([CTX.vector([c]) for c in coeffs]))


def test_poly_square_at_three():
    f = univariate(0, 0, 1)
    assert f.evaluate(CTX.vector([3])).scalar() == 9


def test_ball_indicator_inside_and_outside():
    psi = BallIndicator(CTX.ball([0], -1))  # radius |pi|
    assert psi.evaluate(CTX.vector([5])).scalar() == 1
    assert psi.evaluate(CTX.vector([1])).scalar() == 0


def test_compose_sum_curve():
    f = Poly(
        MultiPolynomial(
            2, 1, {(1, 0): CTX.vector([1]), (0, 1): CTX.vector([1])}
        )
    )
    u = polynomial_curve([CTX.vector([0, 0]), CTX.vector([1, 0]), CTX.vector([0, 1])])
    comp = compose(f, u)
    assert comp.evaluate(CTX.vector([2])).scalar() == 6


def test_compose_identity_and_constant():
    u = polynomial_curve([CTX.vector([1, 1]), CTX.vector([2, 3])])
    ident = Poly(
        MultiPolynomial(
            2, 2, {(1, 0): CTX.vector([1, 0]), (0, 1): CTX.vector([0, 1])}
        )
    )
    comp = compose(ident, u)
    t = CTX.vector([7])
    assert comp.evaluate(t) == u.expr.evaluate(t)

    const = Poly(MultiPolynomial(2, 1, {(0, 0): CTX.vector([9])}))
    assert compose(const, u).evaluate(t).scalar() == 9


def test_compose_indicator_with_scaled_curves():
    # |t/5| = 5|t|, so pulling the unit-ball indicator back through
    # t -> t/5 shrinks the support to B(0, 1/5) ...
    f = BallIndicator(CTX.ball([0], 0))
    shrink = compose(f, polynomial_curve([CTX.vector([0]), CTX.vector([Fraction(1, 5)])]))
    assert shrink.evaluate(CTX.vector([5])).scalar() == 1
    assert shrink.evaluate(CTX.vector([1])).scalar() == 0
    # ... while t -> 5t expands it to B(0, 5).
    grow = compose(f, polynomial_curve([CTX.vector([0]), CTX.vector([5])]))
    assert grow.evaluate(CTX.vector([Fraction(1, 5)])).scalar() == 1
    assert grow.evaluate(CTX.vector([Fraction(1, 25)])).scalar() == 0
    assert grow.evaluate(CTX.vector([1])).scalar() == 1


def test_compose_associativity_on_random_points():
    rng = Random(4)
    f = univariate(1, 2, 1)
    u = polynomial_curve([CTX.vector([0]), CTX.vector([2]), CTX.vector([1])])
    w = polynomial_curve([CTX.vector([1]), CTX.vector([3])])
    left = compose(compose(f, u), w)
    for _ in range(20):
        t = CTX.vector([rng.randrange(-30, 30)])
        inner = w.expr.evaluate(t)
        expected = f.evaluate(u.expr.evaluate(inner))
        assert left.evaluate(t) == expected


def _monomial_sum(poly, x):
    """Reference value: every term's coefficient times its monomial, summed."""
    ctx = x.entries[0].context()
    acc = ctx.zero_vector(poly.l)
    for exponents, coeff in poly.terms.items():
        mon = ctx.one()
        for xi, e in zip(x.entries, exponents):
            mon = mon * xi**e
        acc = acc + coeff * mon
    return acc


def test_tree_eval_matches_horner():
    rng = Random(11)
    for ctx in (CTX, FieldContext(Prime(5), backend="digits")):
        for _ in range(25):
            m = rng.randrange(1, 4)
            terms = {}
            for _ in range(rng.randrange(1, 6)):
                e = tuple(rng.randrange(0, 4) for _ in range(m))
                terms[e] = ctx.vector(
                    [Fraction(rng.randrange(-9, 10), rng.choice((1, 2, 3))) for _ in range(2)]
                )
            poly = MultiPolynomial(m, 2, terms)
            x = ctx.vector(
                [Fraction(rng.randrange(-20, 20), rng.choice((1, 3, 5))) for _ in range(m)]
            )
            assert poly.evaluate(x) == _monomial_sum(poly, x)


# Rationals with 5 in the numerator or the denominator, and zero.
RATIONALS = st.builds(
    lambda n, d, v: Fraction(n, d) * Fraction(5) ** v,
    st.integers(-30, 30),
    st.sampled_from((1, 2, 3, 7)),
    st.integers(-3, 3),
)


@st.composite
def exact_polynomials(draw):
    """A polynomial of 1-3 variables and 1-2 coordinates, possibly with
    no terms or with a coordinate that is zero in every term."""
    m = draw(st.integers(1, 3))
    l = draw(st.integers(1, 2))
    zero_coord = draw(st.sampled_from((None, *range(l))))
    terms = {}
    for e in draw(st.lists(st.tuples(*[st.integers(0, 4)] * m), max_size=6)):
        coeff = [draw(RATIONALS) for _ in range(l)]
        if zero_coord is not None:
            coeff[zero_coord] = 0
        terms[e] = CTX.vector(coeff)
    return MultiPolynomial(m, l, terms)


@settings(max_examples=200, deadline=None)
@given(poly=exact_polynomials(), data=st.data())
def test_exact_evaluate_matches_monomial_sum(poly, data):
    # Two points: the second evaluation reuses the integer form.
    for _ in range(2):
        x = CTX.vector(data.draw(st.lists(RATIONALS, min_size=poly.m, max_size=poly.m)))
        value = poly.evaluate(x)
        want = [e.value for e in _monomial_sum(poly, x)]
        assert [e.value for e in value] == want
        # The stored pair itself is canonical: ``value`` would reduce an
        # unreduced one and hide it.
        assert [(e.num, e.den) for e in value] == [(v.numerator, v.denominator) for v in want]
        assert all(e.context() is CTX for e in value)


def _step_horner(poly, x):
    """Reference value: the nested Horner rule stepped through scalar and
    vector arithmetic, one multiplication by x[axis] per exponent."""
    ctx = x.entries[0].context()

    def horner(axis, terms):
        if not terms:
            return ctx.zero_vector(poly.l)
        # Group the terms by their exponent of x[axis], keeping their order.
        layers = {}
        for e, c in terms.items():
            layers.setdefault(e[axis], {})[e] = c
        acc = ctx.zero_vector(poly.l)
        for k in range(max(layers), -1, -1):
            acc = acc * x[axis]
            layer = layers.get(k)
            if not layer:
                continue
            if axis == poly.m - 1:
                for c in layer.values():
                    acc = acc + c
            else:
                acc = acc + horner(axis + 1, layer)
        return acc

    return horner(0, poly.terms)


def _outcome(evaluate, poly, x):
    """Every coordinate's (val, unit, abs_prec, exact_digits), or the error."""
    try:
        value = evaluate(poly, x)
    except Exception as exc:  # compared by class and message
        return type(exc), str(exc)
    return [(e.val, e.unit, e.abs_prec, e.exact_digits) for e in value]


def digit_values(precision):
    """Exact zeros, nonzero values that vanish to ``precision`` digits,
    terminating expansions (positive p-adic integers up to a power of 5),
    and the rest of RATIONALS: negative valuations, non-terminating units."""
    return st.one_of(
        st.just(0) | st.integers(0, 2).map(lambda j: Fraction(5) ** (precision + j)),
        st.builds(
            lambda n, v: Fraction(n) * Fraction(5) ** v,
            st.integers(1, 10**6),
            st.integers(-3, 3),
        ),
        RATIONALS,
    )


@st.composite
def digit_polynomials(draw):
    """A digit-backend context of precision 1-40 and a polynomial of 1-3
    variables and 1-2 coordinates over it, possibly with a coordinate
    that is an exact zero in every term, or with no terms once zero
    coefficient vectors are dropped."""
    ctx = FieldContext(Prime(5), backend="digits", precision=draw(st.integers(1, 40)))
    m = draw(st.integers(1, 3))
    l = draw(st.integers(1, 2))
    zero_coord = draw(st.sampled_from((None, 0, 1))) if l == 2 else None
    values = digit_values(ctx.precision)
    terms = {}
    for e in draw(st.lists(st.tuples(*[st.integers(0, 4)] * m), min_size=1, max_size=6)):
        coeff = [draw(values) for _ in range(l)]
        if zero_coord is not None:
            coeff[zero_coord] = 0
        terms[e] = ctx.vector(coeff)
    return ctx, MultiPolynomial(m, l, terms)


@settings(max_examples=300, deadline=None)
@given(drawn=digit_polynomials(), data=st.data())
def test_digit_evaluate_matches_step_horner(drawn, data):
    ctx, poly = drawn
    values = digit_values(ctx.precision)
    # Two points: the second evaluation reuses the lowered form.
    for _ in range(2):
        x = ctx.vector(data.draw(st.lists(values, min_size=poly.m, max_size=poly.m)))
        got = _outcome(MultiPolynomial.evaluate, poly, x)
        assert got == _outcome(_step_horner, poly, x)
        if type(got) is list:
            assert all(e.context() is ctx for e in poly.evaluate(x))


def test_digit_evaluate_multiplies_by_x_once_per_exponent():
    # 5**-3 * x**2 + 1 at x = 25, three digits: 5**-3 * x is 5**-1 + O(1),
    # so the first step exhausts the precision marker.  Squaring x first
    # would give 5 + O(5**2) instead; the rule steps as the scalars do.
    ctx = FieldContext(Prime(5), backend="digits", precision=3)
    poly = MultiPolynomial.univariate([ctx.vector([c]) for c in (1, 0, Fraction(1, 125))])
    x = ctx.vector([25])
    want = (PrecisionExhausted, "absolute precision marker reached zero")
    assert _outcome(_step_horner, poly, x) == want
    assert _outcome(MultiPolynomial.evaluate, poly, x) == want


def test_digit_evaluate_rejects_coefficients_of_another_prime_or_backend():
    digits = FieldContext(Prime(5), backend="digits")
    seven = FieldContext(Prime(7), backend="digits")
    x = digits.vector([3])
    cases = [
        ([seven.vector([1]), seven.vector([2])], PrimeMismatch),
        ([CTX.vector([1]), CTX.vector([2])], BackendMismatch),
        # Horner's rule meets the highest power first.
        ([seven.vector([1]), CTX.vector([2])], BackendMismatch),
        ([CTX.vector([1]), seven.vector([2])], PrimeMismatch),
        # A mismatch below a coefficient that fits.
        ([seven.vector([1]), digits.vector([2])], PrimeMismatch),
    ]
    for coeffs, error in cases:
        poly = MultiPolynomial.univariate(coeffs)
        with pytest.raises(error) as got:
            poly.evaluate(x)
        with pytest.raises(error) as want:
            _step_horner(poly, x)
        assert str(got.value) == str(want.value)
    # The lowered form is kept per prime and backend: a polynomial that
    # evaluated at digit points still rejects an exact point.
    poly = MultiPolynomial.univariate([digits.vector([1]), digits.vector([2])])
    assert poly.evaluate(x).scalar() == 7
    with pytest.raises(BackendMismatch):
        poly.evaluate(CTX.vector([3]))


def test_exact_evaluate_rejects_coefficients_of_another_prime_or_backend():
    seven = FieldContext(Prime(7))
    other_prime = MultiPolynomial.univariate([seven.vector([1]), seven.vector([2])])
    assert other_prime.evaluate(seven.vector([3])).scalar() == 7
    with pytest.raises(PrimeMismatch):
        other_prime.evaluate(CTX.vector([3]))
    digits = FieldContext(Prime(5), backend="digits")
    digit_coeffs = MultiPolynomial.univariate([digits.vector([1]), digits.vector([2])])
    with pytest.raises(BackendMismatch):
        digit_coeffs.evaluate(CTX.vector([3]))
    # Horner's rule meets the highest power first: here the digit one.
    mixed = MultiPolynomial.univariate([seven.vector([1]), digits.vector([2])])
    with pytest.raises(BackendMismatch):
        mixed.evaluate(CTX.vector([3]))


def test_locally_constant_stability_radius():
    psi = BallIndicator(CTX.ball([0], 0))
    rng = Random(5)
    for raw in (Fraction(3), Fraction(1, 5), Fraction(26), Fraction(1, 25)):
        x = CTX.vector([raw])
        r = psi.stability_radius(x)
        base = psi.evaluate(x)
        ball = Ball(x, _exponent_of(r))
        for _ in range(10):
            y = CTX.sample_ball(ball, rng)
            assert psi.evaluate(y) == base


def _exponent_of(radius: Fraction) -> int:
    k = 0
    while radius < 1:
        radius *= 5
        k -= 1
    while radius > 1:
        radius /= 5
        k += 1
    return k


def test_scale_shift_affine_nodes():
    f = univariate(0, 1)  # identity
    g = Scale(CTX.scalar(3), f)
    assert g.evaluate(CTX.vector([2])).scalar() == 6
    h = Shift(CTX.vector([1]), f)
    assert h.evaluate(CTX.vector([4])).scalar() == 3
    a = AffinePrecompose(CTX.vector([1]), CTX.scalar(5), f)
    assert a.evaluate(CTX.vector([11])).scalar() == 2


def test_product_requires_scalar_factors():
    vec2 = Poly(
        MultiPolynomial(1, 2, {(1,): CTX.vector([1, 1])})
    )
    with pytest.raises(DimensionMismatch):
        Product(vec2, vec2)


def test_sum_requires_matching_dims():
    with pytest.raises(DimensionMismatch):
        Sum(univariate(1), Poly(MultiPolynomial(2, 1, {(0, 0): CTX.vector([1])})))


def test_dimension_mismatch_on_eval():
    f = univariate(1, 1)
    with pytest.raises(DimensionMismatch):
        f.evaluate(CTX.vector([1, 2]))


def test_affine_curve_and_degenerate_curve():
    e1 = CTX.vector([1, 0])
    u = affine_curve(e1, CTX.zero_vector(2))
    assert u.at(CTX.scalar(7)) == CTX.vector([7, 0])
    c = polynomial_curve([CTX.vector([2, 3])])
    assert c.at(CTX.scalar(100)) == CTX.vector([2, 3])


def test_polynomial_curve_eval():
    u = polynomial_curve([CTX.vector([0, 0]), CTX.vector([1, 0]), CTX.vector([0, 1])])
    assert u.at(CTX.scalar(5)) == CTX.vector([5, 25])


def test_curve_tag_validation():
    expr = univariate(0, 1)
    with pytest.raises(ValueError):
        Curve(expr, tag="patchwork")
    with pytest.raises(ValueError):
        Curve(expr, tag="smooth")


def test_expression_json_round_trip():
    psi = BallIndicator(CTX.ball([0], -1))
    f = Sum(
        Product(univariate(1, 2), univariate(0, 0, 1)),
        Scale(CTX.scalar(Fraction(1, 2)), univariate(3)),
    )
    g = Compose(univariate(0, 1, 1), univariate(0, 2))
    for expr in (psi, f, g):
        back = expr_from_json(CTX, expr.to_json())
        rng = Random(2)
        for _ in range(10):
            x = CTX.vector([rng.randrange(-20, 20)])
            assert back.evaluate(x) == expr.evaluate(x)


def test_gallery_registry_contains_contract_names():
    names = gallery_names()
    assert "thm41" in names and "patchwork" in names
    f = build_gallery("thm41", CTX, m=1)
    assert f.input_dim == 2 and f.output_dim == 1
    with pytest.raises(DomainError):
        build_gallery("nope", CTX)


def test_gallery_reciprocal_domain_error():
    rec = build_gallery("reciprocal", CTX)
    assert rec.evaluate(CTX.vector([5])).scalar() == Fraction(1, 5)
    with pytest.raises(DomainError):
        rec.evaluate(CTX.vector([0]))
