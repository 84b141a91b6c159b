"""Scalar, vector and ball arithmetic in both backends."""

from fractions import Fraction
import gc
import math
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultracalc.errors import (
    BackendMismatch,
    DivisionByZero,
    PrecisionExhausted,
    PrimeMismatch,
)
from ultracalc.field import Ball, DigitScalar, ExactScalar, FieldContext, Prime

P5 = Prime(5)
P3 = Prime(3)
EX5 = FieldContext(P5)
TD5 = FieldContext(P5, backend="digits", precision=32)


def test_prime_rejects_composites():
    with pytest.raises(ValueError):
        Prime(6)
    with pytest.raises(ValueError):
        Prime(1)
    assert Prime(2).p == 2


def test_add_lands_on_uniformizer():
    s = EX5.scalar(2) + EX5.scalar(3)
    assert s.valuation() == 1
    assert s.norm() == Fraction(1, 5)


def test_add_identity():
    x = EX5.scalar(Fraction(7, 3))
    assert x + EX5.zero() == x


def test_add_halves_p3():
    ctx = FieldContext(P3)
    s = ctx.scalar(Fraction(1, 2)) + ctx.scalar(Fraction(1, 2))
    assert s == ctx.one()
    assert s.valuation() == 0


def test_mul_units_and_valuation_additivity():
    assert (EX5.scalar(2) * EX5.scalar(3)).norm() == 1
    assert (EX5.scalar(5) * EX5.scalar(5)).valuation() == 2


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        EX5.one() / EX5.zero()


def test_precision_exhaustion_by_valuation_bookkeeping():
    ctx = FieldContext(P5, backend="digits", precision=4)
    x = ctx.one() / ctx.scalar(125)
    assert x.valuation() == -3
    with pytest.raises(PrecisionExhausted):
        x / ctx.scalar(5)


def test_valuation_and_norm_of_uniformizer():
    pi = EX5.pi()
    assert pi.valuation() == 1
    assert pi.norm() == Fraction(1, 5)


def test_valuation_of_zero_is_infinite():
    assert EX5.zero().valuation() == math.inf
    assert EX5.zero().norm() == 0


def test_valuation_unit_over_p():
    assert EX5.scalar(Fraction(7, 5)).valuation() == -1


def test_digits_of_seven():
    assert EX5.scalar(7).digits(2) == [2, 1]


def test_digits_of_zero():
    assert EX5.zero().digits(4) == [0, 0, 0, 0]


def test_digits_geometric_series():
    x = EX5.scalar(Fraction(1, 1 - 5))
    digits = x.digits(3)
    assert digits == [1, 1, 1]
    # multiply back: (1 - 5) * x == 1
    assert x * EX5.scalar(1 - 5) == EX5.one()


def test_digit_backend_digits_respect_precision():
    s = TD5.scalar(7)
    assert s.digits(2) == [2, 1]
    with pytest.raises(PrecisionExhausted):
        s.digits(40)


def test_mixed_prime_and_backend_rejected():
    with pytest.raises(PrimeMismatch):
        EX5.one() + FieldContext(P3).one()
    with pytest.raises(BackendMismatch):
        EX5.one() + TD5.one()


rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=40
)


@settings(max_examples=120, deadline=None)
@given(rationals, rationals)
def test_ultrametric_inequality(a, b):
    x, y = EX5.scalar(a), EX5.scalar(b)
    s = x + y
    assert s.norm() <= max(x.norm(), y.norm())
    if x.norm() != y.norm():
        assert s.norm() == max(x.norm(), y.norm())


@settings(max_examples=120, deadline=None)
@given(rationals, rationals)
def test_norm_multiplicativity(a, b):
    x, y = EX5.scalar(a), EX5.scalar(b)
    assert (x * y).norm() == x.norm() * y.norm()


@settings(max_examples=80, deadline=None)
@given(rationals, rationals)
def test_backend_agreement(a, b):
    exact = EX5.scalar(a) * EX5.scalar(b) + EX5.scalar(b)
    digit = TD5.scalar(a) * TD5.scalar(b) + TD5.scalar(b)
    assert digit == TD5.scalar(exact.value)


@settings(max_examples=60, deadline=None)
@given(rationals, rationals.filter(lambda f: f != 0))
def test_backend_agreement_division(a, b):
    exact = EX5.scalar(a) / EX5.scalar(b)
    digit = TD5.scalar(a) / TD5.scalar(b)
    assert digit == TD5.scalar(exact.value)


def test_digit_scalar_exactness_flags():
    assert TD5.scalar(125).exact_digits
    assert TD5.scalar(Fraction(7, 25)).exact_digits
    assert not TD5.scalar(Fraction(1, 3)).exact_digits
    assert not TD5.scalar(-2).exact_digits


def test_apparent_zero_from_cancellation():
    d = TD5.scalar(Fraction(1, 3)) - TD5.scalar(Fraction(1, 3))
    assert d.is_zero()
    assert not d.is_exact_zero()
    assert d.abs_prec == 32


def test_vector_sup_norm():
    v = EX5.vector([5, 3, 25])
    assert v.norm() == 1
    assert v.valuation() == 0
    assert (v * EX5.pi()).norm() == Fraction(1, 5)


def test_vector_dimension_checks():
    from ultracalc.errors import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        EX5.vector([1, 2]) + EX5.vector([1, 2, 3])


def test_ball_membership_is_clopen_scale():
    ball = EX5.ball([0], 0)
    assert ball.contains(EX5.vector([1]))
    assert ball.contains(EX5.vector([Fraction(5)]))
    assert not ball.contains(EX5.vector([Fraction(1, 5)]))


def test_ball_dichotomy_random_pairs():
    import random

    rng = random.Random(9)
    for _ in range(60):
        c1 = EX5.vector([rng.randrange(-20, 20)])
        c2 = EX5.vector([rng.randrange(-20, 20)])
        b1 = Ball(c1, rng.randrange(-2, 3))
        b2 = Ball(c2, rng.randrange(-2, 3))
        rel = b1.relation(b2)
        assert rel in ("disjoint", "nested", "equal")
        if rel == "disjoint":
            # sampled points of one must avoid the other
            pt = EX5.sample_ball(b1, random.Random(1))
            assert not b2.contains(pt)
        else:
            small, big = (b1, b2) if b1.radius <= b2.radius else (b2, b1)
            pt = EX5.sample_ball(small, random.Random(2))
            assert big.contains(pt)


def test_sampling_is_contained_and_deterministic():
    import random

    ball = EX5.ball([0], 0)
    a = EX5.sample_ball(ball, random.Random(42))
    b = EX5.sample_ball(ball, random.Random(42))
    assert a == b
    assert ball.contains(a)


def test_sampling_leading_digit_uniform():
    import random

    ball = EX5.ball([0], 0)
    counts = [0] * 5
    rng = random.Random(7)
    n = 1000
    for _ in range(n):
        pt = EX5.sample_ball(ball, rng, digit_count=4)
        counts[pt.scalar().digits(1, start=0)[0]] += 1
    expected = n / 5
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    # 4 degrees of freedom; 18.5 is far beyond the 0.999 quantile
    assert chi2 < 18.5, counts


def test_unit_direction_has_unit_norm():
    import random

    rng = random.Random(3)
    for _ in range(20):
        v = EX5.sample_unit_direction(3, rng)
        assert v.norm() == 1


def test_scalar_serialization_shapes():
    ex = EX5.scalar(Fraction(7, 5)).to_json()
    assert ex == {"p": 5, "num": "7", "den": "5"}
    td = TD5.scalar(7).to_json()
    assert td["p"] == 5 and td["val"] == 0 and td["digits"][:2] == [2, 1]
    zero = TD5.zero().to_json()
    assert zero["val"] == "inf"


def test_scalar_json_round_trip():
    for ctx in (EX5, TD5):
        s = ctx.scalar(Fraction(-9, 7))
        back = ctx.scalar_from_json(s.to_json())
        assert back == s


@pytest.mark.parametrize("backend", ["exact", "digits"])
def test_scalars_keep_the_context_that_made_them(backend):
    ctx = FieldContext(P5, backend=backend, precision=8)
    x = ctx.scalar(3)
    made = [x, ctx.zero(), ctx.one(), ctx.pi_pow(2), ctx.vector([2])[0]]
    derived = [x * x, x + x, x - 1, 1 - x, -x, x / ctx.scalar(2), 2 / x, x**3, x + ctx.zero()]
    for y in made + derived:
        assert y.context() is ctx
    assert (x * x).context().precision == 8
    if backend == "digits":
        assert x.abs_prec == 8 and (x * 7).abs_prec == 8


def test_exact_scalar_hash_matches_equality():
    for value in (3, Fraction(-7, 15)):
        x = ExactScalar(EX5, value)
        assert x == value
        assert hash(x) == hash(value)
        assert value in {x} and x in {value}


@pytest.mark.parametrize("backend", ["exact", "digits"])
def test_scalars_are_made_from_ints_and_fractions_only(backend):
    ctx = FieldContext(P5, backend=backend, precision=8)
    for bad in (0.1, 0.5, True, False, "1", None):
        with pytest.raises(TypeError):
            ctx.scalar(bad)
        with pytest.raises(TypeError):
            ctx.vector([1, bad])
    assert ctx.scalar(Fraction(1, 2)) == ctx.scalar(1) / 2


def _exact_pair(x):
    assert type(x) is ExactScalar and x.context() is EX5
    return (x.num, x.den)


def _assert_canonical(x, ref: Fraction):
    """``x`` holds ``ref`` as Fraction does: lowest terms, den > 0."""
    assert _exact_pair(x) == (ref.numerator, ref.denominator)
    assert math.gcd(x.num, x.den) == 1 and x.den > 0
    assert hash(x) == hash(ref)
    assert x == ref and x.value == ref


# Zero, small rationals over shared denominators (so sums and products
# cancel), and +-5**k, 5**-k up to k = 60 with unit cofactors.
exact_operands = st.one_of(
    st.just(0),
    st.integers(-40, 40),
    st.builds(Fraction, st.integers(-40, 40), st.sampled_from((1, 2, 3, 4, 6, 12, 25))),
    st.builds(
        lambda sign, unit, k: Fraction(sign * unit) * Fraction(5) ** k,
        st.sampled_from((1, -1)),
        st.sampled_from((1, 2, 3, 7)),
        st.integers(-60, 60),
    ),
)
exact_steps = st.lists(
    st.tuples(
        st.sampled_from(("+", "-", "*", "/", "neg")),
        exact_operands,
        # How the operand enters: a scalar, a raw int or Fraction on the
        # right (coerced), or a raw one on the left (reflected dunder).
        st.sampled_from(("scalar", "right", "left")),
    ),
    max_size=12,
)
_RULES = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


@settings(max_examples=400, deadline=None)
@given(exact_operands, exact_steps)
def test_exact_rules_match_fraction(start, steps):
    x, ref = ExactScalar(EX5, start), Fraction(start)
    _assert_canonical(x, ref)
    for op, operand, how in steps:
        if op == "neg":
            x, ref = -x, -ref
            _assert_canonical(x, ref)
            continue
        rule = _RULES[op]
        if how == "left":
            args, ref_args = (operand, x), (Fraction(operand), ref)
        else:
            b = EX5.scalar(operand) if how == "scalar" else operand
            args, ref_args = (x, b), (ref, Fraction(operand))
        try:
            want = rule(*ref_args)
        except ZeroDivisionError:
            with pytest.raises(DivisionByZero):
                rule(*args)
            continue
        x, ref = rule(*args), want
        _assert_canonical(x, ref)


def test_exact_rules_reduce_in_every_branch():
    cases = [
        ("+", Fraction(1, 6), Fraction(1, 6)),  # second gcd of the sum
        ("+", Fraction(1, 6), Fraction(-1, 6)),  # a zero sum is 0/1
        ("+", Fraction(1, 2), Fraction(1, 3)),  # coprime denominators
        ("*", Fraction(2, 3), Fraction(3, 2)),  # both cross-reductions
        ("*", Fraction(0), Fraction(-3, 5)),
        ("/", Fraction(1, 2), Fraction(-1, 4)),  # the sign moves up
        ("/", Fraction(0), Fraction(-3)),
        ("/", Fraction(-4, 9), Fraction(-2, 3)),
    ]
    for op, a, b in cases:
        _assert_canonical(_RULES[op](EX5.scalar(a), EX5.scalar(b)), _RULES[op](a, b))
    with pytest.raises(DivisionByZero):
        EX5.scalar(Fraction(1, 3)) / 0
    with pytest.raises(DivisionByZero):
        Fraction(1, 3) / EX5.zero()


def _reference_state(value: Fraction, prec: int):
    """(val, unit digits, abs_prec) of ``value`` by the digit-list split.

    The digit backend once stored exactly this tuple; the stored int unit
    must reproduce it.
    """
    p = 5
    if value == 0:
        return None, (), math.inf
    num, den = value.numerator, value.denominator
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    if v >= prec:
        return None, (), prec
    modulus = p ** (prec - v)
    unit = num * pow(den, -1, modulus) % modulus
    digits = []
    while unit:
        unit, r = divmod(unit, p)
        digits.append(r)
    while digits and digits[0] == 0:
        digits.pop(0)
        v += 1
    return v, tuple(digits), prec


def _reference_digits(state, upto, start):
    val, digits, _ = state
    if val is None:
        return [0] * max(0, upto - (0 if start is None else start))
    start = min(0, val) if start is None else start
    return [
        digits[n - val] if 0 <= n - val < len(digits) else 0 for n in range(start, upto)
    ]


def _reference_json(state):
    val, digits, prec = state
    shown = ("inf" if prec == math.inf else prec) if val is None else val
    return {"p": 5, "val": shown, "digits": list(digits)}


def _reference_repr(state):
    val, digits, prec = state
    if val is None:
        return "Zp(0; p=5)" if prec == math.inf else f"Zp(O(p^{prec}); p=5)"
    ds = "".join(str(d) for d in digits[:8]) + ("..." if len(digits) > 8 else "")
    return f"Zp(p^{val}*[{ds}]; p=5, O(p^{prec}))"


wide_rationals = st.fractions(
    min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=5**6 * 7
)


@settings(max_examples=150, deadline=None)
@given(wide_rationals, wide_rationals, st.integers(1, 40))
def test_int_unit_reproduces_the_digit_list(a, b, prec):
    ctx = FieldContext(P5, backend="digits", precision=prec)
    x, y = ctx.scalar(a), ctx.scalar(b)
    # Sums and products are known modulo their abs_prec, so their digits
    # are those of the exact result at that precision.
    cases = [(x, a), (x + y, a + b)]
    try:
        cases.append((x * y, a * b))
    except PrecisionExhausted:
        pass  # a negative valuation used up the precision of the product
    for s, exact in cases:
        if exact == 0 or s.is_exact_zero():
            continue
        state = _reference_state(exact, s.abs_prec)
        assert (s.val, s.unit_digits, s.abs_prec) == state
        assert s.to_json() == _reference_json(state)
        assert repr(s) == _reference_repr(state)
        low = min(0, s.valuation())
        for start in (None, low, low - 2):
            for upto in range(low - 1, s.abs_prec + 1):
                assert s.digits(upto, start) == _reference_digits(state, upto, start)
    zero = ctx.zero()
    assert zero.to_json() == _reference_json((None, (), math.inf))
    assert repr(zero) == _reference_repr((None, (), math.inf))


@settings(max_examples=200, deadline=None)
@given(wide_rationals, wide_rationals, st.integers(1, 40))
def test_digits_marked_exact_are_the_whole_value(a, b, prec):
    # exact_digits claims that p**val * unit is the value itself, not
    # only its residue modulo p**abs_prec: sums and products keep the
    # claim only while no reduction has cut the unit.
    ctx = FieldContext(P5, backend="digits", precision=prec)
    x, y = ctx.scalar(a), ctx.scalar(b)
    cases = [(x, a), (y, b), (x + y, a + b)]
    try:
        cases.append((x * y, a * b))
    except PrecisionExhausted:
        pass
    for s, value in cases:
        if s.exact_digits:
            claimed = 0 if s.val is None else s.unit * Fraction(5) ** s.val
            assert claimed == value


def _fraction_digit_state(value: Fraction, p: int, prec: int) -> tuple:
    """The digit state a Fraction had before scalars were built from int
    pairs: the rule of the Fraction-based constructor, kept as a reference."""
    if value == 0:
        return (None, 0, math.inf, True)
    n, d = value.numerator, value.denominator
    vn = vd = 0
    while n % p == 0:
        n, vn = n // p, vn + 1
    while d % p == 0:
        d, vd = d // p, vd + 1
    v = vn - vd
    if v >= prec:
        return (None, 0, prec, False)
    modulus = p ** (prec - v)
    terminating = value > 0 and d == 1
    unit = n if terminating else n * pow(d, -1, modulus) % modulus
    reduced = unit % modulus
    exact = terminating and reduced == unit
    while reduced and reduced % p == 0:
        reduced, v = reduced // p, v + 1
    if not reduced:
        return (None, 0, prec, False)
    return (v, reduced, prec, exact)


# Int pairs in any form: not in lowest terms, a negative denominator,
# powers of 5 on either side.
int_pairs = st.tuples(
    st.builds(lambda a, k: a * 5**k, st.integers(-10**4, 10**4), st.integers(0, 40)),
    st.builds(
        lambda a, k: a * 5**k, st.integers(-10**3, 10**3).filter(bool), st.integers(0, 40)
    ),
)


@settings(max_examples=300, deadline=None)
@given(int_pairs, st.sampled_from((1, 2, 3, 8, 32)))
def test_ratio_builds_the_state_of_the_fraction(pair, prec):
    num, den = pair
    value = Fraction(num, den)
    exact = EX5.ratio(num, den)
    assert exact._state() == EX5.scalar(value)._state() == (value.numerator, value.denominator)
    ctx = FieldContext(P5, backend="digits", precision=prec)
    digits = ctx.ratio(num, den)
    assert digits._state() == ctx.scalar(value)._state()
    assert digits._state() == _fraction_digit_state(value, 5, prec)
    assert digits.context() is ctx and exact.context() is EX5


def test_ratio_rejects_a_zero_denominator():
    for ctx in (EX5, TD5):
        with pytest.raises(ZeroDivisionError):
            ctx.ratio(3, 0)


@pytest.mark.parametrize("backend", ["exact", "digits"])
def test_powers_of_p_match_the_fraction_power(backend):
    ctx = FieldContext(P5, backend=backend, precision=8)
    for k in (-3, 0, 1, 7, 8, 40):
        power = ctx.pi_pow(k)
        assert power._state() == ctx.scalar(Fraction(5) ** k)._state()
        assert power.context() is ctx
        assert power.valuation() == (k if backend == "exact" or k < 8 else 8)


def test_exact_powers_of_p_are_computed_once_and_leave_no_cycle():
    # The int p**k is kept on the context, not a scalar: a scalar holds
    # its context, so caching one would keep every context alive until
    # the garbage collector ran.
    ctx = FieldContext(P5)
    assert ctx.pi_pow(40).num is ctx.pi_pow(40).num is ctx.pi_pow(-40).den
    assert ctx.pi_pow(40) is not ctx.pi_pow(40)
    ref = weakref.ref(ctx)
    gc.disable()
    try:
        del ctx
        assert ref() is None
    finally:
        gc.enable()
