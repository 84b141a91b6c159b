"""Randomized corpus generation and identity suites.

Every suite samples rational data deterministically from a seed,
evaluates both sides of an operator identity exactly and reports the
outcome as a ``CheckReport``.  A failure in any suite is an
implementation bug, never numerical noise: the identities are theorems
and the arithmetic is exact.

Increments and scaling constants are drawn with terminating digit
expansions so the truncated backend can divide by them under pure
valuation bookkeeping; polynomial coefficients may be arbitrary
unit-bounded rationals.
"""

from __future__ import annotations

import math
from random import Random
from typing import Sequence

from .engine import (
    _LEAF_MEMO,
    CheckReport,
    PhiPoint,
    UpsilonPoint,
    chain_phi_low,
    compose_then_phi,
    directional_span_rank,
    embed_phi_point,
    leibniz_phi,
    phi,
    phi_poly_closed,
    rank_bound,
    scaling_identity_check,
    transposition_symmetry_check,
    upsilon,
    upsilon_poly_closed_low,
    upsilon_sup_bound_check,
)
from .errors import IndeterminateRank, PrecisionExhausted
from .field import FieldContext, PadicVector
from .functions import (
    BallIndicator,
    FunctionExpr,
    MultiPolynomial,
    Poly,
    Product,
    polynomial_curve,
)

_COPRIME_DENOMS = {2: (3, 5, 7), 3: (2, 4, 5), 5: (2, 3, 7), 7: (2, 3, 5)}


# -- random data -----------------------------------------------------------------


def random_increment(ctx: FieldContext, rng: Random, vmin: int = 0, vmax: int = 3):
    """``u * p**v`` with v drawn from [vmin, vmax], then a unit u below
    p**3: a terminating expansion, built as one int pair."""
    p = ctx.p
    v = rng.randrange(vmin, vmax + 1)
    u = rng.randrange(1, p**3)
    while u % p == 0:
        u = rng.randrange(1, p**3)
    return ctx.ratio(u * p**v) if v >= 0 else ctx.ratio(u, p**-v)


def _unit_bounded_pair(p: int, rng: Random, allow_zero: bool) -> tuple:
    """``(num, den)`` of a rational of norm <= 1, not yet in lowest terms."""
    if allow_zero and rng.random() < 0.15:
        return (0, 1)
    denoms = _COPRIME_DENOMS.get(p, (2, 3))
    num = rng.randrange(-9, 10) or 1
    den = rng.choice((1,) * 3 + denoms)
    extra = rng.randrange(0, 3)
    return (num * p**extra, den)


def random_unit_bounded(ctx: FieldContext, rng: Random, allow_zero: bool = True):
    """Rational of norm <= 1; may have a non-terminating expansion."""
    return ctx.ratio(*_unit_bounded_pair(ctx.p, rng, allow_zero))


def random_nonneg_unit_bounded(ctx: FieldContext, rng: Random, allow_zero: bool = True):
    """Nonnegative rational of norm <= 1.

    Used for the increment-displacement slots of nested quotient
    points: with positive increments and nonnegative displacements,
    every evaluation increment of the recursion stays nonzero.
    """
    num, den = _unit_bounded_pair(ctx.p, rng, allow_zero)
    return ctx.ratio(abs(num), den)


def random_integral_vector(ctx: FieldContext, rng: Random, dim: int) -> PadicVector:
    return PadicVector([random_unit_bounded(ctx, rng, allow_zero=False) for _ in range(dim)])


def random_poly(
    ctx: FieldContext,
    rng: Random,
    degree_max: int = 4,
    m: int = 1,
    l: int = 1,
) -> MultiPolynomial:
    """Random polynomial with unit-bounded rational coefficients."""
    if m == 1:
        deg = rng.randrange(0, degree_max + 1)
        coeffs = [
            PadicVector([random_unit_bounded(ctx, rng) for _ in range(l)])
            for _ in range(deg + 1)
        ]
        if all(c.is_zero() for c in coeffs):
            coeffs[-1] = PadicVector([ctx.one() for _ in range(l)])
        return MultiPolynomial.univariate(coeffs)
    terms = {}
    for _ in range(rng.randrange(2, 6)):
        exps = tuple(rng.randrange(0, degree_max + 1) for _ in range(m))
        if sum(exps) > degree_max:
            continue
        terms[exps] = PadicVector([random_unit_bounded(ctx, rng) for _ in range(l)])
    if not terms:
        terms[(0,) * m] = PadicVector([ctx.one() for _ in range(l)])
    return MultiPolynomial(m, l, terms)


def random_phi_point(
    ctx: FieldContext, rng: Random, m: int, n: int, vmax: int = 2
) -> PhiPoint:
    x = random_integral_vector(ctx, rng, m)
    vs = tuple(random_integral_vector(ctx, rng, m) for _ in range(n))
    ts = tuple(random_increment(ctx, rng, 0, vmax) for _ in range(n))
    return PhiPoint(x, vs, ts)


def random_upsilon_point(
    ctx: FieldContext, rng: Random, m: int, n: int, vmax: int = 2
) -> UpsilonPoint:
    """Random nested point with every recursive increment nonzero.

    Increments are positive and displacement t-slots nonnegative, so
    the shifted increments base.t + disp.t * t met by the recursion
    can never cancel.
    """

    def build(order: int, displacement: bool) -> UpsilonPoint:
        if order == 0:
            return UpsilonPoint.leaf(random_integral_vector(ctx, rng, m))
        t = (
            random_nonneg_unit_bounded(ctx, rng)
            if displacement
            else random_increment(ctx, rng, 0, vmax)
        )
        return UpsilonPoint.node(
            build(order - 1, displacement), build(order - 1, True), t
        )

    return build(n, False)


def standard_corpus(ctx: FieldContext, rng: Random, b: int, size: int = 6):
    """Scalar functions on K**b: polynomials, an indicator, a product."""
    fs: list[FunctionExpr] = []
    for _ in range(size):
        fs.append(Poly(random_poly(ctx, rng, degree_max=3, m=b)))
    fs.append(BallIndicator(ctx.unit_ball(b)))
    fs.append(
        Product(
            Poly(random_poly(ctx, rng, degree_max=2, m=b)),
            Poly(random_poly(ctx, rng, degree_max=2, m=b)),
        )
    )
    return fs


# -- suites ----------------------------------------------------------------------


def _attempt(report: CheckReport, compute, samples: int = 1):
    """Return ``compute()``, or None once its samples are recorded indeterminate.

    A computation that runs out of precision decides none of the
    ``samples`` it was to check: each counts as sampled and
    indeterminate, neither a pass nor a failure.

    ``compute`` is one sample: its quotients share leaf values through a
    fresh memo (``engine._LEAF_MEMO``), reset when it returns or raises,
    so no value outlives the sample.  Exceptions are not cached.
    """
    token = _LEAF_MEMO.set({})
    try:
        return compute()
    except (PrecisionExhausted, IndeterminateRank):
        report.record_indeterminate(samples)
        return None
    finally:
        _LEAF_MEMO.reset(token)


def leibniz_suite(
    ctx: FieldContext,
    seed: int,
    cases: int,
    orders: Sequence[int] = (1, 2, 3),
    inject_fault: bool = False,
) -> CheckReport:
    rng = Random(seed)
    report = CheckReport("leibniz")
    for case in range(cases):
        f = Poly(random_poly(ctx, rng, degree_max=4))
        g = Poly(random_poly(ctx, rng, degree_max=4))
        for n in orders:
            pt = random_phi_point(ctx, rng, 1, n)
            product = Product(f, g)
            if inject_fault and case == 0:
                product = Product(Poly(f.polynomial.perturbed(ctx.pi())), g)
            sides = _attempt(report, lambda: (phi(product, pt), leibniz_phi(f, g, pt)))
            if sides is not None:
                report.record(pt.to_json(), *sides)
    return report


def closed_form_suite(
    ctx: FieldContext,
    seed: int,
    phi_cases: int,
    upsilon_cases: int,
) -> CheckReport:
    rng = Random(seed)
    report = CheckReport("closed_form")
    for case in range(phi_cases):
        u = random_poly(ctx, rng, degree_max=4, l=rng.choice((1, 2)))
        n = 1 + case % 3
        pt = random_phi_point(ctx, rng, 1, n)
        sides = _attempt(report, lambda: (phi_poly_closed(u, pt), phi(Poly(u), pt)))
        if sides is not None:
            report.record(pt.to_json(), *sides)
    for case in range(upsilon_cases):
        u = random_poly(ctx, rng, degree_max=4)
        n = 1 + case % 2
        pt = random_upsilon_point(ctx, rng, 1, n)
        sides = _attempt(
            report, lambda: (upsilon_poly_closed_low(u, pt), upsilon(Poly(u), pt))
        )
        if sides is not None:
            report.record(pt.to_json(), *sides)
    return report


def symmetry_suite(ctx: FieldContext, seed: int, cases: int) -> CheckReport:
    rng = Random(seed)
    report = CheckReport("symmetry")
    for case in range(cases):
        if case % 3 == 0:
            f: FunctionExpr = Product(
                Poly(random_poly(ctx, rng, degree_max=2)),
                Poly(random_poly(ctx, rng, degree_max=2)),
            )
        else:
            f = Poly(random_poly(ctx, rng, degree_max=4))
        n = 2 + case % 2
        pt = random_phi_point(ctx, rng, 1, n)
        sub = _attempt(
            report, lambda: transposition_symmetry_check(f, pt), math.factorial(n)
        )
        if sub is not None:
            report.merge(sub)
    return report


def scaling_suite(ctx: FieldContext, seed: int, cases: int) -> CheckReport:
    rng = Random(seed)
    report = CheckReport("scaling")
    for case in range(cases):
        if case % 4 == 0:
            f: FunctionExpr = BallIndicator(ctx.unit_ball(1))
        else:
            f = Poly(random_poly(ctx, rng, degree_max=4))
        pt = random_phi_point(ctx, rng, 1, 1)
        a = random_increment(ctx, rng, 0, 2)
        T = random_increment(ctx, rng, 0, 2)
        # three identities per case
        sub = _attempt(report, lambda: scaling_identity_check(f, pt, a, T), 3)
        if sub is not None:
            report.merge(sub)
    return report


def restriction_suite(
    ctx: FieldContext, seed: int, cases: int, max_order: int = 3
) -> CheckReport:
    rng = Random(seed)
    report = CheckReport("restriction")
    corpus = standard_corpus(ctx, rng, 1, size=4)
    for case in range(cases):
        f = corpus[case % len(corpus)]
        n = 1 + case % max_order
        pt = random_phi_point(ctx, rng, 1, n)
        sides = _attempt(report, lambda: (upsilon(f, embed_phi_point(pt)), phi(f, pt)))
        if sides is not None:
            report.record(pt.to_json(), *sides)
    return report


def sup_bound_suite(
    ctx: FieldContext,
    seed: int,
    samples_total: int,
    polynomials: int = 20,
    max_order: int = 3,
) -> CheckReport:
    rng = Random(seed)
    report = CheckReport("sup_bound")
    per_poly = max(1, samples_total // polynomials)
    for _ in range(polynomials):
        u = random_poly(ctx, rng, degree_max=4)
        for i in range(per_poly):
            pt = random_upsilon_point(ctx, rng, 1, 1 + i % max_order)
            outcome = _attempt(report, lambda: upsilon_sup_bound_check(u, [pt]))
            if outcome is not None:
                report.samples += outcome["samples"]
                report.indeterminate += outcome["indeterminate"]
                report.failures.extend(outcome["failures"])
    return report


def chain_suite(ctx: FieldContext, seed: int, cases: int) -> CheckReport:
    rng = Random(seed)
    report = CheckReport("chain")
    for case in range(cases):
        m = 1 + case % 3
        f = Poly(random_poly(ctx, rng, degree_max=3, m=m))
        u = polynomial_curve(
            [
                random_integral_vector(ctx, rng, m)
                for _ in range(rng.randrange(2, 4))
            ]
        )
        for n in (1, 2):
            pt = random_phi_point(ctx, rng, 1, n)
            sides = _attempt(report, lambda: (chain_phi_low(f, u, pt), compose_then_phi(f, u, pt)))
            if sides is not None:
                report.record(pt.to_json(), *sides)
    return report


def _rank_grid(ctx: FieldContext, rng: Random, b: int, n: int, rows: int):
    """Rows of (base point in K**b, n increments) for a directional rank."""
    return [
        (
            random_integral_vector(ctx, rng, b),
            tuple(random_increment(ctx, rng, 0, 2) for _ in range(n)),
        )
        for _ in range(rows)
    ]


def rank_suite(
    ctx: FieldContext, seed: int, rows: int = 18
) -> CheckReport:
    rng = Random(seed)
    report = CheckReport("rank")
    for b in (1, 2):
        corpus = standard_corpus(ctx, rng, b, size=3)
        for n in (1, 2):
            bound = rank_bound(b, n)
            for f in corpus:
                grid = _rank_grid(ctx, rng, b, n, rows)
                r = _attempt(report, lambda: directional_span_rank(f, n, b, grid))
                if r is None:
                    continue
                report.samples += 1
                if r > bound:
                    report.failures.append(
                        {"b": b, "n": n, "rank": r, "bound": bound}
                    )
    return report


def rank_of(ctx: FieldContext, f: FunctionExpr, b: int, n: int, seed: int, rows: int = 18):
    return directional_span_rank(f, n, b, _rank_grid(ctx, Random(seed), b, n, rows))


# Each check's seed offset and its suite's case counts: the verify.cases
# keys it reads, in the order the suite takes them, with their defaults.
# A check runs the module's ``<check>_suite``, looked up by name when it
# runs, so that a wrapper installed on the module (a profiler's) runs.
_SUITES = {
    "leibniz": (0, {"leibniz": 40}),
    "scaling": (1, {"scaling": 40}),
    "symmetry": (2, {"symmetry": 40}),
    "closed_form": (3, {"closed_form": 80, "closed_form_upsilon": 40}),
    "restriction": (4, {"restriction": 40}),
    "rank": (5, {}),
    "sup_bound": (6, {"sup_bound": 400}),
    "chain": (7, {"chain": 30}),
}
ALL_CHECKS = tuple(_SUITES)
CASE_DEFAULTS = {key: n for _, counts in _SUITES.values() for key, n in counts.items()}


def run_checks(
    ctx: FieldContext,
    seed: int,
    checks: Sequence[str] | None = None,
    sizes: dict | None = None,
    inject_fault: bool = False,
) -> dict:
    """Run the selected identity suites, all of them when ``checks`` is
    None; a case count not in ``sizes`` is taken from ``CASE_DEFAULTS``."""
    sizes = {**CASE_DEFAULTS, **(sizes or {})}
    selected = list(ALL_CHECKS if checks is None else checks)
    if not selected:
        raise ValueError("no checks selected")
    unknown = [c for c in selected if c not in _SUITES]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}")
    reports = {}
    for name in selected:
        offset, counts = _SUITES[name]
        fault = {"inject_fault": inject_fault} if name == "leibniz" else {}
        suite = globals()[f"{name}_suite"]
        reports[name] = suite(ctx, seed + offset, *(sizes[k] for k in counts), **fault)
    return reports
