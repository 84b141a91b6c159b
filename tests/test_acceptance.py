"""Acceptance gate: one test per criterion, at the stated size and budget.

Each test prints a single pass/fail line.  All comparisons are exact;
there are no tolerances to tune, only sample counts and time budgets.
"""

import time
from random import Random

from ultracalc.engine import phi
from ultracalc.field import FieldContext, PadicVector, Prime
from ultracalc.functions import MultiPolynomial, Poly, build_gallery, polynomial_curve
from ultracalc.gallery import (
    build_counterexample,
    curve_flatness_check,
    discontinuity_witness,
)
from ultracalc.probe import ProbeConfig, Verdict, continuity_probe, lipschitz_fit
from ultracalc.verify import (
    chain_suite,
    closed_form_suite,
    leibniz_suite,
    random_integral_vector,
    random_phi_point,
    random_poly,
    rank_of,
    rank_suite,
    restriction_suite,
    scaling_suite,
    sup_bound_suite,
    symmetry_suite,
)

SEED = 20260809
EX = FieldContext(Prime(5))
TD = FieldContext(Prime(5), backend="digits", precision=32)


def report(number: int, label: str, started: float, budget: float, ok: bool, extra=""):
    elapsed = time.monotonic() - started
    status = "PASS" if ok else "FAIL"
    tail = f" ({extra})" if extra else ""
    print(f"[{status}] criterion {number}: {label} in {elapsed:.1f}s/{budget:.0f}s{tail}")
    assert ok, f"criterion {number} failed: {label}{tail}"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"


def test_criterion_01_leibniz_product_rule():
    t0 = time.monotonic()
    rep = leibniz_suite(EX, SEED, cases=100, orders=(1, 2, 3))
    report(
        1,
        "product-rule expansion equals quotient of the product, 100 pairs x 3 orders",
        t0,
        30,
        rep.passed and rep.samples == 300,
        f"{rep.samples} samples",
    )


def test_criterion_02_closed_forms():
    t0 = time.monotonic()
    rep = closed_form_suite(EX, SEED + 1, phi_cases=200, upsilon_cases=100)
    report(
        2,
        "polynomial closed forms equal brute-force quotients (200 + 100 cases)",
        t0,
        30,
        rep.passed and rep.samples == 300,
        f"{rep.samples} samples",
    )


def test_criterion_03_symmetry_and_scaling():
    t0 = time.monotonic()
    sym = symmetry_suite(EX, SEED + 2, cases=100)
    scal = scaling_suite(EX, SEED + 3, cases=100)
    report(
        3,
        "transposition symmetry (all permutations) and scaling identities, 100 each",
        t0,
        20,
        sym.passed and scal.passed,
        f"{sym.samples} permutation checks, {scal.samples} scaling checks",
    )


def test_criterion_04_sup_bound():
    t0 = time.monotonic()
    rep = sup_bound_suite(EX, SEED + 4, polynomials=20, samples_total=1000, max_order=3)
    report(
        4,
        "coefficient sup bound on the unit polydisk, 20 polynomials, >= 1000 samples",
        t0,
        30,
        rep.passed and rep.samples >= 1000,
        f"{rep.samples} samples",
    )


def test_criterion_05_restriction():
    t0 = time.monotonic()
    rep = restriction_suite(EX, SEED + 5, cases=60, max_order=3)
    report(
        5,
        "full tower restricted through the embedding equals the partial tower",
        t0,
        10,
        rep.passed,
        f"{rep.samples} samples",
    )


def test_criterion_06_chain_rule_low_order():
    t0 = time.monotonic()
    rep = chain_suite(EX, SEED + 6, cases=50)
    report(
        6,
        "composition rule at orders 1 and 2 equals quotient of the composition",
        t0,
        20,
        rep.passed and rep.samples == 100,
        f"{rep.samples} samples",
    )


def test_criterion_07_rank_bound():
    t0 = time.monotonic()
    rep = rank_suite(EX, SEED + 7)
    ok = rep.passed
    rng = Random(SEED + 8)
    exact_ranks = []
    for _ in range(6):
        poly = random_poly(EX, rng, degree_max=3)
        while poly.degree < 1:
            poly = random_poly(EX, rng, degree_max=3)
        r = rank_of(EX, Poly(poly), 1, 1, seed=rng.randrange(10**6))
        exact_ranks.append(r)
    ok = ok and all(r == 1 for r in exact_ranks)
    report(
        7,
        "direction-span rank within (2**b - 1)**n; exactly 1 for b = n = 1 nonconstant",
        t0,
        30,
        ok,
        f"bound checks {rep.samples}, unit ranks {exact_ranks}",
    )


def _counterexample_reproduction(m: int) -> None:
    t0 = time.monotonic()
    cf = build_counterexample(EX, m=m)
    witness = discontinuity_witness(cf, 10)
    norms = [w["max_norm"] for w in witness]
    ok = len(witness) == 10
    ok = ok and all(w["value_norm"] == 1 for w in witness)
    ok = ok and all(a > b for a, b in zip(norms, norms[1:]))
    rng = Random(SEED + 9)
    zero_ok = all(
        cf.evaluate(random_integral_vector(EX, rng, m), EX.zero()).is_zero()
        for _ in range(100)
    )
    ok = ok and zero_ok
    flat_ok = True
    for i in range(5):
        zero = EX.zero_vector(m + 1)
        coeffs = [zero] + [random_integral_vector(EX, rng, m + 1) for _ in range(2)]
        out = curve_flatness_check(cf, polynomial_curve(coeffs), seed=SEED + 10 + i)
        flat_ok = flat_ok and out["passed"]
    ok = ok and flat_ok
    report(
        8,
        f"moving-bump counterexample (m = {m}): 10 unit-value witnesses, zero section, "
        "flat curves",
        t0,
        60,
        ok,
        f"norms {str(norms[0])}..{str(norms[-1])}",
    )


def test_criterion_08_counterexample_reproduction():
    _counterexample_reproduction(1)


def test_criterion_08_counterexample_reproduction_with_three_variables():
    # m = 2: exponents n**(2(m - j + 1)) + n of pi reach n**6, so the
    # budget holds only when each power of p is built once per context.
    _counterexample_reproduction(2)


def test_criterion_09_probe_soundness():
    t0 = time.monotonic()
    rng = Random(SEED + 11)
    ok = True
    worst = None
    for i in range(20):
        poly = random_poly(EX, rng, degree_max=4)
        f = Poly(poly)
        for order in range(4):
            cfg = ProbeConfig(
                order=order,
                region=EX.unit_ball(1),
                samples=4,
                seed=SEED + 13 * i + order,
            )
            rep = continuity_probe(f, cfg)
            if rep.verdict != Verdict.CONTINUOUS_EXTENSION:
                ok = False
                worst = (i, order, rep.verdict, [w.detail for w in rep.witnesses][:1])
    f41 = build_gallery("thm41", EX, m=1)
    cf = build_counterexample(EX, m=1)
    rows = discontinuity_witness(cf, 8)
    focus = [PadicVector(list(r["x"].entries) + [r["y"]]) for r in rows]
    cfg41 = ProbeConfig(order=0, region=EX.unit_ball(2), samples=3, seed=SEED + 12)
    rep41 = continuity_probe(f41, cfg41, focus=focus)
    flagged = rep41.verdict != Verdict.CONTINUOUS_EXTENSION and rep41.witnesses
    ident = Poly(MultiPolynomial.univariate([EX.zero_vector(1), EX.vector([1])]))
    fit = lipschitz_fit(ident, EX.unit_ball(1), seed=SEED + 13)
    ok = ok and bool(flagged) and fit.exponent == 1
    report(
        9,
        "probes grant extension to 20 polynomials at n <= 3, flag the bump, fit r = 1",
        t0,
        60,
        ok,
        f"worst={worst}" if worst else "",
    )


def test_criterion_10_backend_agreement():
    t0 = time.monotonic()
    suites = {
        "leibniz": lambda ctx: leibniz_suite(ctx, SEED, cases=100, orders=(1, 2, 3)),
        "closed_form": lambda ctx: closed_form_suite(
            ctx, SEED + 1, phi_cases=200, upsilon_cases=100
        ),
        "symmetry": lambda ctx: symmetry_suite(ctx, SEED + 2, cases=100),
        "scaling": lambda ctx: scaling_suite(ctx, SEED + 3, cases=100),
        "sup_bound": lambda ctx: sup_bound_suite(
            ctx, SEED + 4, polynomials=20, samples_total=1000, max_order=3
        ),
        "restriction": lambda ctx: restriction_suite(ctx, SEED + 5, cases=60),
        "chain": lambda ctx: chain_suite(ctx, SEED + 6, cases=50),
        "rank": lambda ctx: rank_suite(ctx, SEED + 7),
    }
    ok = True
    detail = []
    for name, runner in suites.items():
        rep = runner(TD)
        if not rep.passed or rep.indeterminate:
            ok = False
            detail.append(f"{name}: failures={len(rep.failures)} indet={rep.indeterminate}")
    # paired value congruence at the tracked loss
    rng = Random(SEED + 14)
    congruent = 0
    paired = 60
    for _ in range(paired):
        coeff_seed = rng.randrange(10**9)
        sub_ex = Random(coeff_seed)
        sub_td = Random(coeff_seed)
        poly_ex = random_poly(EX, sub_ex, degree_max=4)
        poly_td = random_poly(TD, sub_td, degree_max=4)
        n = 1 + congruent % 3
        pt_ex = random_phi_point(EX, sub_ex, 1, n)
        pt_td = random_phi_point(TD, sub_td, 1, n)
        value_ex = phi(Poly(poly_ex), pt_ex).scalar()
        value_td = phi(Poly(poly_td), pt_td).scalar()
        lifted = TD.scalar(value_ex.value)
        if value_td == lifted:
            congruent += 1
    ok = ok and congruent == paired
    report(
        10,
        "digit backend (N = 32) reruns suites 1-7 with zero indeterminates, congruent",
        t0,
        120,
        ok,
        "; ".join(detail) if detail else f"{congruent}/{paired} paired values congruent",
    )
