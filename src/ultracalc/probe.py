"""Empirical smoothness classification.

None of these probes prove membership in a smoothness class; they
gather sampled evidence.  Continuity of a quotient extension is
operationalized as a valuation-Cauchy criterion along geometric
increment grids t = pi**j: successive differences must gain at least a
configured number of valuation digits per step.  Verdicts are
four-valued and negative verdicts always carry witnesses.

The Lipschitz fitter works entirely in valuation space, where the
bound |f(x+y) - f(x)| <= C |y|**r turns into an integer half-plane
condition; the returned pair is a certified envelope of the samples,
never a regression.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field as dataclass_field, fields, replace
from enum import Enum
from fractions import Fraction
from random import Random
from typing import Sequence

from .engine import PhiPoint, phi
from .errors import DomainError, PrecisionExhausted, ZeroIncrement
from .field import INF, Ball, FieldContext, PadicScalar, PadicVector
from .functions import Curve, FunctionExpr, compose


class Verdict(str, Enum):
    CONTINUOUS_EXTENSION = "ContinuousExtension"
    LOCALLY_BOUNDED = "LocallyBounded"
    UNBOUNDED = "Unbounded"
    INDETERMINATE = "Indeterminate"


@dataclass(frozen=True, kw_only=True)
class ProbeConfig:
    """Shared knobs of the sampling probes, and their only defaults.

    The increment grid is geometric: stages j0 <= j <= j1 use t = pi**j
    (plus, optionally, one randomized-offset pass per sample).  The
    verdict threshold ``delta`` is the valuation growth required of
    successive differences per stage.
    """

    order: int = 1
    region: Ball
    j0: int = 1
    j1: int = 8
    samples: int = 6
    delta: int = 1
    seed: int = 0
    growth_ceiling: int = 6
    randomize_increments: bool = True

    def __post_init__(self) -> None:
        if self.order < 0:
            raise ValueError("order must be >= 0")
        if self.j0 >= self.j1:
            raise ValueError("need j0 < j1")
        if self.samples < 1:
            raise ValueError("need at least one sample")
        if self.delta < 1:
            raise ValueError("delta must be >= 1")


@dataclass
class Witness:
    order: int
    sample: int
    stage: int
    kind: str
    point: object
    detail: str

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class OrderReport:
    order: int
    verdict: Verdict
    max_norm: Fraction
    witnesses: list = dataclass_field(default_factory=list)
    rows: list = dataclass_field(default_factory=list)
    skipped: int = 0
    indeterminate: int = 0

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "verdict": self.verdict.value,
            "max_norm": str(self.max_norm),
            "witnesses": [w.to_json() for w in self.witnesses],
            "skipped": self.skipped,
            "indeterminate": self.indeterminate,
        }


@dataclass
class LipschitzFit:
    """Certified envelope exponent and constant for sampled differences."""

    exponent: Fraction
    log_constant: Fraction
    degenerate: bool
    samples: int
    residuals: list

    def constant_value(self, p: int):
        """The constant C = p**log_constant, exact when the log is integral."""
        if self.degenerate:
            return Fraction(0)
        c = self.log_constant
        if c.denominator == 1:
            return Fraction(p) ** c.numerator
        return float(p) ** float(c)

    def to_json(self, p: int) -> dict:
        return {
            "r": str(self.exponent),
            "log_p_C": str(self.log_constant),
            "C": str(self.constant_value(p)),
            "degenerate": self.degenerate,
            "samples": self.samples,
        }


@dataclass
class SmoothnessReport:
    """Evidence-carrying verdicts per order plus fitted regularity data."""

    function: dict
    orders: list
    lipschitz: LipschitzFit | None = None
    norm_estimate: Fraction | None = None
    config: dict | None = None

    @property
    def witnesses(self):
        return [w for o in self.orders for w in o.witnesses]

    def to_json(self, p: int) -> dict:
        return {
            "function": self.function,
            "orders": [o.to_json() for o in self.orders],
            "lipschitz": self.lipschitz.to_json(p) if self.lipschitz else None,
            "norm": None if self.norm_estimate is None else str(self.norm_estimate),
            "config": self.config,
        }

    def csv_rows(self) -> list[tuple]:
        return [row for o in self.orders for row in o.rows]


def _val_of(vec: PadicVector):
    # A difference that vanishes at working precision counts as exact
    # stabilization: its reported valuation is only a lower bound and
    # treating it as a finite stall would fail honest data.
    if vec.is_zero():
        return INF
    return vec.valuation()


@dataclass
class _Tally:
    """Samples lost outside the domain (skipped) or to precision (indeterminate)."""

    skipped: int = 0
    indeterminate: int = 0


def _attempt(tally, compute):
    """Return ``compute()``, or None once its lost sample is counted in ``tally``.

    A point outside the function's domain is skipped; running out of
    precision, or meeting a zero increment, leaves the sample
    indeterminate.  ``tally`` is anything with ``skipped`` and
    ``indeterminate`` counters.
    """
    try:
        return compute()
    except DomainError:
        tally.skipped += 1
    except (PrecisionExhausted, ZeroIncrement):
        tally.indeterminate += 1
    return None


def _walk(tally, value_at, stages):
    """Values along ``stages`` up to the first lost one, and whether all came."""
    values = []
    for j in stages:
        value = _attempt(tally, lambda: value_at(j))
        if value is None:
            return values, False
        values.append(value)
    return values, True


def _walks(f: FunctionExpr, cfg: ProbeConfig, rng: Random | None = None, focus=None):
    """Every probed sequence as (sample, tag, stages, value_at, point).

    ``value_at(j)`` is the value probed at stage j and ``point`` the base
    point a witness names.  A focus list is one walk of f, its points
    taken in order at stages j0, j0 + 1, ...  With ``rng``, cfg.samples
    base points x follow.  At order 0 each walks f(x + v*pi**j) along a
    unit direction v; the directions are drawn after every base point.
    At order n >= 1 each walks the partial quotient at
    (x; v_1..v_n; pi**(j + o_1)..pi**(j + o_n)), once with equal offsets
    o_i = 0 and, with cfg.randomize_increments, once with offsets drawn
    from 0..2.
    """
    ctx = _context_of(cfg.region)
    if focus is not None:
        focus = list(focus)
        yield (
            0,
            "focus",
            range(cfg.j0, cfg.j0 + len(focus)),
            lambda j: f.evaluate(focus[j - cfg.j0]),
            focus[-1] if focus else None,
        )
    if rng is None:
        return
    order, dim = cfg.order, cfg.region.dim
    stages = range(cfg.j0, cfg.j1 + 1)
    if order == 0:
        xs = [ctx.sample_ball(cfg.region, rng) for _ in range(cfg.samples)]
        for s, x in enumerate(xs):
            v = ctx.sample_unit_direction(dim, rng)
            yield s, "order0", stages, lambda j, x=x, v=v: f.evaluate(
                x + v * ctx.pi_pow(j)
            ), x
        return
    for s in range(cfg.samples):
        x = ctx.sample_ball(cfg.region, rng)
        dirs = tuple(ctx.sample_unit_direction(dim, rng) for _ in range(order))
        offsets = [(0,) * order]
        if cfg.randomize_increments:
            offsets.append(tuple(rng.randrange(0, 3) for _ in range(order)))
        for tag, off in zip(("equal", "randomized"), offsets):
            yield s, tag, stages, lambda j, x=x, dirs=dirs, off=off: phi(
                f, PhiPoint(x, dirs, tuple(ctx.pi_pow(j + o) for o in off))
            ), x


def _grows_past(norms: list, ceiling: Fraction) -> bool:
    """Norms growing strictly over at least three stages up to ``ceiling``."""
    return (
        len(norms) >= 3
        and all(b > a for a, b in zip(norms, norms[1:]))
        and norms[-1] >= ceiling
    )


def _cauchy_verdict(
    diff_vals: list,
    delta: int,
    oscillation: str = "oscillation after exact stabilization",
):
    """Check that difference valuations grow by >= delta per step.

    Infinite entries mean exact stabilization; once seen, any return to
    a finite difference fails with the ``oscillation`` detail.  A small
    number of sub-threshold steps is tolerated: an isolated digit
    cancellation can stall the exact valuation sequence at a single
    junction without breaking convergence, whereas a genuinely stuck
    sequence stalls at every step.
    """
    stabilized = False
    prev = None
    violations = 0
    steps = 0
    worst = None
    for idx, v in enumerate(diff_vals):
        if v == INF:
            stabilized = True
            prev = None
            continue
        if stabilized:
            return False, idx, oscillation
        if prev is not None:
            steps += 1
            if v - prev < delta:
                violations += 1
                worst = (idx, v - prev)
        prev = v
    budget = max(1, steps // 3)
    if violations > budget:
        return False, worst[0], (
            f"difference valuations stalled on {violations} of {steps} steps "
            f"(growth {worst[1]} < {delta})"
        )
    return True, None, ""


def continuity_probe(
    f: FunctionExpr,
    cfg: ProbeConfig,
    focus: Sequence[PadicVector] | None = None,
) -> OrderReport:
    """Single-order probe of the continuous-extension criterion.

    For order 0 the probe compares values along shrinking perturbations
    of sampled base points and demands valuation-Cauchy behaviour; a
    caller-supplied focus sequence is instead compared against the
    value at the region center, so a jump of fixed size along the
    sequence fails the criterion.  Higher orders evaluate the partial
    quotient on the geometric increment grid and apply the same
    criterion to successive stage differences.  Only walks that reach
    their last stage count as evidence; when none does the verdict is
    Indeterminate.
    """
    order = cfg.order
    report = OrderReport(order, Verdict.CONTINUOUS_EXTENSION, Fraction(0))
    ceiling = Fraction(_context_of(cfg.region).p) ** cfg.growth_ceiling
    reference = None
    if order == 0 and focus is not None:
        walks = _walks(f, cfg, focus=focus)
        # The center value is a reference, not a sample: losing it is not counted.
        reference = _attempt(_Tally(), lambda: f.evaluate(cfg.region.center))
    else:
        walks = _walks(f, cfg, Random(cfg.seed))
    for s, tag, stages, value_at, point in walks:
        values, complete = _walk(report, value_at, stages)
        if not complete:
            continue
        norms = [v.norm() for v in values]
        report.max_norm = max([report.max_norm, *norms])
        report.rows.extend(
            (s, order, j, tag, _val_str(v.valuation()), str(n))
            for j, v, n in zip(stages, values, norms)
        )
        if _grows_past(norms, ceiling):
            report.witnesses.append(
                Witness(
                    order,
                    s,
                    stages[-1],
                    "norm-growth",
                    [str(n) for n in norms],
                    f"norms grew to {norms[-1]} across refining stages",
                )
            )
            continue
        if reference is None:
            seq, at = [_val_of(b - a) for a, b in zip(values, values[1:])], stages[1:]
        else:
            seq, at = [_val_of(v - reference) for v in values], stages
        ok, idx, why = _cauchy_verdict(seq, cfg.delta)
        if not ok:
            report.witnesses.append(
                Witness(order, s, at[idx], "cauchy-failure", point.to_json(), why)
            )
    kinds = {w.kind for w in report.witnesses}
    if "norm-growth" in kinds:
        report.verdict = Verdict.UNBOUNDED
    elif kinds:
        report.verdict = Verdict.LOCALLY_BOUNDED
    elif not report.rows:  # no walk reached its last stage
        report.verdict = Verdict.INDETERMINATE
    return report


def _context_of(region: Ball) -> FieldContext:
    return region.center.entries[0].context()


def _val_str(v):
    return "inf" if v == INF else str(v)


def probe_smoothness(
    f: FunctionExpr,
    cfg: ProbeConfig,
    focus: Sequence[PadicVector] | None = None,
) -> SmoothnessReport:
    """Run the continuity probe at every order up to cfg.order.

    The order-0 pass consumes the focus sequence; higher orders use the
    sampled grid.  The Lipschitz fit and norm estimate are attached for
    convenience.
    """
    orders = []
    for k in range(cfg.order + 1):
        sub = replace(cfg, order=k, seed=cfg.seed + k)
        orders.append(continuity_probe(f, sub, focus=focus if k == 0 else None))
    config = {knob.name: getattr(cfg, knob.name) for knob in fields(cfg)}
    config["region"] = cfg.region.to_json()
    return SmoothnessReport(
        function=f.to_json(),
        orders=orders,
        lipschitz=lipschitz_fit(
            f, cfg.region, j0=max(cfg.j0, 1), j1=cfg.j1, seed=cfg.seed
        ),
        config=config,
    )


def local_boundedness_probe(
    f: FunctionExpr,
    cfg: ProbeConfig,
    focus: Sequence[PadicVector] | None = None,
) -> dict:
    """Max norm over the probed walks; growth along refinement is flagged.

    The focus list is walked on f itself, and so are the sampled walks
    at order 0.  At higher orders the equal-offset quotient walks of a
    second stream (seed + 1) are walked instead.  Every value measured
    counts toward the max norm.  The verdict is 'Unbounded' only with a
    recorded witness sequence of strictly growing norms hitting the
    configured ceiling, and 'Indeterminate' when no walk reached its
    last stage.
    """
    ceiling = Fraction(_context_of(cfg.region).p) ** cfg.growth_ceiling
    tally = _Tally()
    max_norm = Fraction(0)
    witness = None
    completed = 0
    rng = Random(cfg.seed if cfg.order == 0 else cfg.seed + 1)
    for s, tag, stages, value_at, _ in _walks(f, cfg, rng, focus):
        if tag == "randomized":
            continue
        values, complete = _walk(tally, value_at, stages)
        norms = [v.norm() for v in values]
        max_norm = max([max_norm, *norms])
        completed += complete
        if complete and _grows_past(norms, ceiling):
            witness = {
                "sequence": "focus" if tag == "focus" else f"sample-{s}",
                "norms": [str(n) for n in norms],
            }
    if witness:
        verdict = Verdict.UNBOUNDED
    elif not completed:
        verdict = Verdict.INDETERMINATE
    else:
        verdict = Verdict.LOCALLY_BOUNDED
    return {
        "verdict": verdict.value,
        "max_norm": str(max_norm),
        "witness": witness,
        "skipped": tally.skipped,
        "indeterminate": tally.indeterminate,
    }


def _measured(d: PadicVector) -> PadicVector:
    """``d``, if its valuation is measured; else ``PrecisionExhausted``.

    An apparent zero O(p^k) reports k, only a lower bound, so the least
    valuation is measured when a nonzero entry attains it or every entry
    is an exact zero.
    """
    v = d.valuation()
    if v != INF and not any(e.valuation() == v and not e.is_zero() for e in d):
        raise PrecisionExhausted("the difference vanishes only to working precision")
    return d


def lipschitz_fit(
    f,
    region: Ball,
    *,
    direction: PadicVector | None = None,
    j0: int = 0,
    j1: int = 8,
    samples: int = 8,
    seed: int = 0,
) -> LipschitzFit:
    """Envelope fit of the Lipschitz-class exponent on sampled pairs.

    Collects valuation pairs (a, b) = (val y, val(f(x+y) - f(x))) over
    geometric perturbation levels, takes the worst difference at each
    level and returns the smallest consecutive slope, clipped to
    [0, 1], with the least constant making the bound hold on every
    sample.  All-zero differences yield the degenerate fit (1, 0).
    A difference whose valuation is only a lower bound (``_measured``)
    is not fitted but counted indeterminate in ``lost``.
    """
    ctx = _context_of(region)
    rng = Random(seed)
    evaluate = f.evaluate if isinstance(f, FunctionExpr) else f
    pairs = []
    lost = _Tally()
    for j in range(j0, j1 + 1):
        for _ in range(samples):
            x = ctx.sample_ball(region, rng)
            w = direction if direction is not None else ctx.sample_unit_direction(
                region.dim, rng
            )
            y = w * ctx.pi_pow(j)
            d = _attempt(lost, lambda: _measured(evaluate(x + y) - evaluate(x)))
            if d is None:
                continue
            a = (y).valuation()
            b = d.valuation()
            if a == INF:
                continue
            pairs.append((a, b))
    finite = [(a, b) for a, b in pairs if b != INF]
    if not finite:
        return LipschitzFit(Fraction(1), Fraction(0), True, len(pairs), [])
    worst: dict[int, int] = {}
    for a, b in finite:
        worst[a] = min(b, worst.get(a, b))
    levels = sorted(worst)
    if len(levels) == 1:
        exponent = Fraction(1)
    else:
        slopes = [
            Fraction(worst[b] - worst[a], b - a)
            for a, b in zip(levels, levels[1:])
        ]
        exponent = max(Fraction(0), min(Fraction(1), min(slopes)))
    log_c = max(exponent * a - b for a, b in finite)
    residuals = [b - (exponent * a - log_c) for a, b in finite]
    return LipschitzFit(exponent, log_c, False, len(pairs), residuals)


def directional_continuity_probe(
    f: FunctionExpr,
    v: PadicVector,
    region: Ball,
    *,
    j0: int = 1,
    j1: int = 8,
    samples: int = 8,
    delta: int = 1,
    seed: int = 0,
    focus: Sequence[PadicVector] | None = None,
) -> dict:
    """Uniform convergence of f(x + t v) to f(x) along t = pi**j.

    The sup over the x-sample is taken per stage, so failure means the
    convergence is not uniform on the probed set.  A focus list adds
    adversarial base points to the sample.
    """
    if v.is_zero():
        raise ValueError("direction must be nonzero")
    ctx = _context_of(region)
    rng = Random(seed)
    xs = [ctx.sample_ball(region, rng) for _ in range(samples)]
    if focus is not None:
        xs.extend(focus)
    sups = []
    sup_vals = []
    sup_witness = []
    tally = _Tally()
    for j in range(j0, j1 + 1):
        best = Fraction(0)
        best_val = INF
        who = None
        for x in xs:
            diff = _attempt(
                tally, lambda: f.evaluate(x + v * ctx.pi_pow(j)) - f.evaluate(x)
            )
            if diff is None:
                continue
            d = Fraction(0) if diff.is_zero() else diff.norm()
            if d > best:
                best = d
                best_val = diff.valuation()
                who = x
        sups.append(best)
        sup_vals.append(best_val)
        sup_witness.append(who)
    ok, idx, why = _cauchy_verdict(
        sup_vals, delta, oscillation="sup norms returned after vanishing"
    )
    verdict = "converges" if ok else "fails"
    if tally.indeterminate and ok and all(s == 0 for s in sups):
        verdict = "indeterminate"
    out = {
        "verdict": verdict,
        "sups": [str(s) for s in sups],
        "indeterminate": tally.indeterminate,
    }
    if not ok:
        out["witness"] = {
            "stage": j0 + idx,
            "sup": str(sups[idx]),
            "point": sup_witness[idx].to_json() if sup_witness[idx] else None,
            "detail": why,
        }
    return out


def cn_norm_estimate(f: FunctionExpr, n: int, cfg: ProbeConfig) -> dict:
    """Sampled norm: max over orders k <= n of |quotient| on unit directions.

    Directions are unit-norm by construction; the fitted Lipschitz
    constant of the top-order section joins the max, mirroring the
    definition of the graded norm.
    """
    ctx = _context_of(cfg.region)
    rng = Random(cfg.seed)
    sup = Fraction(0)
    by_order = {}
    tally = _Tally()
    for k in range(n + 1):
        # order 0 has no increment to refine: one stage, f(x) itself
        stages = range(cfg.j0, cfg.j1 + 1) if k else range(1)
        best = Fraction(0)
        for s in range(cfg.samples):
            x = ctx.sample_ball(cfg.region, rng)
            dirs = tuple(
                ctx.sample_unit_direction(cfg.region.dim, rng) for _ in range(k)
            )
            values, _ = _walk(
                tally, lambda j: phi(f, PhiPoint(x, dirs, (ctx.pi_pow(j),) * k)), stages
            )
            best = max([best, *(value.norm() for value in values)])
        by_order[k] = best
        sup = max(sup, best)
    lip_c = Fraction(0)
    if n >= 1:
        rng2 = Random(cfg.seed + 17)
        dirs = tuple(
            ctx.sample_unit_direction(cfg.region.dim, rng2) for _ in range(n)
        )
        ts = tuple(ctx.pi_pow(cfg.j0) for _ in range(n))

        def section(x):
            return phi(f, PhiPoint(x, dirs, ts))

        fit = lipschitz_fit(
            section, cfg.region, j0=max(1, cfg.j0), j1=cfg.j1, seed=cfg.seed + 17
        )
        if not fit.degenerate and fit.log_constant.denominator == 1:
            lip_c = Fraction(ctx.p) ** fit.log_constant.numerator
    return {
        "value": max(sup, lip_c),
        "by_order": {k: str(v) for k, v in by_order.items()},
        "lipschitz_C": str(lip_c),
        "indeterminate": tally.indeterminate,
        "unbounded": sup >= Fraction(ctx.p) ** cfg.growth_ceiling,
    }


def boman_experiment(
    f: FunctionExpr,
    curves: Sequence[Curve],
    n: int,
    cfg: ProbeConfig,
    *,
    param_region: Ball | None = None,
    focus: Sequence[PadicVector] | None = None,
    curve_focus: dict | None = None,
) -> dict:
    """Compare smoothness of the compositions with smoothness of f.

    Probes f o u up to order n for every curve of the finite family,
    probes f directly on its own region, and reports agreement.  The
    hypothesis of the transfer theorems ranges over *all* smooth
    curves; a finite family can only ever refute, never certify, and
    the report says so.
    """
    ctx = _context_of(cfg.region)
    if param_region is None:
        param_region = Ball(ctx.zero_vector(1), -1)
    per_curve = []
    for i, u in enumerate(curves):
        comp = compose(f, u)
        sub = replace(cfg, order=n, region=param_region, seed=cfg.seed + 100 + i)
        rep = probe_smoothness(comp, sub, focus=(curve_focus or {}).get(i))
        per_curve.append(
            {
                "curve": u.to_json(),
                "tag": u.tag,
                "verdicts": [o.verdict.value for o in rep.orders],
                "witnesses": [w.to_json() for w in rep.witnesses],
            }
        )
    direct = probe_smoothness(f, cfg, focus=focus)
    compositions_smooth = all(
        all(v == Verdict.CONTINUOUS_EXTENSION.value for v in c["verdicts"])
        for c in per_curve
    )
    f_smooth = all(
        o.verdict == Verdict.CONTINUOUS_EXTENSION for o in direct.orders
    )
    return {
        "order": n,
        "curves": per_curve,
        "direct": direct.to_json(ctx.p),
        "compositions_smooth": compositions_smooth,
        "function_smooth": f_smooth,
        "consistent": compositions_smooth == f_smooth,
        "note": (
            "finite curve family: the transfer hypothesis ranges over all "
            "smooth curves, so sampled agreement is evidence, not proof; "
            "a single failing composition is a genuine refutation"
        ),
    }


def scaling_inequality_check(
    f,
    *,
    q: PadicScalar,
    radius_exponent: int,
    r: Fraction,
    log_b: Fraction,
    log_c1: Fraction,
    samples: int = 24,
    seed: int = 0,
) -> dict:
    """Functional scaling inequality: hypothesis and conclusion on samples.

    With |q| > 1, if |f(q t) - q f(t)| <= max(b, C1 |t|**r) holds on
    |t| <= p**radius_exponent then |f(t)| <= max(b, C2 |t|**r) holds on
    the q-times larger ball, where

        C2 = max(a**(-r), |q|**(-1-r) * a**r * C1),  a = p**radius_exponent.

    Everything is compared in exact log-norm space.
    """
    if q.norm() <= 1:
        raise ValueError("need |q| > 1")
    ctx = q.context()
    evaluate = f.evaluate if isinstance(f, FunctionExpr) else f
    rng = Random(seed)
    a_log = Fraction(radius_exponent)
    q_log = Fraction(-q.valuation())
    hypothesis_failures = []
    conclusion_failures = []

    def log_of(vec) -> Fraction | None:
        v = vec.valuation()
        return None if v == INF else Fraction(-v)

    points = []
    for _ in range(samples):
        j = rng.randrange(0, 8)
        unit = ctx.sample_unit_direction(1, rng).scalar()
        t = unit * ctx.pi_pow(j - radius_exponent)
        # keep |t| <= a
        if t.norm() > Fraction(ctx.p) ** radius_exponent:
            continue
        points.append(t)
    for t in points:
        t_log = Fraction(-t.valuation())
        lhs = log_of(evaluate(PadicVector([q * t])) - evaluate(PadicVector([t])) * q)
        bound = max(log_b, log_c1 + r * t_log)
        if lhs is not None and lhs > bound:
            hypothesis_failures.append({"t": t.to_json(), "lhs_log": str(lhs)})
    log_c2 = max(-r * a_log, -q_log - r * q_log + r * a_log + log_c1)
    for t in points:
        big_t = q * t
        t_log = Fraction(-big_t.valuation())
        lhs = log_of(evaluate(PadicVector([big_t])))
        bound = max(log_b, log_c2 + r * t_log)
        if lhs is not None and lhs > bound:
            conclusion_failures.append({"t": big_t.to_json(), "lhs_log": str(lhs)})
    return {
        "identity": "scaling-inequality",
        "samples": len(points),
        "log_C2": str(log_c2),
        "hypothesis_failures": hypothesis_failures,
        "failures": conclusion_failures,
        "passed": not hypothesis_failures and not conclusion_failures,
    }
