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

from dataclasses import dataclass, field as dataclass_field, replace
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


@dataclass(frozen=True)
class ProbeConfig:
    """Shared knobs of the sampling probes.

    The increment grid is geometric: stages j0 <= j <= j1 use t = pi**j
    (plus, optionally, one randomized-offset pass per sample).  The
    verdict threshold ``delta`` is the valuation growth required of
    successive differences per stage.
    """

    order: int
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
        return {
            "order": self.order,
            "sample": self.sample,
            "stage": self.stage,
            "kind": self.kind,
            "point": self.point,
            "detail": self.detail,
        }


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
        value = self.constant_value(p)
        return {
            "r": str(self.exponent),
            "log_p_C": str(self.log_constant),
            "C": str(value),
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

    def verdict(self, order: int) -> Verdict:
        return self.orders[order].verdict

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
        rows = []
        for o in self.orders:
            rows.extend(o.rows)
        return rows


def _val_of(vec: PadicVector):
    # A difference that vanishes at working precision counts as exact
    # stabilization: its reported valuation is only a lower bound and
    # treating it as a finite stall would fail honest data.
    if vec.is_zero():
        return INF
    return vec.valuation()


def _stage_points(ctx, cfg: ProbeConfig, rng: Random, order: int):
    """Sampled (x, directions, increment offsets) tuples."""
    out = []
    for s in range(cfg.samples):
        x = ctx.sample_ball(cfg.region, rng)
        dirs = tuple(
            ctx.sample_unit_direction(cfg.region.dim, rng) for _ in range(order)
        )
        offsets = [tuple(0 for _ in range(order))]
        if cfg.randomize_increments and order >= 1:
            offsets.append(tuple(rng.randrange(0, 3) for _ in range(order)))
        out.append((s, x, dirs, offsets))
    return out


def _order_values(ctx, f, x, dirs, offsets, j):
    if not dirs:
        raise AssertionError("order-0 handled separately")
    ts = tuple(ctx.pi_pow(j + o) for o in offsets)
    pt = PhiPoint(x, dirs, ts)
    return phi(f, pt)


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
    criterion to successive stage differences.
    """
    ctx = _context_of(cfg.region)
    rng = Random(cfg.seed)
    order = cfg.order
    report = OrderReport(order, Verdict.CONTINUOUS_EXTENSION, Fraction(0))
    all_pass = True
    unbounded = False

    def record_rows(sample_idx, values, stages, tag):
        nonlocal unbounded
        norms = [v.norm() for v in values]
        if norms:
            report.max_norm = max(report.max_norm, max(norms))
        for st, value in zip(stages, values):
            report.rows.append(
                (
                    sample_idx,
                    order,
                    st,
                    tag,
                    _val_str(value.valuation()),
                    str(value.norm()),
                )
            )
        if (
            len(norms) >= 3
            and all(b > a for a, b in zip(norms, norms[1:]))
            and norms[-1] >= Fraction(ctx.p) ** cfg.growth_ceiling
        ):
            unbounded = True
            report.witnesses.append(
                Witness(
                    order,
                    sample_idx,
                    stages[-1],
                    "norm-growth",
                    [str(n) for n in norms],
                    f"norms grew to {norms[-1]} across refining stages",
                )
            )
            return True
        return False

    def check_cauchy(sample_idx, seq_vals, stages, point_json):
        nonlocal all_pass
        ok, idx, why = _cauchy_verdict(seq_vals, cfg.delta)
        if not ok:
            all_pass = False
            report.witnesses.append(
                Witness(order, sample_idx, stages[idx], "cauchy-failure", point_json, why)
            )

    if order == 0 and focus is not None:
        base_value = None
        try:
            base_value = f.evaluate(cfg.region.center)
        except (DomainError, PrecisionExhausted):
            base_value = None
        values, stages = [], []
        try:
            for i, point in enumerate(focus):
                values.append(f.evaluate(point))
                stages.append(cfg.j0 + i)
        except DomainError:
            report.skipped += 1
        except PrecisionExhausted:
            report.indeterminate += 1
        if values and not record_rows(0, values, stages, "focus"):
            if base_value is not None:
                seq = [_val_of(v - base_value) for v in values]
                detail = [p.to_json() for p in focus[: len(values)]]
                check_cauchy(0, seq, stages, detail[-1] if detail else None)
            else:
                seq = [_val_of(b - a) for a, b in zip(values, values[1:])]
                check_cauchy(0, seq, stages[1:], None)
    elif order == 0:
        for s, x, dirs, offsets in _stage_points(ctx, cfg, rng, 0):
            v = ctx.sample_unit_direction(cfg.region.dim, rng)
            values, stages = [], []
            try:
                for j in range(cfg.j0, cfg.j1 + 1):
                    values.append(f.evaluate(x + v * ctx.pi_pow(j)))
                    stages.append(j)
            except DomainError:
                report.skipped += 1
                continue
            except PrecisionExhausted:
                report.indeterminate += 1
                continue
            if not record_rows(s, values, stages, "order0"):
                seq = [_val_of(b - a) for a, b in zip(values, values[1:])]
                check_cauchy(s, seq, stages[1:], x.to_json())
    else:
        for s, x, dirs, offsets in _stage_points(ctx, cfg, rng, order):
            for tag_i, off in enumerate(offsets):
                tag = "equal" if tag_i == 0 else "randomized"
                values, stages = [], []
                try:
                    for j in range(cfg.j0, cfg.j1 + 1):
                        values.append(_order_values(ctx, f, x, dirs, off, j))
                        stages.append(j)
                except DomainError:
                    report.skipped += 1
                    continue
                except (PrecisionExhausted, ZeroIncrement):
                    report.indeterminate += 1
                    continue
                if not record_rows(s, values, stages, tag):
                    seq = [_val_of(b - a) for a, b in zip(values, values[1:])]
                    check_cauchy(s, seq, stages[1:], x.to_json())

    if unbounded:
        report.verdict = Verdict.UNBOUNDED
    elif not all_pass:
        report.verdict = Verdict.LOCALLY_BOUNDED
    elif report.indeterminate and report.indeterminate >= cfg.samples:
        report.verdict = Verdict.INDETERMINATE
    else:
        report.verdict = Verdict.CONTINUOUS_EXTENSION
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
    fit = None
    try:
        fit = lipschitz_fit(f, cfg.region, j0=max(cfg.j0, 1), j1=cfg.j1, seed=cfg.seed)
    except (DomainError, PrecisionExhausted):
        fit = None
    report = SmoothnessReport(
        function=f.to_json(),
        orders=orders,
        lipschitz=fit,
        config=_config_json(cfg),
    )
    return report


def _config_json(cfg: ProbeConfig) -> dict:
    return {
        "order": cfg.order,
        "region": cfg.region.to_json(),
        "j0": cfg.j0,
        "j1": cfg.j1,
        "samples": cfg.samples,
        "delta": cfg.delta,
        "seed": cfg.seed,
        "growth_ceiling": cfg.growth_ceiling,
        "randomize_increments": cfg.randomize_increments,
    }


def local_boundedness_probe(
    f: FunctionExpr,
    cfg: ProbeConfig,
    focus: Sequence[PadicVector] | None = None,
) -> dict:
    """Max norm over the probed grid; growth along refinement is flagged.

    The verdict is 'Unbounded' only with a recorded witness sequence of
    strictly growing norms hitting the configured ceiling.
    """
    ctx = _context_of(cfg.region)
    rng = Random(cfg.seed)
    max_norm = Fraction(0)
    witness = None
    skipped = 0
    indeterminate = 0
    sequences = []
    if focus is not None:
        sequences.append(("focus", list(focus)))
    for s, x, dirs, offsets in _stage_points(ctx, cfg, rng, cfg.order):
        if cfg.order == 0:
            v = ctx.sample_unit_direction(cfg.region.dim, rng)
            pts = [x + v * ctx.pi_pow(j) for j in range(cfg.j0, cfg.j1 + 1)]
            sequences.append((f"sample-{s}", pts))
    for name, pts in sequences:
        norms = []
        try:
            for point in pts:
                value = f.evaluate(point)
                norms.append(value.norm())
        except DomainError:
            skipped += 1
            continue
        except PrecisionExhausted:
            indeterminate += 1
            continue
        if norms:
            max_norm = max(max_norm, max(norms))
        if (
            len(norms) >= 3
            and all(b > a for a, b in zip(norms, norms[1:]))
            and norms[-1] >= Fraction(ctx.p) ** cfg.growth_ceiling
        ):
            witness = {
                "sequence": name,
                "norms": [str(n) for n in norms],
            }
    if cfg.order >= 1:
        rng2 = Random(cfg.seed + 1)
        for s, x, dirs, offsets in _stage_points(ctx, cfg, rng2, cfg.order):
            try:
                for j in range(cfg.j0, cfg.j1 + 1):
                    value = _order_values(ctx, f, x, dirs, offsets[0], j)
                    max_norm = max(max_norm, value.norm())
            except DomainError:
                skipped += 1
            except (PrecisionExhausted, ZeroIncrement):
                indeterminate += 1
    verdict = Verdict.UNBOUNDED if witness else Verdict.LOCALLY_BOUNDED
    if indeterminate and max_norm == 0 and witness is None:
        verdict = Verdict.INDETERMINATE
    return {
        "verdict": verdict.value,
        "max_norm": str(max_norm),
        "witness": witness,
        "skipped": skipped,
        "indeterminate": indeterminate,
    }


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
    """
    ctx = _context_of(region)
    rng = Random(seed)
    evaluate = f.evaluate if isinstance(f, FunctionExpr) else f
    pairs = []
    for j in range(j0, j1 + 1):
        for _ in range(samples):
            x = ctx.sample_ball(region, rng)
            w = direction if direction is not None else ctx.sample_unit_direction(
                region.dim, rng
            )
            y = w * ctx.pi_pow(j)
            try:
                d = evaluate(x + y) - evaluate(x)
            except (DomainError, PrecisionExhausted):
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
    indeterminate = 0
    for j in range(j0, j1 + 1):
        best = Fraction(0)
        best_val = INF
        who = None
        for x in xs:
            try:
                diff = f.evaluate(x + v * ctx.pi_pow(j)) - f.evaluate(x)
            except DomainError:
                continue
            except PrecisionExhausted:
                indeterminate += 1
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
    if indeterminate and ok and all(s == 0 for s in sups):
        verdict = "indeterminate"
    out = {
        "verdict": verdict,
        "sups": [str(s) for s in sups],
        "indeterminate": indeterminate,
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
    indeterminate = 0
    for k in range(n + 1):
        best = Fraction(0)
        for s in range(cfg.samples):
            x = ctx.sample_ball(cfg.region, rng)
            dirs = tuple(
                ctx.sample_unit_direction(cfg.region.dim, rng) for _ in range(k)
            )
            try:
                if k == 0:
                    value = f.evaluate(x)
                    best = max(best, value.norm())
                else:
                    for j in range(cfg.j0, cfg.j1 + 1):
                        ts = tuple(ctx.pi_pow(j) for _ in range(k))
                        value = phi(f, PhiPoint(x, dirs, ts))
                        best = max(best, value.norm())
            except DomainError:
                continue
            except (PrecisionExhausted, ZeroIncrement):
                indeterminate += 1
                continue
        by_order[k] = best
        sup = max(sup, best)
    fit = None
    lip_c = Fraction(0)
    if n >= 1:
        rng2 = Random(cfg.seed + 17)
        dirs = tuple(
            ctx.sample_unit_direction(cfg.region.dim, rng2) for _ in range(n)
        )
        ts = tuple(ctx.pi_pow(cfg.j0) for _ in range(n))

        def section(x):
            return phi(f, PhiPoint(x, dirs, ts))

        try:
            fit = lipschitz_fit(
                section, cfg.region, j0=max(1, cfg.j0), j1=cfg.j1, seed=cfg.seed + 17
            )
            if not fit.degenerate and fit.log_constant.denominator == 1:
                lip_c = Fraction(ctx.p) ** fit.log_constant.numerator
        except (DomainError, PrecisionExhausted, ZeroIncrement):
            fit = None
    value = max(sup, lip_c)
    return {
        "value": value,
        "by_order": {k: str(v) for k, v in by_order.items()},
        "lipschitz_C": str(lip_c),
        "indeterminate": indeterminate,
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
        cf = None
        if curve_focus and i in curve_focus:
            cf = curve_focus[i]
        rep = probe_smoothness(comp, sub, focus=cf)
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
