"""Higher-order difference quotients and their operator identities.

Two quotient towers are implemented.  The partial tower ``phi`` applies
the first difference quotient

    [f(x + t*v) - f(x)] / t

repeatedly in the base-point slot only, so an order-n value takes a
point (x; v_1..v_n; t_1..t_n).  The full tower ``upsilon`` differences
the previous quotient in *all* of its variables, so its domain points
mirror their own shape recursively: an order-k point is a triple
(base, displacement, increment) whose displacement has exactly the
shape of the base.

On top of the two evaluators sit exact closed forms for univariate
polynomials, the product-rule expansion, low-order composition rules,
scaling and transposition identities, the restriction embedding that
identifies the partial tower inside the full one, and a
valuation-pivoted rank probe for spans over 0/1 directions.
"""

from __future__ import annotations

import itertools
import math
from contextvars import ContextVar
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from typing import Sequence

from .errors import (
    DimensionMismatch,
    IndeterminateRank,
    PrecisionExhausted,
    UnsupportedOrder,
    ZeroIncrement,
)
from .field import INF, PadicScalar, PadicVector
from .functions import (
    AffinePrecompose,
    Curve,
    FunctionExpr,
    MultiPolynomial,
    Poly,
    compose,
)


@dataclass(frozen=True)
class PhiPoint:
    """Argument (x; v_1..v_n; t_1..t_n) of the order-n partial quotient."""

    x: PadicVector
    vs: tuple
    ts: tuple

    def __post_init__(self) -> None:
        if len(self.vs) != len(self.ts):
            raise DimensionMismatch("need as many directions as increments")
        m = len(self.x.entries)
        for v in self.vs:
            if len(v.entries) != m:
                raise DimensionMismatch("direction dimension != base dimension")

    @property
    def order(self) -> int:
        return len(self.vs)

    @property
    def m(self) -> int:
        return self.x.dim

    def drop_last(self) -> "PhiPoint":
        return PhiPoint(self.x, self.vs[:-1], self.ts[:-1])

    def shifted(self) -> "PhiPoint":
        """Base point moved by the last displacement."""
        return PhiPoint(
            self.x + self.vs[-1] * self.ts[-1], self.vs[:-1], self.ts[:-1]
        )

    def permuted(self, perm: Sequence[int]) -> "PhiPoint":
        vs = tuple(self.vs[i] for i in perm)
        ts = tuple(self.ts[i] for i in perm)
        return PhiPoint(self.x, vs, ts)

    def to_json(self) -> dict:
        return {
            "x": self.x.to_json(),
            "vs": [v.to_json() for v in self.vs],
            "ts": [t.to_json() for t in self.ts],
        }


class UpsilonPoint:
    """Recursive argument of the full quotient tower.

    Order 0 wraps a plain vector.  Order k is (base, disp, t) where
    ``disp`` is an order-(k-1)-shaped displacement of ``base`` and
    ``t`` is the scalar increment.  Displacements reuse this class,
    since a displacement of a triple is again a triple.
    """

    __slots__ = ("point", "base", "disp", "t")

    def __init__(self, point=None, base=None, disp=None, t=None):
        if point is not None:
            self.point = point
            self.base = self.disp = self.t = None
        else:
            if base.order != disp.order:
                raise DimensionMismatch("displacement shape != base shape")
            self.point = None
            self.base = base
            self.disp = disp
            self.t = t

    @classmethod
    def leaf(cls, x: PadicVector) -> "UpsilonPoint":
        return cls(point=x)

    @classmethod
    def node(cls, base, disp, t) -> "UpsilonPoint":
        return cls(base=base, disp=disp, t=t)

    @property
    def order(self) -> int:
        if self.point is not None:
            return 0
        return self.base.order + 1

    @property
    def m(self) -> int:
        if self.point is not None:
            return self.point.dim
        return self.base.m

    def add_scaled(self, disp: "UpsilonPoint", t: PadicScalar) -> "UpsilonPoint":
        """Componentwise base + disp * t, through the whole tree."""
        if self.order != disp.order:
            raise DimensionMismatch("displacement shape != point shape")
        if self.point is not None:
            return UpsilonPoint.leaf(self.point + disp.point * t)
        return UpsilonPoint.node(
            self.base.add_scaled(disp.base, t),
            self.disp.add_scaled(disp.disp, t),
            self.t + disp.t * t,
        )

    def flatten(self) -> list[PadicScalar]:
        """Canonical coordinates: base first, then displacement, then t."""
        if self.point is not None:
            return list(self.point.entries)
        return self.base.flatten() + self.disp.flatten() + [self.t]

    def norm(self) -> Fraction:
        return max(s.norm() for s in self.flatten())

    def zero_like(self) -> "UpsilonPoint":
        ctx = self.flatten()[0].context()
        if self.point is not None:
            return UpsilonPoint.leaf(ctx.zero_vector(self.point.dim))
        return UpsilonPoint.node(
            self.base.zero_like(), self.disp.zero_like(), ctx.zero()
        )

    def to_json(self):
        if self.point is not None:
            return {"x": self.point.to_json()}
        return {
            "base": self.base.to_json(),
            "disp": self.disp.to_json(),
            "t": self.t.to_json(),
        }

    def __repr__(self) -> str:
        return f"UpsilonPoint(order={self.order}, m={self.m})"


# -- evaluators ----------------------------------------------------------------

# Leaf values of the current sample by ``(f, *point states)``, or None
# outside a sample; ``verify._attempt`` sets a fresh dict per sample and
# resets it.  The key holds f itself, not its id, so it keeps f alive.
_LEAF_MEMO: ContextVar = ContextVar("leaf_memo", default=None)


def _leaf(f: FunctionExpr, x: PadicVector) -> PadicVector:
    """``f.evaluate(x)``, once per point state within a sample.

    A state is each coordinate's int pair (exact) or capped-absolute
    tuple (digits), so a hit is what recomputation would give.  An
    evaluation that raises stores nothing.
    """
    memo = _LEAF_MEMO.get()
    if memo is None:
        return f.evaluate(x)
    key = (f, *[e._state() for e in x.entries])
    value = memo.get(key)
    if value is None:
        value = memo[key] = f.evaluate(x)
    return value


def _zero_increment(message: str, *ts: PadicScalar) -> Exception:
    """The error for a quotient asked for at increments ``ts``, one of them zero.

    An exact zero is outside the quotient's domain: ``ZeroIncrement``.
    An apparent zero O(p^k) of the digit backend may be a nonzero
    increment whose digits fell below working precision, so it decides
    nothing: ``PrecisionExhausted``, which makes the sample indeterminate.
    """
    if any(t.valuation() == INF for t in ts):
        return ZeroIncrement(message)
    return PrecisionExhausted(f"{message}; the increment is zero only to working precision")


def phi(f: FunctionExpr, pt: PhiPoint) -> PadicVector:
    """Order-n partial difference quotient, by the defining recursion.

    Within a sample of ``verify._attempt`` its 2**n order-0 calls share
    leaf values (``_leaf``); exceptions are not cached.
    """
    if pt.order == 0:
        return _leaf(f, pt.x)
    t = pt.ts[-1]
    if t.is_zero():
        raise _zero_increment(
            "partial quotient needs nonzero increments; use a closed form "
            "or a limit probe for the extension",
            t,
        )
    return (phi(f, pt.shifted()) - phi(f, pt.drop_last())) / t


def upsilon(f: FunctionExpr, pt: UpsilonPoint) -> PadicVector:
    """Order-n full difference quotient, by the defining recursion.

    Within a sample of ``verify._attempt`` its 2**n order-0 calls share
    leaf values (``_leaf``); exceptions are not cached.
    """
    if pt.order == 0:
        return _leaf(f, pt.point)
    if pt.t.is_zero():
        raise _zero_increment("full quotient needs nonzero increments", pt.t)
    moved = pt.base.add_scaled(pt.disp, pt.t)
    return (upsilon(f, moved) - upsilon(f, pt.base)) / pt.t


def embed_phi_point(pt: PhiPoint) -> UpsilonPoint:
    """The full-tower point on which upsilon restricts to phi.

    Every extra displacement slot is zero: the order-k displacement
    carries v_k in its deepest base slot only.
    """
    ctx = pt.x.entries[0].context()

    def direction(v: PadicVector, order: int) -> UpsilonPoint:
        node = UpsilonPoint.leaf(v)
        for k in range(order):
            node = UpsilonPoint.node(
                node, node.zero_like(), ctx.zero()
            )
        return node

    out = UpsilonPoint.leaf(pt.x)
    for k in range(pt.order):
        out = UpsilonPoint.node(out, direction(pt.vs[k], k), pt.ts[k])
    return out


# -- closed forms ----------------------------------------------------------------


def phi_poly_closed(u: MultiPolynomial, pt: PhiPoint) -> PadicVector:
    """Exact order-q partial quotient of a univariate polynomial.

    Expands to the sum over exponent splittings

        binom(n,k_1) binom(n-k_1,k_2) ... v_1^k_1..v_q^k_q
        t_1^(k_1-1)..t_q^(k_q-1) x^(n-k_1-..-k_q)

    and therefore stays defined when increments vanish: this is the
    continuous extension of the recursive evaluator.
    """
    if u.m != 1:
        raise DimensionMismatch("closed form needs a univariate polynomial")
    if pt.m != 1:
        raise DimensionMismatch("closed form needs a one-dimensional point")
    ctx = pt.x.entries[0].context()
    q = pt.order
    x = pt.x.scalar()
    vs = [v.scalar() for v in pt.vs]
    ts = list(pt.ts)
    acc = ctx.zero_vector(u.l)
    for (n,), coeff in u.terms.items():
        if n < q:
            continue
        acc = acc + coeff * _phi_monomial(ctx, n, q, x, vs, ts)
    return acc


def _phi_monomial(ctx, n, q, x, vs, ts):
    if q == 0:
        return x**n
    total = ctx.zero()
    for ks in _exponent_splits(n, q):
        c = 1
        remaining = n
        for k in ks:
            c *= math.comb(remaining, k)
            remaining -= k
        term = ctx.scalar(c) * x ** (n - sum(ks))
        for v, t, k in zip(vs, ts, ks):
            term = term * v**k * t ** (k - 1)
        total = total + term
    return total


def _exponent_splits(n: int, q: int):
    """All (k_1..k_q) with every k_i >= 1 and sum <= n."""

    def rec(remaining, depth):
        if depth == 0:
            yield ()
            return
        for k in range(1, remaining - depth + 2):
            for rest in rec(remaining - k, depth - 1):
                yield (k,) + rest

    yield from rec(n, q)


def upsilon_poly_closed_low(u: MultiPolynomial, pt: UpsilonPoint) -> PadicVector:
    """Exact order-1 and order-2 full quotients of a univariate polynomial."""
    if u.m != 1:
        raise DimensionMismatch("closed form needs a univariate polynomial")
    order = pt.order
    if order not in (1, 2):
        raise UnsupportedOrder(
            "closed forms cover orders 1 and 2; use the recursion beyond"
        )
    ctx = pt.flatten()[0].context()
    if order == 1:
        x = pt.base.point.scalar()
        v0 = pt.disp.point.scalar()
        t1 = pt.t
        acc = ctx.zero_vector(u.l)
        for (n,), coeff in u.terms.items():
            inner = ctx.zero()
            for k1 in range(1, n + 1):
                inner = inner + (
                    ctx.scalar(math.comb(n, k1))
                    * x ** (n - k1)
                    * v0**k1
                    * t1 ** (k1 - 1)
                )
            acc = acc + coeff * inner
        return acc
    x = pt.base.base.point.scalar()
    v0 = pt.base.disp.point.scalar()
    t1 = pt.base.t
    v11 = pt.disp.base.point.scalar()
    v12 = pt.disp.disp.point.scalar()
    v13 = pt.disp.t
    t2 = pt.t
    moved_v = v0 + v12 * t2
    moved_t = t1 + v13 * t2
    acc = ctx.zero_vector(u.l)
    for (n,), coeff in u.terms.items():
        inner = ctx.zero()
        for k1 in range(1, n + 1):
            b1 = ctx.scalar(math.comb(n, k1))
            part = ctx.zero()
            for k2 in range(1, n - k1 + 1):
                part = part + (
                    ctx.scalar(math.comb(n - k1, k2))
                    * x ** (n - k1 - k2)
                    * v11**k2
                    * t2 ** (k2 - 1)
                    * moved_v**k1
                    * moved_t ** (k1 - 1)
                )
            for k2 in range(1, k1 + 1):
                part = part + (
                    x ** (n - k1)
                    * ctx.scalar(math.comb(k1, k2))
                    * v0 ** (k1 - k2)
                    * v12**k2
                    * t2 ** (k2 - 1)
                    * moved_t ** (k1 - 1)
                )
            for k2 in range(1, k1):
                part = part + (
                    x ** (n - k1)
                    * v0**k1
                    * ctx.scalar(math.comb(k1 - 1, k2))
                    * t1 ** (k1 - k2 - 1)
                    * v13**k2
                    * t2 ** (k2 - 1)
                )
            inner = inner + b1 * part
        acc = acc + coeff * inner
    return acc


def differential(u: MultiPolynomial, x: PadicScalar, directions) -> dict:
    """Both normalizations of the order-n differential at zero increments.

    Returns the raw extension value and its n!-scaled counterpart; the
    two conventions disagree by the factorial and reports carry both.
    """
    ctx = x.context()
    n = len(directions)
    pt = PhiPoint(
        PadicVector([x]),
        tuple(PadicVector([d]) for d in directions),
        tuple(ctx.zero() for _ in range(n)),
    )
    raw = phi_poly_closed(u, pt)
    return {"raw": raw, "factorial_scaled": raw * ctx.scalar(math.factorial(n))}


# -- operator identities ---------------------------------------------------------


@dataclass
class CheckReport:
    """Outcome of one identity suite over sampled points."""

    identity: str
    samples: int = 0
    failures: list = dataclass_field(default_factory=list)
    indeterminate: int = 0
    min_agreement_valuation: int | None = None

    @property
    def passed(self) -> bool:
        """Some sample was checked, and every sample agreed."""
        return self.samples > 0 and not self.failures and self.indeterminate == 0

    def record(self, point_json, lhs: PadicVector, rhs: PadicVector) -> None:
        self.samples += 1
        if lhs == rhs:
            gap = (lhs - rhs).valuation()
            if gap != INF:
                self._lower_gap(gap)
            return
        self.failures.append(
            {
                "point": point_json,
                "lhs": lhs.to_json(),
                "rhs": rhs.to_json(),
            }
        )

    def record_indeterminate(self, count: int = 1) -> None:
        self.samples += count
        self.indeterminate += count

    def merge(self, other: "CheckReport") -> None:
        """Add the samples, failures and agreement gap of ``other``."""
        self.samples += other.samples
        self.failures.extend(other.failures)
        self.indeterminate += other.indeterminate
        if other.min_agreement_valuation is not None:
            self._lower_gap(other.min_agreement_valuation)

    def _lower_gap(self, gap: int) -> None:
        if self.min_agreement_valuation is None or gap < self.min_agreement_valuation:
            self.min_agreement_valuation = gap

    def to_json(self) -> dict:
        gap = self.min_agreement_valuation
        return {
            "identity": self.identity,
            "samples": self.samples,
            "failures": self.failures,
            "indeterminate": self.indeterminate,
            "max_valuation_gap": "inf" if gap is None else gap,
            "passed": self.passed,
        }


def leibniz_phi(f: FunctionExpr, g: FunctionExpr, pt: PhiPoint) -> PadicVector:
    """Product-rule expansion of the order-n partial quotient of f*g.

    Sums over every split of the n slots: f takes the quotient over one
    index subset at the original base point, g takes the complement at
    the base point shifted by the f-side displacements.
    """
    if f.output_dim != 1 or g.output_dim != 1:
        raise DimensionMismatch("product rule needs scalar-valued factors")
    n = pt.order
    ctx = pt.x.entries[0].context()
    total = ctx.zero()
    for mask in range(1 << n):
        j_idx = [i for i in range(n) if mask >> i & 1]
        s_idx = [i for i in range(n) if not mask >> i & 1]
        f_pt = PhiPoint(
            pt.x,
            tuple(pt.vs[i] for i in j_idx),
            tuple(pt.ts[i] for i in j_idx),
        )
        shift = pt.x
        for i in j_idx:
            shift = shift + pt.vs[i] * pt.ts[i]
        g_pt = PhiPoint(
            shift,
            tuple(pt.vs[i] for i in s_idx),
            tuple(pt.ts[i] for i in s_idx),
        )
        total = total + phi(f, f_pt).scalar() * phi(g, g_pt).scalar()
    return PadicVector([total])


def _coordinate_quotient(
    f: FunctionExpr, z: PadicVector, j: int, tau: PadicScalar
) -> PadicVector:
    """First quotient of f in coordinate j, extended through tau = 0."""
    if tau.is_zero():
        if isinstance(f, Poly):
            return f.polynomial.first_quotient_coord(z, j, tau)
        raise _zero_increment(
            "coordinate quotient at zero increment needs a polynomial node", tau
        )
    ctx = z.entries[0].context()
    step = PadicVector([tau if i == j else ctx.zero() for i in range(z.dim)])
    return (f.evaluate(z + step) - f.evaluate(z)) / tau


def _splice(a: PadicVector, b: PadicVector, j: int) -> PadicVector:
    """Coordinates 0..j from a, the rest from b."""
    return PadicVector(list(a.entries[: j + 1]) + list(b.entries[j + 1 :]))


def chain_phi_low(f: FunctionExpr, u: Curve, pt: PhiPoint) -> PadicVector:
    """Composition rule for orders 1 and 2 over a one-dimensional parameter.

    Splits the composite quotient over the coordinates of the curve:
    each term pairs a coordinate quotient of f, taken at a partially
    shifted point with the curve-increment t * (first quotient of u_j)
    as its own increment, with that curve quotient.  Order 2 iterates
    the same split through the product rule, which brings in the
    second quotients of the coordinate curves and first quotients of
    the extended curve (u, curve-increment).
    """
    if pt.m != 1:
        raise DimensionMismatch("curve parameter must be one-dimensional")
    if pt.order == 1:
        return _chain_order1(f, u, pt)
    if pt.order == 2:
        return _chain_order2(f, u, pt)
    raise UnsupportedOrder(
        "composition closed forms cover orders 1 and 2; compose and recurse "
        "beyond that"
    )


def _chain_order1(f: FunctionExpr, u: Curve, pt: PhiPoint) -> PadicVector:
    ctx = pt.x.entries[0].context()
    y = pt.x.scalar()
    v = pt.vs[0].scalar()
    t = pt.ts[0]
    if t.is_zero():
        raise _zero_increment("composition rule needs a nonzero increment", t)
    uy = u.at(y)
    uyt = u.at(y + v * t)
    m = uy.dim
    total = ctx.zero_vector(f.output_dim)
    for j in range(m):
        du_j = (uyt[j] - uy[j]) / t
        if du_j.is_zero():
            continue
        z = _splice(uy, uyt, j)
        total = total + _coordinate_quotient(f, z, j, t * du_j) * du_j
    return total


def _chain_order2(f: FunctionExpr, u: Curve, pt: PhiPoint) -> PadicVector:
    ctx = pt.x.entries[0].context()
    y = pt.x.scalar()
    v1, v2 = (v.scalar() for v in pt.vs)
    t1, t2 = pt.ts
    if t1.is_zero() or t2.is_zero():
        raise _zero_increment("composition rule needs nonzero increments", t1, t2)
    m = u.output_dim

    def curve_quotient(j: int, at: PadicScalar) -> PadicScalar:
        return ((u.at(at + v1 * t1)[j]) - u.at(at)[j]) / t1

    def extended_curve(j: int, at: PadicScalar) -> PadicVector:
        """(spliced shift of u, curve increment of coordinate j) at ``at``."""
        ua = u.at(at)
        ub = u.at(at + v1 * t1)
        w = _splice(ua, ub, j)
        tau = ub[j] - ua[j]
        return PadicVector(list(w.entries) + [tau])

    def section(j: int, ext: PadicVector) -> PadicVector:
        """Coordinate-j quotient of f seen as a function of (z, tau)."""
        z = PadicVector(ext.entries[:m])
        tau = ext.entries[m]
        return _coordinate_quotient(f, z, j, tau)

    total = ctx.zero_vector(f.output_dim)
    y2 = y + v2 * t2
    for j in range(m):
        ext_y = extended_curve(j, y)
        ext_y2 = extended_curve(j, y2)
        # First quotient of section(j) composed with the extended curve,
        # by the order-1 split over its m+1 coordinates.
        quot_a = ctx.zero_vector(f.output_dim)
        for j2 in range(m + 1):
            d_ext = (ext_y2[j2] - ext_y[j2]) / t2
            if d_ext.is_zero():
                continue
            spliced = _splice(ext_y, ext_y2, j2)
            inc = t2 * d_ext
            plus = PadicVector(
                [
                    spliced[i] + (inc if i == j2 else ctx.zero())
                    for i in range(m + 1)
                ]
            )
            quot_a = quot_a + ((section(j, plus) - section(j, spliced)) / inc) * d_ext
        termA = quot_a * curve_quotient(j, y2)
        second = (curve_quotient(j, y2) - curve_quotient(j, y)) / t2
        termB = section(j, ext_y) * second
        total = total + termA + termB
    return total


def scaling_identity_check(
    f: FunctionExpr,
    pt: PhiPoint,
    a: PadicScalar,
    T: PadicScalar,
) -> CheckReport:
    """Exact first-order scaling identities in the direction/increment slots.

    Checks, for t != 0 and nonzero a and T:
      (1) quotient at (x, a*v, t/a) equals a * quotient at (x, v, t);
      (2) quotient at (x, v, a*t) equals (1/a) * quotient at (x, a*v, t);
      (3) for g(x) = f(x/T): quotient of g at (x, v, t) equals
          (1/T) * quotient of f at (x/T, v, t/T).
    """
    if pt.order != 1:
        raise UnsupportedOrder("scaling identities are first order")
    if a.is_zero() or T.is_zero():
        raise ValueError("scaling constants must be nonzero")
    report = CheckReport("scaling")
    x, v, t = pt.x, pt.vs[0], pt.ts[0]
    ctx = x.entries[0].context()
    base = phi(f, pt)

    lhs1 = phi(f, PhiPoint(x, (v * a,), (t / a,)))
    report.record({"identity": 1, "point": pt.to_json()}, lhs1, base * a)

    lhs2 = phi(f, PhiPoint(x, (v,), (t * a,)))
    rhs2 = phi(f, PhiPoint(x, (v * a,), (t,))) / a
    report.record({"identity": 2, "point": pt.to_json()}, lhs2, rhs2)

    g = AffinePrecompose(ctx.zero_vector(x.dim), T, f)
    lhs3 = phi(g, PhiPoint(x, (v,), (t,)))
    rhs3 = phi(f, PhiPoint(x / T, (v,), (t / T,))) / T
    report.record({"identity": 3, "point": pt.to_json()}, lhs3, rhs3)
    return report


def transposition_symmetry_check(f: FunctionExpr, pt: PhiPoint) -> CheckReport:
    """Invariance of the partial quotient under permuting (v_i, t_i) pairs."""
    report = CheckReport("transposition-symmetry")
    base = phi(f, pt)
    for perm in itertools.permutations(range(pt.order)):
        value = phi(f, pt.permuted(perm))
        report.record({"perm": list(perm), "point": pt.to_json()}, value, base)
    return report


def multilinearity_at_zero_check(
    u: MultiPolynomial,
    x: PadicScalar,
    directions: Sequence[PadicScalar],
    w: PadicScalar,
    alpha: PadicScalar,
) -> CheckReport:
    """Slotwise linearity and symmetry of the extension at zero increments."""
    ctx = x.context()
    n = len(directions)
    zeros = tuple(ctx.zero() for _ in range(n))

    def closed(dirs) -> PadicVector:
        pt = PhiPoint(
            PadicVector([x]), tuple(PadicVector([d]) for d in dirs), zeros
        )
        return phi_poly_closed(u, pt)

    report = CheckReport("multilinearity-at-zero")
    base = list(directions)
    for i in range(n):
        mixed = list(base)
        mixed[i] = alpha * base[i] + w
        lhs = closed(mixed)
        with_w = list(base)
        with_w[i] = w
        rhs = closed(base) * alpha + closed(with_w)
        report.record({"slot": i}, lhs, rhs)
    reference = closed(base)
    for perm in itertools.permutations(range(n)):
        value = closed([base[i] for i in perm])
        report.record({"perm": list(perm)}, value, reference)
    return report


def upsilon_sup_bound_check(
    u: MultiPolynomial, points: Sequence[UpsilonPoint]
) -> dict:
    """Sup bound for polynomial full quotients on the unit polydisk.

    Every sampled value must have norm at most the largest coefficient
    norm; returns the bound, the maximum attained and any violations.
    A value that only vanishes to working precision, ``O(p**k)``, is
    known to have norm at most ``p**-k``.  When that exceeds the bound
    the sample cannot be decided and counts as indeterminate.
    """
    bound = u.max_coeff_norm()
    max_attained = Fraction(0)
    violations = []
    undecided = 0
    f = Poly(u)
    for pt in points:
        if pt.norm() > 1:
            raise ValueError("sample leaves the unit polydisk")
        value = upsilon(f, pt)
        nv = value.norm()
        # An apparent zero has a finite valuation, which is only a lower bound.
        known = max(
            (e.norm() for e in value if not e.is_zero() or e.valuation() == INF),
            default=Fraction(0),
        )
        if known > bound:
            violations.append({"point": pt.to_json(), "norm": str(known)})
        elif nv > bound:
            undecided += 1
            continue
        if nv > max_attained:
            max_attained = nv
    return {
        "identity": "sup-bound",
        "bound": str(bound),
        "max_attained": str(max_attained),
        "samples": len(points),
        "failures": violations,
        "indeterminate": undecided,
        "passed": not violations and not undecided,
    }


# -- direction span rank ----------------------------------------------------------


def zero_one_directions(ctx, b: int, n: int):
    """All n-tuples of nonzero 0/1 direction vectors in K^b."""
    singles = []
    for bits in range(1, 1 << b):
        singles.append(
            PadicVector(
                [ctx.one() if bits >> i & 1 else ctx.zero() for i in range(b)]
            )
        )
    return list(itertools.product(singles, repeat=n))


def padic_rank(rows: list[list[PadicScalar]]) -> int:
    """Matrix rank by elimination with maximal-norm (minimal valuation) pivots.

    A row is declared zero when every entry vanishes at working
    precision; pivots that cannot be certified nonzero raise
    ``IndeterminateRank``.
    """
    work = [list(r) for r in rows]
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    try:
        for col in range(ncols):
            pivot_row = None
            pivot_val = None
            for r in range(rank, len(work)):
                entry = work[r][col]
                if entry.is_zero():
                    continue
                v = entry.valuation()
                if pivot_val is None or v < pivot_val:
                    pivot_val = v
                    pivot_row = r
            if pivot_row is None:
                continue
            work[rank], work[pivot_row] = work[pivot_row], work[rank]
            pivot = work[rank][col]
            for r in range(rank + 1, len(work)):
                entry = work[r][col]
                if entry.is_zero():
                    continue
                factor = entry / pivot
                work[r] = [
                    work[r][c] - factor * work[rank][c] for c in range(ncols)
                ]
            rank += 1
            if rank == len(work):
                break
    except PrecisionExhausted as exc:
        raise IndeterminateRank(str(exc)) from exc
    return rank


def directional_span_rank(
    f: FunctionExpr,
    n: int,
    b: int,
    grid: Sequence,
) -> int:
    """Rank of the sampled span of order-n quotients over 0/1 directions.

    ``grid`` rows are (x, (t_1..t_n)) samples; columns enumerate all
    (2**b - 1)**n direction choices, so the returned rank can never
    exceed that count and the probe checks it does not.
    """
    if f.output_dim != 1:
        raise DimensionMismatch("rank probe needs a scalar-valued function")
    first_x = grid[0][0]
    ctx = first_x.entries[0].context()
    columns = zero_one_directions(ctx, b, n)
    rows = []
    for x, ts in grid:
        row = []
        for vs in columns:
            value = phi(f, PhiPoint(x, vs, tuple(ts)))
            row.append(value.scalar())
        rows.append(row)
    return padic_rank(rows)


def rank_bound(b: int, n: int) -> int:
    return (2**b - 1) ** n


def compose_then_phi(f: FunctionExpr, u: Curve, pt: PhiPoint) -> PadicVector:
    """Oracle for the composition rule: quotient of the composed function."""
    return phi(compose(f, u), pt)
