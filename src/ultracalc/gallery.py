"""Executable counterexample constructions.

The centerpiece is a discontinuous function on K^(m+1) whose
compositions with locally analytic curves are nevertheless smooth.  It
is assembled from a family of digit-reindexing maps h_j: each digit
a_n of y at position n is moved to position n**(2*(m-j+1)) + n, so
h_0(y) shrinks incomparably faster than h_1(y), ..., h_m(y), which in
turn all shrink faster than any power of y.  The function

    f(x, y) = g((x - h(y)) / h_0(y)),   f(x, 0) = 0,

with g the indicator of the closed unit ball, therefore takes the
value 1 on a sequence (h(y_k), y_k) -> (0, 0) while any locally
analytic curve through the origin stays outside the moving bump.

The module also builds the patchwork curve: countably many disjointly
supported bump-times-quadratic pieces whose centers converge, the tool
that defeats would-be counterexamples built against curve families.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Callable, Sequence

from .errors import DomainError, PrecisionExhausted
from .field import INF, FieldContext, PadicScalar, PadicVector
from .functions import (
    BallIndicator,
    Curve,
    FunctionExpr,
    GalleryFn,
    register_gallery,
)


@dataclass(frozen=True)
class HFamily:
    """Digit-reindexing maps h_0..h_m on K, each vanishing at 0."""

    ctx: FieldContext
    m: int

    def exponent_of(self, j: int, n: int) -> int:
        """Digit reindexing n -> n**(2*(m-j+1)) + n for the j-th member.

        The even power 2*(m-j+1) decreases with j, so lower-index members
        are pushed much deeper: the valuation of h_(j-1) eventually beats
        any fixed multiple of the valuation of h_j.
        """
        return n ** (2 * (self.m - j + 1)) + n

    def valuation_of(self, j: int, y: PadicScalar):
        """Valuation of h_j(y), read off the leading digit of y.

        Exact for val(y) >= 0, where the reindexing is strictly
        increasing.  Negative digit positions can collide after
        reindexing, so there the valuation is computed from the summed
        series instead.
        """
        v = y.valuation()
        if v is INF or v == INF:
            return INF
        if v >= 0:
            return self.exponent_of(j, v)
        value = self.eval(j, y)
        if value.is_zero():
            raise PrecisionExhausted(
                "reindexed series collides to zero at working precision"
            )
        return value.valuation()

    def eval(self, j: int, y: PadicScalar, target: int | None = None) -> PadicScalar:
        """Sum of reindexed digit terms of y.

        Terminating expansions are reindexed exactly; otherwise digits
        are consumed until the reindexed position passes ``target``
        (the context precision by default).
        """
        if not 0 <= j <= self.m:
            raise ValueError(f"family index out of range: {j}")
        ctx = self.ctx
        if y.is_zero():
            return ctx.zero()
        v = y.valuation()
        stop = self._digit_stop(j, y, target)
        if stop <= v:
            raise PrecisionExhausted(
                "reindexed series truncates to zero at working precision"
            )
        digit_list = y.digits(stop, start=v)
        acc = ctx.zero()
        for i, d in enumerate(digit_list):
            if d == 0:
                continue
            n = v + i
            acc = acc + ctx.scalar(d) * ctx.pi_pow(self.exponent_of(j, n))
        return acc

    def _digit_stop(self, j: int, y: PadicScalar, target: int | None) -> int:
        v = y.valuation()
        if self._terminating(y):
            return self._last_digit_index(y) + 1
        goal = target if target is not None else self.ctx.precision
        n = max(v, 1)
        while self.exponent_of(j, n) < goal:
            n += 1
        return max(n, v)

    @staticmethod
    def _terminating(y: PadicScalar) -> bool:
        from .field import ExactScalar

        if isinstance(y, ExactScalar):
            # Digits terminate exactly for nonnegative p-power fractions.
            if y.num < 0:
                return False
            den = y.den
            p = y.prime.p
            while den % p == 0:
                den //= p
            return den == 1
        return True  # digit scalars store finitely many digits by design

    @staticmethod
    def _last_digit_index(y: PadicScalar) -> int:
        from .field import ExactScalar

        p = y.prime.p
        if isinstance(y, ExactScalar):
            # A terminating y is num / p**-n when n < 0, else an int.
            n = y.valuation()
            unit = y.num // p ** max(n, 0)
        else:
            n, unit = y.val, y.unit_int()
        while unit >= p:
            unit //= p
            n += 1
        return n

    def growth_table(self, n_max: int, k_max: int) -> dict:
        """Valuation margins of the separation conditions on y = pi**k.

        For each j the margin val(h_(j-1)) - n*val(h_j) and for the top
        member val(h_m) - n*val(y) must eventually grow without bound.
        """
        rows = []
        for j in range(1, self.m + 1):
            for n in range(1, n_max + 1):
                margins = [
                    self.exponent_of(j - 1, k) - n * self.exponent_of(j, k)
                    for k in range(1, k_max + 1)
                ]
                rows.append({"j": j, "n": n, "margins": margins})
        top = [
            {
                "n": n,
                "margins": [
                    self.exponent_of(self.m, k) - n * k for k in range(1, k_max + 1)
                ],
            }
            for n in range(1, n_max + 1)
        ]
        return {"separation": rows, "vanishing": top}


@dataclass(frozen=True)
class CounterexampleF:
    """The discontinuous function built over an h-family and a bump.

    The bump is the indicator of the closed unit ball, so membership
    decisions reduce to exact valuation comparisons and the value is
    always 0 or 1.
    """

    family: HFamily

    @property
    def ctx(self) -> FieldContext:
        return self.family.ctx

    @property
    def m(self) -> int:
        return self.family.m

    @property
    def bump(self) -> FunctionExpr:
        return BallIndicator(self.ctx.unit_ball(self.m))

    def h_vector(self, y: PadicScalar, target: int | None = None) -> PadicVector:
        return PadicVector(
            [self.family.eval(j, y, target) for j in range(1, self.m + 1)]
        )

    def evaluate(self, x: PadicVector, y: PadicScalar) -> PadicScalar:
        """f(x, y): total, exact over both backends.

        For y != 0 the value is 1 exactly when |x - h(y)| <= |h_0(y)|,
        a comparison of valuations that only needs h modulo the
        gate valuation.
        """
        ctx = self.ctx
        if x.dim != self.m:
            raise DomainError(f"expected x of dimension {self.m}")
        if y.is_zero():
            return ctx.zero()
        gate = self.family.valuation_of(0, y)
        w = x - self.h_vector(y, target=gate + 1)
        nonzero_vals = [e.valuation() for e in w.entries if not e.is_zero()]
        if any(v < gate for v in nonzero_vals):
            return ctx.zero()
        from .field import DigitScalar

        for e in w.entries:
            if (
                isinstance(e, DigitScalar)
                and e.is_zero()
                and not e.is_exact_zero()
                and e.abs_prec < gate
            ):
                raise PrecisionExhausted(
                    "cannot resolve the bump gate at working precision"
                )
        return ctx.one()


def discontinuity_witness(cf: CounterexampleF, k_max: int) -> list[dict]:
    """Points (h(y_k), y_k) with y_k = pi**k: all carry value 1.

    The coordinates shrink toward the origin while the value stays at
    norm 1, certifying that no continuous extension exists at (0, 0).
    """
    if k_max < 1:
        raise ValueError("need k_max >= 1")
    ctx = cf.ctx
    out = []
    for k in range(1, k_max + 1):
        y = ctx.pi_pow(k)
        x = cf.h_vector(y)
        value = cf.evaluate(x, y)
        max_norm = max(x.norm(), y.norm())
        out.append(
            {
                "k": k,
                "x": x,
                "y": y,
                "value": value,
                "x_norm": x.norm(),
                "y_norm": y.norm(),
                "value_norm": value.norm(),
                "max_norm": max_norm,
            }
        )
    return out


def curve_flatness_check(
    cf: CounterexampleF,
    u: Curve,
    *,
    center: PadicScalar | None = None,
    j_min: int = 2,
    j_max: int = 6,
    samples_per_level: int = 4,
    seed: int = 0,
) -> dict:
    """Composition with a curve vanishing at a point is zero nearby.

    Samples parameters t around the curve's zero and asserts both that
    f(u(t)) = 0 and, whenever the y-part is nonzero, that the gate
    condition |x - h(y)| > |h_0(y)| holds.  Any violation is reported
    as a construction failure.

    The first valuation shell is excluded by default: at valuation 1
    the reindexing exponents of all family members coincide, so the
    moving bump is not yet separated from the curve there.
    """
    ctx = cf.ctx
    center = center if center is not None else ctx.zero()
    at_zero = u.at(center)
    if not at_zero.is_zero():
        raise ValueError("flatness check needs a curve vanishing at the center")
    rng = Random(seed)
    violations = []
    checked = 0
    for j in range(j_min, j_max + 1):
        for _ in range(samples_per_level):
            unit = rng.randrange(1, ctx.p)
            tail = sum(rng.randrange(ctx.p) * ctx.p**i for i in range(1, 4))
            t = center + ctx.scalar(unit + tail) * ctx.pi_pow(j)
            point = u.at(t)
            x = PadicVector(point.entries[: cf.m])
            y = point.entries[cf.m]
            value = cf.evaluate(x, y)
            checked += 1
            if not value.is_zero():
                violations.append(
                    {"t": t.to_json(), "value": value.to_json(), "reason": "nonzero"}
                )
                continue
            if not y.is_zero():
                gate = cf.family.valuation_of(0, y)
                wv = (x - cf.h_vector(y, target=gate + 1)).valuation()
                if not (wv < gate):
                    violations.append(
                        {"t": t.to_json(), "reason": "gate condition failed"}
                    )
    return {
        "identity": "curve-flatness",
        "curve": u.to_json(),
        "samples": checked,
        "failures": violations,
        "passed": not violations,
    }


# -- patchwork curve -----------------------------------------------------------


@dataclass(frozen=True)
class PatchworkCurve:
    """Finite truncation of the disjointly-supported patchwork curve.

    Piece j is a quadratic-in-parameter map scaled by c_j and windowed
    by the bump psi (indicator of the ball of radius |pi|) after the
    affine change h -> (h - center_j) / T_j.  Scales shrink strictly,
    centers accumulate geometrically, and supports never meet.
    """

    ctx: FieldContext
    target_dim: int
    scale_exponents: tuple
    anchors: tuple  # anchor value of each piece at its center
    quad_coeffs: tuple  # vector coefficients of 1, h, h**2
    centers: tuple
    coefficient_exponents: tuple

    @classmethod
    def build(
        cls,
        ctx: FieldContext,
        depth: int,
        target_dim: int = 2,
        sigma: Callable[[int], int] | None = None,
        anchors: Sequence[PadicVector] | None = None,
        quad_coeffs: Sequence[PadicVector] | None = None,
    ) -> "PatchworkCurve":
        if depth < 1:
            raise ValueError("need at least one piece")
        sigma = sigma or (lambda j: j * j)
        exps = tuple(sigma(j) for j in range(1, depth + 1))
        if any(b <= a for a, b in zip(exps, exps[1:])):
            raise ValueError("scale exponents must increase strictly")
        coeff_exps_default = tuple(e * j for j, e in enumerate(exps, start=1))
        if anchors is None:
            # Anchor values no larger than the piece coefficients, so the
            # quotient ceiling is governed by the coefficients alone.
            anchors = tuple(
                ctx.vector([Fraction(1)] + [0] * (target_dim - 1)) * ctx.pi_pow(k)
                for k in coeff_exps_default
            )
        else:
            anchors = tuple(anchors)
        if quad_coeffs is None:
            quad_coeffs = (
                ctx.zero_vector(target_dim),
                ctx.vector([1] * target_dim),
                ctx.vector([1] * target_dim),
            )
        else:
            quad_coeffs = tuple(quad_coeffs)
        centers = []
        partial = ctx.zero()
        for j, e in enumerate(exps, start=1):
            center = partial / ctx.pi() + ctx.pi_pow(e)
            centers.append(center)
            partial = partial + ctx.pi_pow(e)
        curve = cls(
            ctx,
            target_dim,
            exps,
            anchors,
            quad_coeffs,
            tuple(centers),
            coeff_exps_default,
        )
        curve.assert_disjoint_supports()
        return curve

    @property
    def depth(self) -> int:
        return len(self.scale_exponents)

    def scale(self, j: int) -> PadicScalar:
        return self.ctx.pi_pow(self.scale_exponents[j])

    def coefficient(self, j: int) -> PadicScalar:
        return self.ctx.pi_pow(self.coefficient_exponents[j])

    def support_radius_exponent(self, j: int) -> int:
        # psi((h - c)/T) is 1 exactly on |h - c| <= |pi| * |T|.
        return -(self.scale_exponents[j] + 1)

    def assert_disjoint_supports(self) -> None:
        for a in range(self.depth):
            for b in range(a + 1, self.depth):
                d = (self.centers[a] - self.centers[b]).norm()
                ra = Fraction(1, self.ctx.p ** (self.scale_exponents[a] + 1))
                rb = Fraction(1, self.ctx.p ** (self.scale_exponents[b] + 1))
                if d <= max(ra, rb):
                    raise ValueError(
                        f"supports of pieces {a + 1} and {b + 1} intersect"
                    )

    def piece_value(self, j: int, h: PadicScalar) -> PadicVector:
        rel = (h - self.centers[j]) / self.scale(j)
        if rel.norm() > Fraction(1, self.ctx.p):
            return self.ctx.zero_vector(self.target_dim)
        c0, c1, c2 = self.quad_coeffs
        quad = c0 + c1 * rel + c2 * (rel * rel)
        return self.anchors[j] + quad * self.coefficient(j)

    def at(self, h: PadicScalar) -> PadicVector:
        for j in range(self.depth):
            rel_norm = (h - self.centers[j]).norm()
            if rel_norm <= Fraction(1, self.ctx.p ** (self.scale_exponents[j] + 1)):
                return self.piece_value(j, h)
        return self.ctx.zero_vector(self.target_dim)

    def limit_point(self) -> PadicScalar:
        """Accumulation point of the piece centers."""
        total = self.ctx.zero()
        for e in self.scale_exponents:
            total = total + self.ctx.pi_pow(e)
        return total / self.ctx.pi()

    def as_curve(self) -> Curve:
        fn = GalleryFn(
            "patchwork",
            1,
            self.target_dim,
            lambda v: self.at(v.scalar()),
            params={
                "depth": self.depth,
                "scale_exponents": list(self.scale_exponents),
            },
        )
        return Curve(fn, tag="patchwork")

    def quotient_bound_rhs(self, j: int, q: int, radius: Fraction) -> Fraction:
        """Ceiling for the order-q full quotient over piece j.

        Combines the largest piece coefficient (anchor included, since
        the anchor plays the constant term of the quadratic), q inverse
        powers of the piece scale, the bump-quotient growth
        (q+1) * (R/|pi|)**q and the inverse minimal scale V_q**(-q).
        """
        if q < 1:
            raise ValueError("quotient bound needs order >= 1")
        R = max(Fraction(1), radius)
        c_norm = Fraction(1, self.ctx.p ** self.coefficient_exponents[j])
        quad_norm = max(c.norm() for c in self.quad_coeffs)
        prefactor = max(self.anchors[j].norm(), c_norm * max(Fraction(1), quad_norm))
        t_norm = Fraction(1, self.ctx.p ** self.scale_exponents[j])
        v_q = min(
            Fraction(1, self.ctx.p ** self.scale_exponents[i])
            for i in range(min(q, self.depth))
        )
        bump = (q + 1) * (R * self.ctx.p) ** q
        return max(Fraction(1), R**2) * prefactor * t_norm ** (-q) * bump * v_q ** (-q)


def patchwork_curve(
    ctx: FieldContext,
    depth: int,
    target_dim: int = 2,
    sigma: Callable[[int], int] | None = None,
    anchors: Sequence[PadicVector] | None = None,
) -> PatchworkCurve:
    """Build the truncated patchwork curve; supports are checked disjoint."""
    return PatchworkCurve.build(
        ctx, depth, target_dim=target_dim, sigma=sigma, anchors=anchors
    )


# -- gallery registration -------------------------------------------------------


def build_counterexample(ctx: FieldContext, m: int = 1) -> CounterexampleF:
    return CounterexampleF(HFamily(ctx, m))


def _thm41_builder(ctx: FieldContext, m: int = 1) -> FunctionExpr:
    cf = build_counterexample(ctx, m)

    def fn(point: PadicVector) -> PadicVector:
        x = PadicVector(point.entries[:m])
        y = point.entries[m]
        return PadicVector([cf.evaluate(x, y)])

    return GalleryFn("thm41", m + 1, 1, fn, params={"m": m})


def _patchwork_builder(ctx: FieldContext, depth: int = 3, target_dim: int = 2):
    return patchwork_curve(ctx, depth, target_dim=target_dim).as_curve().expr


def _reciprocal_builder(ctx: FieldContext) -> FunctionExpr:
    def fn(point: PadicVector) -> PadicVector:
        s = point.scalar()
        if s.is_zero():
            raise DomainError("reciprocal is undefined at zero")
        return PadicVector([ctx.one() / s])

    return GalleryFn("reciprocal", 1, 1, fn)


register_gallery("thm41", _thm41_builder)
register_gallery("patchwork", _patchwork_builder)
register_gallery("reciprocal", _reciprocal_builder)
