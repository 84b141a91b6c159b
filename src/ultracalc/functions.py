"""Evaluable representations of functions K^m -> K^l and curves K -> K^m.

Functions are closed expression trees rather than opaque closures, so
that polynomial coefficients stay structurally accessible for closed
forms and reports can print what they probed.  Node kinds: exact
multivariate polynomials, clopen-ball indicators (the canonical smooth
bumps of an ultrametric field), pointwise sums and products, value
scaling, argument shifts, affine argument rescaling, composition, and
named gallery constructions registered by other modules.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .errors import ConfigError, DimensionMismatch, DomainError
from .field import (
    _EXACT_ZERO,
    Ball,
    DigitScalar,
    ExactScalar,
    FieldContext,
    PadicScalar,
    PadicVector,
    _add,
    _mul,
)


class MultiPolynomial:
    """Exact polynomial map K^m -> K^l.

    Terms map an exponent multi-index (length m) to a coefficient
    vector (dimension l).  Zero coefficients are dropped on
    construction and evaluation is exact in the rational backend.  On
    its first evaluation at a prime and backend the polynomial lowers
    itself, once, to the form Horner's rule runs on (``_lower``):
    integer coefficients over one common denominator per output
    coordinate, or the states of its digit coefficients.
    """

    def __init__(self, m: int, l: int, terms: Mapping[tuple, PadicVector]):
        if m < 1 or l < 1:
            raise DimensionMismatch("polynomial dimensions must be >= 1")
        clean = {}
        for exponents, coeff in terms.items():
            exponents = tuple(int(e) for e in exponents)
            if len(exponents) != m:
                raise DimensionMismatch("exponent index length != m")
            if any(e < 0 for e in exponents):
                raise ValueError("negative exponent")
            if coeff.dim != l:
                raise DimensionMismatch("coefficient dimension != l")
            if not coeff.is_zero():
                clean[exponents] = coeff
        self.m = m
        self.l = l
        self.terms = dict(sorted(clean.items()))
        self._lowered = None

    @classmethod
    def univariate(cls, coeffs: Sequence[PadicVector]) -> "MultiPolynomial":
        """Polynomial of one variable; coeffs[i] multiplies x**i."""
        if not coeffs:
            raise ValueError("need at least one coefficient")
        l = coeffs[0].dim
        return cls(1, l, {(i,): c for i, c in enumerate(coeffs)})

    @property
    def degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def univariate_coeff(self, k: int) -> PadicVector | None:
        if self.m != 1:
            raise DimensionMismatch("not univariate")
        return self.terms.get((k,))

    def max_coeff_norm(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        return max(c.norm() for c in self.terms.values())

    def evaluate(self, x: PadicVector) -> PadicVector:
        """Value at x by Horner's rule, nested one variable at a time.

        Both backends run the rule on the polynomial's lowered form
        (``_lower``) and build one scalar per output coordinate.  The
        exact backend runs it on Python ints and reduces each result
        with one gcd; the digit backend on
        ``(val, unit, abs_prec, exact)`` tuples with the DigitScalar
        precision rules, step for step as scalar arithmetic would.
        """
        if len(x.entries) != self.m:
            raise DimensionMismatch(f"expected dim {self.m}, got {x.dim}")
        ctx = x.entries[0].context()
        lowered = self._lowered
        if lowered is None or lowered[0] != (ctx.prime.p, ctx.backend):
            lowered = self._lowered = self._lower(ctx)
        form = lowered[1]
        if ctx.backend == "digits":
            xs = [e._state() for e in x.entries]
            value = _horner_states(form, 0, xs, ctx.prime.p, self.l)
            return PadicVector([DigitScalar(ctx, *s) for s in value])
        degrees, coords = form
        nums = [e.num for e in x.entries]
        dens = [e.den for e in x.entries]
        scale = math.prod(d**k for d, k in zip(dens, degrees))
        out = []
        for den, layers in coords:
            num, den = _horner_ints(layers, 0, nums, dens, degrees), den * scale
            g = math.gcd(num, den)  # den > 0, so the pair is canonical
            out.append(ExactScalar(ctx, None, (num // g, den // g)))
        return PadicVector(out)

    def _lower(self, ctx: FieldContext) -> tuple:
        """The form Horner's rule runs on at points of ``ctx``.

        Returns ``((p, backend), form)``.  For the digit backend ``form``
        is ``_nest`` of the coefficient vectors' states.  For the exact
        backend it is ``(degrees, coords)``: ``degrees[i]`` is the highest
        exponent of x_i, and ``coords[r]`` is ``(den, layers)`` with the
        r-th coordinate's coefficients written as ints over their common
        denominator ``den``, grouped for ``_horner_ints``.  A coefficient
        of another prime or backend raises what adding it to a scalar of
        ``ctx`` raises, for the first such term in Horner's order.
        """
        zero = ctx.zero()
        for c in reversed(self.terms.values()):
            zero._coerce(c[0])
        key = (ctx.prime.p, ctx.backend)
        if ctx.backend == "digits":
            states = {e: [s._state() for s in c] for e, c in self.terms.items()}
            return key, _nest(states, 0, self.m)
        degrees = [max((e[i] for e in self.terms), default=0) for i in range(self.m)]
        coords = []
        for r in range(self.l):
            column = {e: (c[r].num, c[r].den) for e, c in self.terms.items() if c[r].num}
            den = math.lcm(*(d for _, d in column.values()))
            ints = {e: n * (den // d) for e, (n, d) in column.items()}
            coords.append((den, _nest(ints, 0, self.m)))
        return key, (degrees, coords)

    def first_quotient_coord(
        self, z: PadicVector, j: int, tau: PadicScalar
    ) -> PadicVector:
        """Difference quotient in coordinate j, total in the increment.

        Evaluates [f(z + tau*e_j) - f(z)]/tau through the termwise
        expansion, which stays defined at tau = 0 where it returns the
        j-th partial derivative.
        """
        ctx = z.entries[0].context()
        acc = ctx.zero_vector(self.l)
        for exponents, coeff in self.terms.items():
            ej = exponents[j]
            if ej == 0:
                continue
            rest = ctx.one()
            for i, e in enumerate(exponents):
                if i != j and e:
                    rest = rest * z[i]**e
            inner = ctx.zero()
            for k in range(1, ej + 1):
                term = ctx.scalar(math.comb(ej, k)) * z[j] ** (ej - k)
                if k > 1:
                    term = term * tau ** (k - 1)
                inner = inner + term
            acc = acc + coeff * (rest * inner)
        return acc

    def perturbed(self, delta: PadicScalar) -> "MultiPolynomial":
        """Copy with one coefficient nudged; used for fault injection."""
        terms = dict(self.terms)
        if terms:
            key = sorted(terms)[0]
            bumped = PadicVector(
                [terms[key][0] + delta, *terms[key].entries[1:]]
            )
            terms[key] = bumped
        else:
            ctx = delta.context()
            terms[(0,) * self.m] = PadicVector(
                [delta] + [ctx.zero()] * (self.l - 1)
            )
        return MultiPolynomial(self.m, self.l, terms)

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "l": self.l,
            "terms": [
                {"exp": list(e), "coeff": c.to_json()} for e, c in self.terms.items()
            ],
        }

    def __repr__(self) -> str:
        return f"MultiPolynomial(m={self.m}, l={self.l}, terms={len(self.terms)})"


def _nest(terms: dict, axis: int, m: int):
    """Coefficients grouped for Horner's rule: ``(k, inner)`` pairs
    by falling exponent k of x[axis], where ``inner`` groups the terms
    of that exponent over the next axis, and is the coefficient itself
    after the last axis."""
    if axis == m:
        (value,) = terms.values()
        return value
    layers = {}
    for e, n in terms.items():
        layers.setdefault(e[axis], {})[e] = n
    return [(k, _nest(layers[k], axis + 1, m)) for k in sorted(layers, reverse=True)]


def _horner_ints(layers, axis: int, nums, dens, degrees) -> int:
    """Horner's rule on ints, homogenised by powers of the denominators.

    With x_i = nums[i]/dens[i], the polynomial grouped in ``layers`` is
    this int over the product of dens[i]**degrees[i]: a layer of
    exponent k of x[axis] is weighted by a**k * d**(degrees[axis] - k).
    """
    a, d, deg = nums[axis], dens[axis], degrees[axis]
    last = axis == len(nums) - 1
    acc, top = 0, deg
    for k, inner in layers:
        if not last:
            inner = _horner_ints(inner, axis + 1, nums, dens, degrees)
        acc = acc * a ** (top - k) + inner * d ** (deg - k)
        top = k
    return acc * a**top


def _horner_states(layers, axis: int, xs, p: int, l: int) -> list:
    """Horner's rule on the capped-absolute states of ``field``.

    ``layers`` is ``_nest`` of coefficient vectors of l states, and
    ``xs[i]`` is the state of x_i.  Between layers the accumulator is
    multiplied by x[axis] once per exponent, coordinate by coordinate,
    as the scalar rule does: every marker is the scalar path's, and
    ``PrecisionExhausted`` comes from the same step.  Steps on the
    initial exact zero are skipped, since they leave it unchanged.
    """
    x = xs[axis]
    last = axis == len(xs) - 1
    acc = [_EXACT_ZERO] * l
    top = layers[0][0] if layers else 0
    for k, inner in layers:
        for _ in range(top - k):
            acc = [_mul(p, a, x) for a in acc]
        if not last:
            inner = _horner_states(inner, axis + 1, xs, p, l)
        acc = [_add(p, a, b) for a, b in zip(acc, inner)]
        top = k
    for _ in range(top):
        acc = [_mul(p, a, x) for a in acc]
    return acc


class FunctionExpr:
    """Base node of the expression tree."""

    input_dim: int
    output_dim: int

    def evaluate(self, x: PadicVector) -> PadicVector:
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError

    def _check_input(self, x: PadicVector) -> None:
        if len(x.entries) != self.input_dim:
            raise DimensionMismatch(
                f"{type(self).__name__} expects dim {self.input_dim}, got {x.dim}"
            )

    def __call__(self, x: PadicVector) -> PadicVector:
        return self.evaluate(x)


class Poly(FunctionExpr):
    def __init__(self, polynomial: MultiPolynomial):
        self.polynomial = polynomial
        self.input_dim = polynomial.m
        self.output_dim = polynomial.l

    def evaluate(self, x: PadicVector) -> PadicVector:
        self._check_input(x)
        return self.polynomial.evaluate(x)

    def to_json(self) -> dict:
        return {"kind": "poly", "polynomial": self.polynomial.to_json()}

    def __repr__(self) -> str:
        return f"Poly({self.polynomial!r})"


class BallIndicator(FunctionExpr):
    """1 inside the ball, 0 outside; smooth because the ball is clopen."""

    def __init__(self, ball: Ball):
        self.ball = ball
        self.input_dim = ball.dim
        self.output_dim = 1

    def evaluate(self, x: PadicVector) -> PadicVector:
        self._check_input(x)
        ctx = x.entries[0].context()
        inside = self.ball.contains(x)
        return PadicVector([ctx.one() if inside else ctx.zero()])

    def stability_radius(self, x: PadicVector) -> Fraction:
        """A radius on which the indicator is constant around x."""
        d = (x - self.ball.center).norm()
        if d <= self.ball.radius:
            return self.ball.radius
        return d / self.ball.center.entries[0].prime.p

    def to_json(self) -> dict:
        return {"kind": "ball_indicator", "ball": self.ball.to_json()}

    def __repr__(self) -> str:
        return f"BallIndicator(r_exp={self.ball.radius_exponent})"


class Sum(FunctionExpr):
    def __init__(self, *parts: FunctionExpr):
        if not parts:
            raise ValueError("empty sum")
        dims = {(f.input_dim, f.output_dim) for f in parts}
        if len(dims) != 1:
            raise DimensionMismatch("summands disagree in dimension")
        self.parts = tuple(parts)
        self.input_dim, self.output_dim = dims.pop()

    def evaluate(self, x: PadicVector) -> PadicVector:
        self._check_input(x)
        acc = self.parts[0].evaluate(x)
        for f in self.parts[1:]:
            acc = acc + f.evaluate(x)
        return acc

    def to_json(self) -> dict:
        return {"kind": "sum", "parts": [f.to_json() for f in self.parts]}


class Product(FunctionExpr):
    """Pointwise product of scalar-valued functions."""

    def __init__(self, *parts: FunctionExpr):
        if not parts:
            raise ValueError("empty product")
        if any(f.output_dim != 1 for f in parts):
            raise DimensionMismatch("product factors must be scalar valued")
        if len({f.input_dim for f in parts}) != 1:
            raise DimensionMismatch("product factors disagree in input dim")
        self.parts = tuple(parts)
        self.input_dim = parts[0].input_dim
        self.output_dim = 1

    def evaluate(self, x: PadicVector) -> PadicVector:
        self._check_input(x)
        acc = self.parts[0].evaluate(x).scalar()
        for f in self.parts[1:]:
            acc = acc * f.evaluate(x).scalar()
        return PadicVector([acc])

    def to_json(self) -> dict:
        return {"kind": "product", "parts": [f.to_json() for f in self.parts]}


class Scale(FunctionExpr):
    """x -> a * f(x)."""

    def __init__(self, factor: PadicScalar, inner: FunctionExpr):
        self.factor = factor
        self.inner = inner
        self.input_dim = inner.input_dim
        self.output_dim = inner.output_dim

    def evaluate(self, x: PadicVector) -> PadicVector:
        return self.inner.evaluate(x) * self.factor

    def to_json(self) -> dict:
        return {
            "kind": "scale",
            "factor": self.factor.to_json(),
            "inner": self.inner.to_json(),
        }


class Shift(FunctionExpr):
    """x -> f(x - c)."""

    def __init__(self, offset: PadicVector, inner: FunctionExpr):
        if offset.dim != inner.input_dim:
            raise DimensionMismatch("shift offset dim != input dim")
        self.offset = offset
        self.inner = inner
        self.input_dim = inner.input_dim
        self.output_dim = inner.output_dim

    def evaluate(self, x: PadicVector) -> PadicVector:
        self._check_input(x)
        return self.inner.evaluate(x - self.offset)

    def to_json(self) -> dict:
        return {
            "kind": "shift",
            "offset": self.offset.to_json(),
            "inner": self.inner.to_json(),
        }


class AffinePrecompose(FunctionExpr):
    """x -> f((x - c) / T)."""

    def __init__(self, center: PadicVector, scale: PadicScalar, inner: FunctionExpr):
        if center.dim != inner.input_dim:
            raise DimensionMismatch("center dim != input dim")
        if scale.is_zero():
            raise ValueError("affine precompose needs a nonzero scale")
        self.center = center
        self.scale = scale
        self.inner = inner
        self.input_dim = inner.input_dim
        self.output_dim = inner.output_dim

    def evaluate(self, x: PadicVector) -> PadicVector:
        self._check_input(x)
        return self.inner.evaluate((x - self.center) / self.scale)

    def to_json(self) -> dict:
        return {
            "kind": "affine_precompose",
            "center": self.center.to_json(),
            "scale": self.scale.to_json(),
            "inner": self.inner.to_json(),
        }


class Compose(FunctionExpr):
    """x -> outer(inner(x))."""

    def __init__(self, outer: FunctionExpr, inner: FunctionExpr):
        if inner.output_dim != outer.input_dim:
            raise DimensionMismatch(
                f"cannot compose: inner gives dim {inner.output_dim}, "
                f"outer takes dim {outer.input_dim}"
            )
        self.outer = outer
        self.inner = inner
        self.input_dim = inner.input_dim
        self.output_dim = outer.output_dim

    def evaluate(self, x: PadicVector) -> PadicVector:
        self._check_input(x)
        return self.outer.evaluate(self.inner.evaluate(x))

    def to_json(self) -> dict:
        return {
            "kind": "compose",
            "outer": self.outer.to_json(),
            "inner": self.inner.to_json(),
        }


class GalleryFn(FunctionExpr):
    """Named construction with an injected evaluator."""

    def __init__(
        self,
        name: str,
        input_dim: int,
        output_dim: int,
        fn: Callable[[PadicVector], PadicVector],
        params: dict | None = None,
    ):
        self.name = name
        self.input_dim = input_dim
        self.output_dim = output_dim
        self.fn = fn
        self.params = dict(params or {})

    def evaluate(self, x: PadicVector) -> PadicVector:
        self._check_input(x)
        return self.fn(x)

    def to_json(self) -> dict:
        return {"kind": "gallery", "name": self.name, "params": self.params}

    def __repr__(self) -> str:
        return f"GalleryFn({self.name!r})"


@dataclass(frozen=True)
class Curve:
    """A function K -> K^m with a declared smoothness tag."""

    expr: FunctionExpr
    tag: str = "polynomial"

    _TAGS = ("polynomial", "locally-analytic", "patchwork", "locally-constant")

    def __post_init__(self) -> None:
        if self.expr.input_dim != 1:
            raise DimensionMismatch("curves take a one-dimensional parameter")
        if self.tag not in self._TAGS:
            raise ValueError(f"unknown curve tag: {self.tag}")
        if self.tag == "patchwork" and not isinstance(self.expr, GalleryFn):
            raise ValueError("patchwork curves only come from the gallery")

    @property
    def output_dim(self) -> int:
        return self.expr.output_dim

    def at(self, t: PadicScalar) -> PadicVector:
        return self.expr.evaluate(PadicVector([t]))

    def to_json(self) -> dict:
        return {"tag": self.tag, "expr": self.expr.to_json()}


def compose(f: FunctionExpr, u) -> FunctionExpr:
    """Compose f with a curve or another expression."""
    inner = u.expr if isinstance(u, Curve) else u
    return Compose(f, inner)


def polynomial_curve(coeffs: Sequence[PadicVector], tag: str = "polynomial") -> Curve:
    """Curve t -> sum(coeffs[i] * t**i); exactly evaluable."""
    return Curve(Poly(MultiPolynomial.univariate(coeffs)), tag)


def affine_curve(a: PadicVector, b: PadicVector) -> Curve:
    """Curve t -> b + t*a."""
    return polynomial_curve([b, a])


# -- gallery registry --------------------------------------------------------

_GALLERY: dict[str, Callable[..., FunctionExpr]] = {}


def register_gallery(name: str, builder: Callable[..., FunctionExpr]) -> None:
    _GALLERY[name] = builder


def gallery_names() -> list[str]:
    return sorted(_GALLERY)


def gallery_schema(name: str) -> dict:
    """A gallery item's parameters as a ``check_section`` schema: its
    builder's keyword parameters and defaults, each a count of at least 1."""
    if name not in _GALLERY:
        raise DomainError(f"unknown gallery item: {name}")
    _, *knobs = inspect.signature(_GALLERY[name]).parameters.values()
    return {knob.name: (type(knob.default), knob.default, 1) for knob in knobs}


def build_gallery(name: str, ctx: FieldContext, /, **params) -> FunctionExpr:
    """Build a gallery item from parameters checked against its schema."""
    schema = gallery_schema(name)
    return _GALLERY[name](ctx, **check_section(params, schema, f"gallery item {name}"))


# -- config sections ------------------------------------------------------------


def check_section(section, schema: Mapping[str, tuple], where: str) -> dict:
    """``section`` checked against ``schema``, with every default filled in.

    ``schema`` maps each key a section may hold to ``(type, default,
    minimum)``: a given value must be of that type, and at least the
    minimum unless that is None; a list's minimum bounds its length.  A
    key that is absent reads its default.
    """
    if type(section) is not dict:
        raise ConfigError(f"{where} must be an object, got {section!r}")
    unknown = sorted(set(section) - set(schema))
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {unknown}")
    checked = {}
    for key, (want, default, minimum) in schema.items():
        value = checked[key] = section.get(key, default)
        if key not in section:
            continue
        if type(value) is not want:
            raise ConfigError(f"{where}.{key} must be {want.__name__}, got {value!r}")
        size, what = (len(value), "have length") if want is list else (value, "be")
        if minimum is not None and size < minimum:
            raise ConfigError(f"{where}.{key} must {what} at least {minimum}, got {value!r}")
    return checked


# -- JSON expression grammar --------------------------------------------------

# The keys each expression kind needs besides "kind"; a gallery item may
# also take "params".
_EXPR_KEYS = {
    "poly": ("polynomial",),
    "ball_indicator": ("ball",),
    "sum": ("parts",),
    "product": ("parts",),
    "scale": ("factor", "inner"),
    "shift": ("offset", "inner"),
    "affine_precompose": ("center", "scale", "inner"),
    "compose": ("outer", "inner"),
    "gallery": ("name",),
}


def expr_from_json(ctx: FieldContext, data: dict) -> FunctionExpr:
    kind = data.get("kind") if type(data) is dict else None
    if type(kind) is not str or kind not in _EXPR_KEYS:
        raise ConfigError(f"not a function expression: {data!r}")
    missing = [key for key in _EXPR_KEYS[kind] if key not in data]
    if missing:
        raise ConfigError(f"expression kind {kind!r} needs keys {missing}")
    if kind == "poly":
        pd = data["polynomial"]
        terms = {
            tuple(t["exp"]): PadicVector(
                [ctx.scalar_from_json(s) for s in t["coeff"]]
            )
            for t in pd["terms"]
        }
        return Poly(MultiPolynomial(pd["m"], pd["l"], terms))
    if kind == "ball_indicator":
        bd = data["ball"]
        center = PadicVector([ctx.scalar_from_json(s) for s in bd["center"]])
        return BallIndicator(Ball(center, bd["radius_exponent"]))
    if kind == "sum":
        return Sum(*[expr_from_json(ctx, part) for part in data["parts"]])
    if kind == "product":
        return Product(*[expr_from_json(ctx, part) for part in data["parts"]])
    if kind == "scale":
        return Scale(
            ctx.scalar_from_json(data["factor"]), expr_from_json(ctx, data["inner"])
        )
    if kind == "shift":
        offset = PadicVector([ctx.scalar_from_json(s) for s in data["offset"]])
        return Shift(offset, expr_from_json(ctx, data["inner"]))
    if kind == "affine_precompose":
        center = PadicVector([ctx.scalar_from_json(s) for s in data["center"]])
        return AffinePrecompose(
            center,
            ctx.scalar_from_json(data["scale"]),
            expr_from_json(ctx, data["inner"]),
        )
    if kind == "compose":
        return Compose(
            expr_from_json(ctx, data["outer"]), expr_from_json(ctx, data["inner"])
        )
    return build_gallery(data["name"], ctx, **data.get("params", {}))
