"""Exact arithmetic in the field of p-adic numbers.

Scalars come in two interchangeable backends:

* ``ExactScalar`` holds a rational number as a reduced int pair
  ``(num, den)`` and computes valuations on demand.  Every operation is
  exact, which makes this the ground-truth backend for identity
  checking: rational data in, rational data out.
* ``DigitScalar`` stores a valuation, an integer unit prime to p and
  an absolute precision marker (the capped-absolute model), and models
  lossy arithmetic honestly.  A value is known modulo ``p**abs_prec``;
  division by a scalar of valuation ``k`` lowers ``abs_prec`` by ``k``,
  and once the marker reaches zero the operation raises
  ``PrecisionExhausted`` instead of rounding silently.  Base-p digits
  are derived from the unit only when a report or a caller asks.

Every scalar holds the ``FieldContext`` that made it; arithmetic passes
that context on to its results, so the configured backend and precision
travel with the data.

The norm is ``|x| = p**(-v(x))`` with ``|0| = 0``, vectors carry the
sup-norm, balls are clopen and either disjoint or nested, and sampling
draws digitwise-uniform points deterministically from a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from random import Random
from typing import Iterator, Sequence, Union

from .errors import (
    BackendMismatch,
    DivisionByZero,
    PrecisionExhausted,
    PrimeMismatch,
)

INF = math.inf

#: Default number of digits of absolute precision for the truncated backend.
DEFAULT_PRECISION = 32

RationalLike = Union[int, Fraction]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def int_valuation(n: int, p: int) -> int:
    """Largest k with p**k dividing the nonzero integer n."""
    if n == 0:
        raise ValueError("valuation of integer zero is infinite")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@dataclass(frozen=True)
class Prime:
    """A checked prime; also the base of the valuation and the uniformizer."""

    p: int

    def __post_init__(self) -> None:
        if self.p < 2 or not _is_prime(self.p):
            raise ValueError(f"not a prime: {self.p}")

    def __repr__(self) -> str:
        return f"Prime({self.p})"


class PadicScalar:
    """Shared interface of both scalar backends."""

    __slots__ = ("ctx",)

    # -- subclass protocol -------------------------------------------------
    def valuation(self):  # int or math.inf
        raise NotImplementedError

    def is_zero(self) -> bool:
        raise NotImplementedError

    def digits(self, upto: int, start: int | None = None) -> list[int]:
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError

    # -- shared behaviour --------------------------------------------------
    @property
    def prime(self) -> Prime:
        return self.ctx.prime

    @property
    def p(self) -> int:
        return self.ctx.prime.p

    def norm(self) -> Fraction:
        """p-adic absolute value as an exact rational."""
        v = self.valuation()
        if v is INF or v == INF:
            return Fraction(0)
        p = self.ctx.prime.p
        return Fraction(1, p**v) if v >= 0 else Fraction(p ** (-v))

    def context(self) -> "FieldContext":
        """The context that made this scalar (or its left operand)."""
        return self.ctx

    def _coerce(self, other) -> "PadicScalar":
        if type(other) is type(self) and other.ctx is self.ctx:
            return other
        if isinstance(other, PadicScalar):
            if other.ctx is not self.ctx and other.ctx.prime != self.ctx.prime:
                raise PrimeMismatch(f"{self.prime} vs {other.prime}")
            if type(other) is not type(self):
                raise BackendMismatch(
                    f"{type(self).__name__} vs {type(other).__name__}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.scalar(other)
        return NotImplemented

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __radd__(self, other):
        return self + other

    def __rmul__(self, other):
        return self * other

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers")
        result = self.ctx.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __bool__(self) -> bool:
        return not self.is_zero()


# -- rational rules -------------------------------------------------------------
#
# The exact backend's add, multiply and divide rules, on ``(num, den)``
# int pairs in lowest terms with ``den > 0``: the canonical form of
# ``fractions.Fraction``, reached by the same gcd steps.  The ExactScalar
# methods wrap them, so the rules exist once.


def _q_add(na: int, da: int, nb: int, db: int) -> tuple:
    g = math.gcd(da, db)
    if g == 1:
        return (na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = math.gcd(t, g)
    if g2 == 1:
        return (t, s * db)
    return (t // g2, s * (db // g2))


def _q_mul(na: int, da: int, nb: int, db: int) -> tuple:
    g1 = math.gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = math.gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return (na * nb, db * da)


def _q_div(na: int, da: int, nb: int, db: int) -> tuple:
    """The quotient; ``nb`` must be nonzero."""
    g1 = math.gcd(na, nb)
    if g1 > 1:
        na //= g1
        nb //= g1
    g2 = math.gcd(db, da)
    if g2 > 1:
        da //= g2
        db //= g2
    n, d = na * db, nb * da
    if d < 0:
        return (-n, -d)
    return (n, d)


class ExactScalar(PadicScalar):
    """A p-adic number held as an exact rational ``num / den``.

    The pair is in lowest terms with ``den > 0``, as ``Fraction`` keeps
    it, so equality is equality of pairs and ``hash`` is the Fraction's.
    """

    __slots__ = ("num", "den", "_val")

    def __init__(
        self, ctx: "FieldContext", value: RationalLike | None, pair: tuple | None = None
    ):
        """``value`` is an int or a Fraction; or it is None and ``pair``
        is a ``(num, den)`` already in lowest terms with ``den > 0``."""
        self.ctx = ctx
        if pair is not None:
            self.num, self.den = pair
        elif type(value) is int:
            self.num, self.den = value, 1
        elif isinstance(value, Fraction):
            self.num, self.den = value.numerator, value.denominator
        else:
            raise TypeError(f"an exact scalar is an int or a Fraction, got {value!r}")
        self._val = None

    @property
    def value(self) -> Fraction:
        """The value as a Fraction, built on request."""
        return Fraction(self.num, self.den)

    def _state(self) -> tuple:
        """``(num, den)``: the value, as ``DigitScalar._state`` gives its own."""
        return (self.num, self.den)

    # num/den are reduced, so the p-power content of the denominator is
    # exactly the negative part of the valuation.
    def valuation(self):
        if self._val is None:
            if not self.num:
                self._val = INF
            else:
                p = self.ctx.prime.p
                self._val = int_valuation(self.num, p) - int_valuation(self.den, p)
        return self._val

    def is_zero(self) -> bool:
        return not self.num

    def digits(self, upto: int, start: int | None = None) -> list[int]:
        """Canonical residues a_n of the expansion sum(a_n * p**n).

        Returns the digits for exponents ``start <= n < upto``; the
        default start is ``min(0, valuation)``.  The reconstruction
        ``sum(digits[i] * p**(start+i))`` is congruent to the value
        modulo ``p**upto``.
        """
        p = self.prime.p
        v = self.valuation()
        if start is None:
            start = 0 if v is INF else min(0, v)
        if upto <= start:
            return []
        length = upto - start
        if v is INF:
            return [0] * length
        if v < start:
            raise ValueError("expansion has nonzero digits below start")
        # The value over p**start, whose denominator is then prime to p.
        num, den = self.num * p ** max(0, -start), self.den * p ** max(0, start)
        g = math.gcd(num, den)
        modulus = p**length
        unit = (num // g * pow(den // g, -1, modulus)) % modulus
        out = []
        for _ in range(length):
            unit, r = divmod(unit, p)
            out.append(r)
        return out

    def to_json(self) -> dict:
        return {"p": self.prime.p, "num": str(self.num), "den": str(self.den)}

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ExactScalar(self.ctx, None, _q_add(self.num, self.den, other.num, other.den))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ExactScalar(self.ctx, None, _q_mul(self.num, self.den, other.num, other.den))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num:
            raise DivisionByZero("division by zero scalar")
        return ExactScalar(self.ctx, None, _q_div(self.num, self.den, other.num, other.den))

    def __neg__(self):
        return ExactScalar(self.ctx, None, (-self.num, self.den))

    def __eq__(self, other):
        if isinstance(other, ExactScalar):
            return self.prime == other.prime and (self.num, self.den) == (other.num, other.den)
        if isinstance(other, int):
            return self.den == 1 and self.num == other
        if isinstance(other, Fraction):
            return (self.num, self.den) == (other.numerator, other.denominator)
        return NotImplemented

    def __hash__(self):
        # Equal to an int or Fraction of the same value, so hash alike.
        return hash(self.value)

    def __repr__(self) -> str:
        return f"Qp({self.value}; p={self.prime.p})"


# -- capped-absolute rules ------------------------------------------------------
#
# The digit backend's normalise, add and multiply rules, on plain
# ``(val, unit, abs_prec, exact)`` tuples: the fields of a DigitScalar.
# The DigitScalar methods wrap them, and polynomial evaluation runs them
# directly, so the bookkeeping exists once.

_EXACT_ZERO = (None, 0, INF, True)


def _apparent_zero(abs_prec) -> tuple:
    if abs_prec <= 0:
        raise PrecisionExhausted("no significant digits remain")
    return (None, 0, abs_prec, False)


def _normalise(p: int, val: int, unit: int, abs_prec, exact: bool = False) -> tuple:
    """``p**val * unit`` modulo ``p**abs_prec``; ``exact`` is cleared
    whenever the reduction changes the unit."""
    if abs_prec <= 0:
        raise PrecisionExhausted("absolute precision marker reached zero")
    room = abs_prec - val
    if room <= 0:
        return _apparent_zero(abs_prec)
    reduced = unit % p**room
    if reduced != unit:
        exact = False
    if not reduced:
        return _EXACT_ZERO if exact else _apparent_zero(abs_prec)
    while not reduced % p:
        reduced //= p
        val += 1
    return (val, reduced, abs_prec, exact)


def _add(p: int, a: tuple, b: tuple) -> tuple:
    """The sum; an exact-zero operand returns the other one itself."""
    aval, aunit, aprec, aexact = a
    bval, bunit, bprec, bexact = b
    if aval is None and aprec == INF:
        return b
    if bval is None and bprec == INF:
        return a
    prec = min(aprec, bprec)
    if aval is None:
        if bval is None:
            return _apparent_zero(prec)
        return _normalise(p, bval, bunit, prec)
    if bval is None:
        return _normalise(p, aval, aunit, prec)
    v0 = min(aval, bval)
    total = aunit * p ** (aval - v0) + bunit * p ** (bval - v0)
    return _normalise(p, v0, total, prec, aexact and bexact)


def _mul(p: int, a: tuple, b: tuple) -> tuple:
    aval, aunit, aprec, aexact = a
    bval, bunit, bprec, bexact = b
    if (aval is None and aprec == INF) or (bval is None and bprec == INF):
        return _EXACT_ZERO
    va = aprec if aval is None else aval
    vb = bprec if bval is None else bval
    prec = min(va + bprec, vb + aprec)
    if aval is None or bval is None:
        return _apparent_zero(prec)
    return _normalise(p, va + vb, aunit * bunit, prec, aexact and bexact)


class DigitScalar(PadicScalar):
    """A p-adic number known modulo ``p**abs_prec``.

    Stored in capped-absolute form as ``p**val * unit``: ``unit`` is a
    Python int prime to p and below ``p**(abs_prec - val)``.  An exact
    zero carries infinite precision, while a value that merely vanishes
    to working precision keeps a finite marker and reports its
    valuation as that lower bound; both store ``val = None`` and unit 0.
    ``exact_digits`` records that the unit is the complete expansion, in
    which case the scalar behaves like an exactly known value.  The
    base-p digits (``unit_digits``, ``digits``, ``to_json``) are derived
    from the unit on request and never stored.
    """

    __slots__ = ("val", "unit", "abs_prec", "exact_digits")

    def __init__(
        self, ctx: "FieldContext", val, unit: int, abs_prec, exact: bool = False
    ):
        self.ctx = ctx
        self.val = val
        self.unit = unit
        self.abs_prec = abs_prec
        self.exact_digits = exact

    # -- construction ------------------------------------------------------
    @classmethod
    def exact_zero(cls, ctx: "FieldContext") -> "DigitScalar":
        return cls(ctx, *_EXACT_ZERO)

    @classmethod
    def apparent_zero(cls, ctx: "FieldContext", abs_prec: int) -> "DigitScalar":
        return cls(ctx, *_apparent_zero(abs_prec))

    @classmethod
    def make(
        cls, ctx: "FieldContext", val: int, unit: int, abs_prec, exact: bool = False
    ) -> "DigitScalar":
        """Normalize ``p**val * unit`` modulo ``p**abs_prec``.

        ``exact`` asserts that p**val * unit is the true value; it is
        cleared automatically whenever the reduction changes the unit.
        """
        return cls(ctx, *_normalise(ctx.prime.p, val, unit, abs_prec, exact))

    def _state(self) -> tuple:
        """``(val, unit, abs_prec, exact_digits)``, the form the
        capped-absolute rules take."""
        return (self.val, self.unit, self.abs_prec, self.exact_digits)

    @classmethod
    def from_pair(cls, ctx: "FieldContext", num: int, den: int) -> "DigitScalar":
        """``num / den`` modulo ``p**ctx.precision``, for a pair in lowest
        terms with ``den > 0``."""
        if not num:
            return cls.exact_zero(ctx)
        abs_prec = ctx.precision
        p = ctx.prime.p
        vn = int_valuation(num, p)
        vd = int_valuation(den, p)
        v = vn - vd
        if v >= abs_prec:
            return cls.apparent_zero(ctx, abs_prec)
        modulus = p ** (abs_prec - v)
        num //= p**vn
        den //= p**vd
        terminating = num > 0 and den == 1
        # A terminating unit goes in whole, so that make clears the
        # exactness of one that does not fit in the precision.
        unit = num if terminating else (num * pow(den, -1, modulus)) % modulus
        return cls.make(ctx, v, unit, abs_prec, exact=terminating)

    # -- queries -----------------------------------------------------------
    def is_zero(self) -> bool:
        return self.val is None

    def is_exact_zero(self) -> bool:
        return self.val is None and self.abs_prec == INF

    def valuation(self):
        if self.val is None:
            # For an apparent zero this is only a lower bound.
            return self.abs_prec
        return self.val

    def unit_int(self) -> int:
        return self.unit

    @property
    def unit_digits(self) -> tuple:
        """Base-p digits of the unit, least significant first."""
        p = self.ctx.prime.p
        u = self.unit
        out = []
        while u:
            u, r = divmod(u, p)
            out.append(r)
        return tuple(out)

    def digits(self, upto: int, start: int | None = None) -> list[int]:
        if self.abs_prec != INF and upto > self.abs_prec:
            raise PrecisionExhausted(
                f"requested digits to p**{upto} but only know modulo "
                f"p**{self.abs_prec}"
            )
        if self.val is None:
            if start is None:
                start = 0
            return [0] * max(0, upto - start)
        if start is None:
            start = min(0, self.val)
        if upto <= start:
            return []
        if self.val < start:
            raise ValueError("expansion has nonzero digits below start")
        p = self.ctx.prime.p
        out = [0] * (min(self.val, upto) - start)
        u = self.unit
        for _ in range(upto - self.val):
            u, r = divmod(u, p)
            out.append(r)
        return out

    def to_json(self) -> dict:
        val = "inf" if self.val is None and self.abs_prec == INF else (
            self.abs_prec if self.val is None else self.val
        )
        return {"p": self.ctx.prime.p, "val": val, "digits": list(self.unit_digits)}

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._state(), other._state()
        total = _add(self.ctx.prime.p, a, b)
        if total is b:
            return other
        if total is a:
            return self
        return DigitScalar(self.ctx, *total)

    def __neg__(self):
        if self.val is None:
            return self
        # A terminating expansion negates to a non-terminating one, so
        # exactness never survives negation.  The negated unit is still
        # prime to p and reduced, so it needs no normalization.
        modulus = self.ctx.prime.p ** (self.abs_prec - self.val)
        return DigitScalar(self.ctx, self.val, -self.unit % modulus, self.abs_prec)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return DigitScalar(
            self.ctx, *_mul(self.ctx.prime.p, self._state(), other._state())
        )

    def __truediv__(self, other):
        """Division; costs the divisor's valuation in absolute precision.

        A divisor whose stored digits are its complete expansion only
        charges its valuation k, so the result marker is abs_prec - k:
        pure valuation bookkeeping.  A divisor that is itself truncated
        additionally caps the result at its own relative precision.
        Exhaustion is a hard error, never a silent rounding.
        """
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_exact_zero():
            raise DivisionByZero("division by zero scalar")
        if other.val is None:
            raise PrecisionExhausted(
                "divisor is indistinguishable from zero at working precision"
            )
        if self.is_exact_zero():
            return self
        k = other.val
        va = self.valuation()
        prec = self.abs_prec - k
        if not other.exact_digits:
            prec = min(prec, other.abs_prec + va - 2 * k)
        if prec <= 0:
            raise PrecisionExhausted(
                f"division by valuation-{k} scalar left no absolute precision"
            )
        if self.val is None:
            return DigitScalar.apparent_zero(self.ctx, prec)
        v = self.val - k
        modulus = self.ctx.prime.p ** (prec - v)
        unit = self.unit * pow(other.unit, -1, modulus) % modulus
        exact = self.exact_digits and other.exact_digits and other.unit == 1
        return DigitScalar.make(self.ctx, v, unit, prec, exact=exact)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.scalar(other)
        if not isinstance(other, DigitScalar):
            return NotImplemented
        if self.prime != other.prime:
            return False
        prec = min(self.abs_prec, other.abs_prec)
        diff = self + (-other)
        if diff.is_zero():
            return True
        return diff.val >= prec

    def __hash__(self):
        raise TypeError("DigitScalar compares modulo precision; not hashable")

    def __repr__(self) -> str:
        p = self.ctx.prime.p
        if self.is_exact_zero():
            return f"Zp(0; p={p})"
        if self.is_zero():
            return f"Zp(O(p^{self.abs_prec}); p={p})"
        digits = self.unit_digits
        ds = "".join(str(d) for d in digits[:8])
        tail = "..." if len(digits) > 8 else ""
        return f"Zp(p^{self.val}*[{ds}{tail}]; p={p}, O(p^{self.abs_prec}))"


class PadicVector:
    """A finite tuple of scalars with the sup-norm."""

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[PadicScalar]):
        entries = tuple(entries)
        if not entries:
            raise ValueError("vectors must have at least one entry")
        first = entries[0]
        ctx, kind = first.ctx, type(first)
        for e in entries[1:]:
            # Entries of one context share its prime: no Prime comparison.
            if e.ctx is ctx and type(e) is kind:
                continue
            if e.ctx.prime != ctx.prime:
                raise PrimeMismatch("mixed primes in vector")
            if type(e) is not kind:
                raise BackendMismatch("mixed backends in vector")
        self.entries = entries

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> PadicScalar:
        return self.entries[i]

    def __iter__(self) -> Iterator[PadicScalar]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def norm(self) -> Fraction:
        return max(e.norm() for e in self.entries)

    def valuation(self):
        return min(e.valuation() for e in self.entries)

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.entries)

    def __add__(self, other: "PadicVector") -> "PadicVector":
        if not isinstance(other, PadicVector):
            return NotImplemented
        if len(other.entries) != len(self.entries):
            from .errors import DimensionMismatch

            raise DimensionMismatch(f"{self.dim} vs {other.dim}")
        return PadicVector([a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "PadicVector") -> "PadicVector":
        return self + (-other)

    def __neg__(self) -> "PadicVector":
        return PadicVector([-e for e in self.entries])

    def __mul__(self, scalar) -> "PadicVector":
        return PadicVector([e * scalar for e in self.entries])

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "PadicVector":
        return PadicVector([e / scalar for e in self.entries])

    def __eq__(self, other):
        if not isinstance(other, PadicVector):
            return NotImplemented
        return self.dim == other.dim and all(
            a == b for a, b in zip(self.entries, other.entries)
        )

    def __hash__(self):
        return hash(tuple(self.entries))

    def scalar(self) -> PadicScalar:
        """The single entry of a one-dimensional vector."""
        if self.dim != 1:
            from .errors import DimensionMismatch

            raise DimensionMismatch("expected a one-dimensional vector")
        return self.entries[0]

    def to_json(self) -> list:
        return [e.to_json() for e in self.entries]

    def __repr__(self) -> str:
        return f"Vec({', '.join(repr(e) for e in self.entries)})"


@dataclass(frozen=True)
class Ball:
    """Clopen ball of radius ``p**radius_exponent`` around a center."""

    center: PadicVector
    radius_exponent: int

    def __post_init__(self) -> None:
        if type(self.radius_exponent) is not int:
            raise TypeError(f"radius exponent must be int, got {self.radius_exponent!r}")

    @property
    def radius(self) -> Fraction:
        p = self.center.entries[0].prime.p
        k = self.radius_exponent
        return Fraction(p**k) if k >= 0 else Fraction(1, p**-k)

    @property
    def dim(self) -> int:
        return self.center.dim

    def contains(self, point: PadicVector) -> bool:
        return (point - self.center).norm() <= self.radius

    def relation(self, other: "Ball") -> str:
        """Ultrametric dichotomy: 'disjoint', 'nested' or 'equal'."""
        d = (self.center - other.center).norm()
        r1, r2 = self.radius, other.radius
        if d > max(r1, r2):
            return "disjoint"
        if r1 == r2:
            return "equal"
        return "nested"

    def to_json(self) -> dict:
        return {
            "center": self.center.to_json(),
            "radius_exponent": self.radius_exponent,
        }


@dataclass(frozen=True)
class FieldContext:
    """Construction hub fixing the prime, the backend and the precision.

    Every scalar it makes keeps a reference to it, and arithmetic hands
    that reference on, so ``x.context() is ctx`` for all of them.
    """

    prime: Prime
    backend: str = "exact"
    precision: int = DEFAULT_PRECISION
    # p**|k| by exponent, for pi_pow; not part of the context's identity.
    # Ints only: a cached scalar would hold the context holding it, a
    # cycle that only the garbage collector frees.
    _powers: dict = dataclass_field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.backend not in ("exact", "digits"):
            raise ValueError(f"unknown backend: {self.backend}")
        if self.precision < 1:
            raise ValueError("precision must be >= 1")

    @property
    def p(self) -> int:
        return self.prime.p

    def scalar(self, value: RationalLike) -> PadicScalar:
        if type(value) is int:
            return self.ratio(value)
        if isinstance(value, Fraction):
            return self.ratio(value.numerator, value.denominator)
        raise TypeError(f"a scalar is made from an int or a Fraction, got {value!r}")

    def ratio(self, num: int, den: int = 1) -> PadicScalar:
        """The scalar ``num / den`` of two ints, ``den`` nonzero: the one
        constructor of both backends, with no Fraction in between."""
        if den != 1:
            if not den:
                raise ZeroDivisionError(f"ratio {num}/0")
            g = math.gcd(num, den)
            if den < 0:
                g = -g
            if g != 1:
                num //= g
                den //= g
        if self.backend == "exact":
            return ExactScalar(self, None, (num, den))
        return DigitScalar.from_pair(self, num, den)

    def zero(self) -> PadicScalar:
        if self.backend == "exact":
            return ExactScalar(self, 0)
        return DigitScalar.exact_zero(self)

    def one(self) -> PadicScalar:
        return self.scalar(1)

    def pi(self) -> PadicScalar:
        """The uniformizer: the prime itself, with valuation one."""
        return self.scalar(self.prime.p)

    def pi_pow(self, k: int) -> PadicScalar:
        """``p**k``.

        On the exact backend the int ``p**|k|`` is computed once per
        exponent and kept on this context.  On the digit backend a power
        below the precision is exact, with valuation k and unit 1; from
        the precision on it is an apparent zero.
        """
        if self.backend == "digits":
            if k < self.precision:
                return DigitScalar(self, k, 1, self.precision, True)
            return DigitScalar.apparent_zero(self, self.precision)
        power = self._powers.get(abs(k))
        if power is None:
            power = self._powers[abs(k)] = self.prime.p ** abs(k)
        scalar = ExactScalar(self, None, (power, 1) if k >= 0 else (1, power))
        scalar._val = k  # known; finding it again divides by p k times
        return scalar

    def vector(self, values: Sequence) -> PadicVector:
        return PadicVector(
            [v if isinstance(v, PadicScalar) else self.scalar(v) for v in values]
        )

    def zero_vector(self, dim: int) -> PadicVector:
        return PadicVector([self.zero() for _ in range(dim)])

    def ball(self, center: Sequence, radius_exponent: int) -> Ball:
        return Ball(self.vector(center), radius_exponent)

    def unit_ball(self, dim: int) -> Ball:
        return Ball(self.zero_vector(dim), 0)

    # -- sampling ----------------------------------------------------------
    def sample_ball(
        self, ball: Ball, rng: Random, digit_count: int | None = None
    ) -> PadicVector:
        """Digitwise-uniform point of the ball; deterministic per rng state."""
        p = self.prime.p
        k = ball.radius_exponent
        count = digit_count if digit_count is not None else self.precision
        coords = []
        for c in ball.center:
            offset = 0
            for i in range(count):
                offset += rng.randrange(p) * p**i
            shift = self.ratio(offset, p**k) if k >= 0 else self.ratio(offset * p**-k)
            coords.append(c + shift)
        return PadicVector(coords)

    def sample_unit_direction(self, dim: int, rng: Random) -> PadicVector:
        """Unit-norm vector: a unit leading digit is forced in one slot."""
        p = self.prime.p
        point = self.sample_ball(self.unit_ball(dim), rng, digit_count=4)
        j = rng.randrange(dim)
        lead = rng.randrange(1, p)
        coords = list(point.entries)
        # Overwrite the chosen coordinate so its 0th digit is nonzero.
        tail = sum(rng.randrange(p) * p**i for i in range(1, 4))
        coords[j] = self.scalar(lead + tail)
        return PadicVector(coords)

    def scalar_from_json(self, data: dict) -> PadicScalar:
        if type(data) is not dict:
            raise TypeError(f"a scalar is a JSON object, got {data!r}")
        if "num" in data:
            return self.ratio(int(data["num"]), int(data["den"]))
        if data.get("val") == "inf":
            return self.zero()
        p = self.prime.p
        unit = 0
        for d in reversed(data["digits"]):
            unit = unit * p + d
        value = Fraction(unit) * Fraction(p) ** int(data["val"])
        return self.scalar(value)

