"""Exact arithmetic in the field of p-adic numbers.

Scalars come in two interchangeable backends:

* ``ExactScalar`` wraps a rational number and computes valuations on
  demand.  Every operation is exact, which makes this the ground-truth
  backend for identity checking: rational data in, rational data out.
* ``DigitScalar`` stores a truncated digit expansion together with an
  absolute precision marker and models lossy arithmetic honestly.
  A value is known modulo ``p**abs_prec``; division by a scalar of
  valuation ``k`` lowers ``abs_prec`` by ``k``, and once the marker
  reaches zero the operation raises ``PrecisionExhausted`` instead of
  rounding silently.

The norm is ``|x| = p**(-v(x))`` with ``|0| = 0``, vectors carry the
sup-norm, balls are clopen and either disjoint or nested, and sampling
draws digitwise-uniform points deterministically from a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

    __slots__ = ("prime",)

    def __init__(self, prime: Prime):
        self.prime = prime

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
    def p(self) -> int:
        return self.prime.p

    def norm(self) -> Fraction:
        """p-adic absolute value as an exact rational."""
        v = self.valuation()
        if v is INF or v == INF:
            return Fraction(0)
        p = self.prime.p
        return Fraction(1, p**v) if v >= 0 else Fraction(p ** (-v))

    def context(self) -> "FieldContext":
        raise NotImplementedError

    def _coerce(self, other) -> "PadicScalar":
        if isinstance(other, PadicScalar):
            if other.prime != self.prime:
                raise PrimeMismatch(f"{self.prime} vs {other.prime}")
            if type(other) is not type(self):
                raise BackendMismatch(
                    f"{type(self).__name__} vs {type(other).__name__}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.context().scalar(other)
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
        result = self.context().one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __bool__(self) -> bool:
        return not self.is_zero()


class ExactScalar(PadicScalar):
    """A p-adic number held as an exact rational."""

    __slots__ = ("value", "_val")

    def __init__(self, prime: Prime, value: RationalLike):
        super().__init__(prime)
        self.value = Fraction(value)
        self._val = None

    # Fraction keeps num/den reduced, so the p-power content of the
    # denominator is exactly the negative part of the valuation.
    def valuation(self):
        if self._val is None:
            if self.value == 0:
                self._val = INF
            else:
                p = self.prime.p
                vn = int_valuation(self.value.numerator, p)
                vd = int_valuation(self.value.denominator, p)
                self._val = vn - vd
        return self._val

    def is_zero(self) -> bool:
        return self.value == 0

    def context(self) -> "FieldContext":
        return FieldContext(self.prime, backend="exact")

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
        shifted = self.value / Fraction(p) ** start
        num, den = shifted.numerator, shifted.denominator
        modulus = p**length
        unit = (num * pow(den, -1, modulus)) % modulus
        out = []
        for _ in range(length):
            unit, r = divmod(unit, p)
            out.append(r)
        return out

    def to_json(self) -> dict:
        return {
            "p": self.prime.p,
            "num": str(self.value.numerator),
            "den": str(self.value.denominator),
        }

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ExactScalar(self.prime, self.value + other.value)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ExactScalar(self.prime, self.value * other.value)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.value == 0:
            raise DivisionByZero("division by zero scalar")
        return ExactScalar(self.prime, self.value / other.value)

    def __neg__(self):
        return ExactScalar(self.prime, -self.value)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.value == other
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return self.prime == other.prime and self.value == other.value

    def __hash__(self):
        return hash((self.prime, self.value))

    def __repr__(self) -> str:
        return f"Qp({self.value}; p={self.prime.p})"


class DigitScalar(PadicScalar):
    """A p-adic number known modulo ``p**abs_prec``.

    Stored as a valuation plus base-p digits of the unit part; an exact
    zero carries infinite precision, while a value that merely vanishes
    to working precision keeps a finite marker and reports its
    valuation as that lower bound.  ``exact_digits`` records that the
    stored digit string is the complete expansion, in which case the
    scalar behaves like an exactly known value.
    """

    __slots__ = ("val", "unit_digits", "abs_prec", "exact_digits")

    def __init__(self, prime: Prime, val, unit_digits: tuple, abs_prec, exact=False):
        super().__init__(prime)
        self.val = val
        self.unit_digits = unit_digits
        self.abs_prec = abs_prec
        self.exact_digits = exact

    # -- construction ------------------------------------------------------
    @classmethod
    def exact_zero(cls, prime: Prime) -> "DigitScalar":
        return cls(prime, None, (), INF, exact=True)

    @classmethod
    def apparent_zero(cls, prime: Prime, abs_prec: int) -> "DigitScalar":
        if abs_prec <= 0:
            raise PrecisionExhausted("no significant digits remain")
        return cls(prime, None, (), abs_prec)

    @classmethod
    def make(
        cls, prime: Prime, val: int, unit: int, abs_prec, exact: bool = False
    ) -> "DigitScalar":
        """Normalize ``p**val * unit`` modulo ``p**abs_prec``.

        ``exact`` asserts that p**val * unit is the true value; it is
        cleared automatically whenever the reduction changes the unit.
        """
        p = prime.p
        if abs_prec <= 0:
            raise PrecisionExhausted("absolute precision marker reached zero")
        room = abs_prec - val
        if room <= 0:
            return cls.apparent_zero(prime, abs_prec)
        reduced = unit % (p**room)
        if reduced != unit:
            exact = False
        unit = reduced
        if unit == 0:
            if exact:
                return cls.exact_zero(prime)
            return cls.apparent_zero(prime, abs_prec)
        shift = int_valuation(unit, p)
        unit //= p**shift
        val += shift
        digits = []
        u = unit
        while u:
            u, r = divmod(u, p)
            digits.append(r)
        return cls(prime, val, tuple(digits), abs_prec, exact=exact)

    @classmethod
    def from_fraction(
        cls, prime: Prime, value: RationalLike, abs_prec: int = DEFAULT_PRECISION
    ) -> "DigitScalar":
        value = Fraction(value)
        p = prime.p
        if value == 0:
            return cls.exact_zero(prime)
        vn = int_valuation(value.numerator, p)
        vd = int_valuation(value.denominator, p)
        v = vn - vd
        if v >= abs_prec:
            return cls.apparent_zero(prime, abs_prec)
        length = abs_prec - v
        num = value.numerator // p**vn
        den = value.denominator // p**vd
        terminating = value > 0 and den == 1
        unit = (num * pow(den, -1, p**length)) % (p**length)
        return cls.make(prime, v, unit, abs_prec, exact=terminating)

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
        u = 0
        for d in reversed(self.unit_digits):
            u = u * self.prime.p + d
        return u

    def context(self) -> "FieldContext":
        return FieldContext(self.prime, backend="digits")

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
        out = []
        for n in range(start, upto):
            i = n - self.val
            out.append(self.unit_digits[i] if 0 <= i < len(self.unit_digits) else 0)
        return out

    def to_json(self) -> dict:
        val = "inf" if self.val is None and self.abs_prec == INF else (
            self.abs_prec if self.val is None else self.val
        )
        return {"p": self.prime.p, "val": val, "digits": list(self.unit_digits)}

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_exact_zero():
            return other
        if other.is_exact_zero():
            return self
        prec = min(self.abs_prec, other.abs_prec)
        if self.is_zero() and other.is_zero():
            return DigitScalar.apparent_zero(self.prime, prec)
        exact = self.exact_digits and other.exact_digits
        if self.is_zero():
            return DigitScalar.make(other.prime, other.val, other.unit_int(), prec)
        if other.is_zero():
            return DigitScalar.make(self.prime, self.val, self.unit_int(), prec)
        p = self.prime.p
        v0 = min(self.val, other.val)
        total = self.unit_int() * p ** (self.val - v0) + other.unit_int() * p ** (
            other.val - v0
        )
        return DigitScalar.make(self.prime, v0, total, prec, exact=exact)

    def __neg__(self):
        if self.is_zero():
            return self
        # A terminating expansion negates to a non-terminating one, so
        # exactness never survives negation; the reduction clears it.
        room = self.abs_prec - self.val
        unit = (-self.unit_int()) % self.prime.p**room
        return DigitScalar.make(self.prime, self.val, unit, self.abs_prec)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_exact_zero() or other.is_exact_zero():
            return DigitScalar.exact_zero(self.prime)
        va = self.valuation()
        vb = other.valuation()
        prec = min(va + other.abs_prec, vb + self.abs_prec)
        if self.is_zero() or other.is_zero():
            return DigitScalar.apparent_zero(self.prime, prec)
        exact = self.exact_digits and other.exact_digits
        return DigitScalar.make(
            self.prime,
            self.val + other.val,
            self.unit_int() * other.unit_int(),
            prec,
            exact=exact,
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
        if other.is_zero():
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
        if self.is_zero():
            return DigitScalar.apparent_zero(self.prime, prec)
        v = self.val - k
        length = prec - v
        p = self.prime.p
        inv = pow(other.unit_int() % (p**length), -1, p**length)
        unit = (self.unit_int() * inv) % (p**length)
        exact = (
            self.exact_digits and other.exact_digits and other.unit_int() == 1
        )
        return DigitScalar.make(self.prime, v, unit, prec, exact=exact)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.context().scalar(other)
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
        if self.is_exact_zero():
            return f"Zp(0; p={self.prime.p})"
        if self.is_zero():
            return f"Zp(O(p^{self.abs_prec}); p={self.prime.p})"
        ds = "".join(str(d) for d in self.unit_digits[:8])
        tail = "..." if len(self.unit_digits) > 8 else ""
        return f"Zp(p^{self.val}*[{ds}{tail}]; p={self.prime.p}, O(p^{self.abs_prec}))"


class PadicVector:
    """A finite tuple of scalars with the sup-norm."""

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[PadicScalar]):
        entries = tuple(entries)
        if not entries:
            raise ValueError("vectors must have at least one entry")
        first = entries[0]
        for e in entries[1:]:
            if e.prime != first.prime:
                raise PrimeMismatch("mixed primes in vector")
            if type(e) is not type(first):
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
        if other.dim != self.dim:
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
    """Construction hub fixing the prime, the backend and the precision."""

    prime: Prime
    backend: str = "exact"
    precision: int = DEFAULT_PRECISION

    def __post_init__(self) -> None:
        if self.backend not in ("exact", "digits"):
            raise ValueError(f"unknown backend: {self.backend}")
        if self.precision < 1:
            raise ValueError("precision must be >= 1")

    @property
    def p(self) -> int:
        return self.prime.p

    def scalar(self, value: RationalLike) -> PadicScalar:
        if self.backend == "exact":
            return ExactScalar(self.prime, value)
        return DigitScalar.from_fraction(self.prime, value, self.precision)

    def zero(self) -> PadicScalar:
        if self.backend == "exact":
            return ExactScalar(self.prime, 0)
        return DigitScalar.exact_zero(self.prime)

    def one(self) -> PadicScalar:
        return self.scalar(1)

    def pi(self) -> PadicScalar:
        """The uniformizer: the prime itself, with valuation one."""
        return self.scalar(self.prime.p)

    def pi_pow(self, k: int) -> PadicScalar:
        return self.scalar(Fraction(self.prime.p) ** k)

    def vector(self, values: Sequence) -> PadicVector:
        return PadicVector(
            [v if isinstance(v, PadicScalar) else self.scalar(v) for v in values]
        )

    def zero_vector(self, dim: int) -> PadicVector:
        return PadicVector([self.zero() for _ in range(dim)])

    def basis_vector(self, dim: int, j: int) -> PadicVector:
        return PadicVector(
            [self.one() if i == j else self.zero() for i in range(dim)]
        )

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
            coords.append(c + self.scalar(Fraction(offset) * Fraction(p) ** (-k)))
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
        if "num" in data:
            value = Fraction(int(data["num"]), int(data["den"]))
            return self.scalar(value)
        if data.get("val") == "inf":
            return self.zero()
        p = self.prime.p
        unit = 0
        for d in reversed(data["digits"]):
            unit = unit * p + d
        value = Fraction(unit) * Fraction(p) ** int(data["val"])
        return self.scalar(value)

