"""Reference computations made outside ultracalc, with the standard library only.

Nothing here imports ultracalc: the benchmark checks the program's
outputs against these values and properties.
"""

from __future__ import annotations

import time
from fractions import Fraction
from random import Random

P = 5


def valuation(x: Fraction, p: int = P) -> int:
    """p-adic valuation of a nonzero rational."""
    if x == 0:
        raise ValueError("zero has infinite valuation")
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def norm(x: Fraction, p: int = P) -> Fraction:
    """p-adic absolute value p**(-v(x)), with |0| = 0."""
    if x == 0:
        return Fraction(0)
    return Fraction(p) ** -valuation(x, p)


def expansion(x: Fraction, start: int, stop: int, p: int = P) -> list[int]:
    """Digits a_start .. a_(stop-1) of the p-adic expansion of x.

    Needs v(x) >= start.  The digits are the base-p digits of the
    p-adic integer x / p**start reduced modulo p**(stop - start).
    """
    if stop <= start:
        return []
    if x != 0 and valuation(x, p) < start:
        raise ValueError("expansion has nonzero digits below start")
    shifted = x / Fraction(p) ** start
    modulus = p ** (stop - start)
    residue = shifted.numerator * pow(shifted.denominator, -1, modulus) % modulus
    digits = []
    for _ in range(stop - start):
        residue, d = divmod(residue, p)
        digits.append(d)
    return digits


def poly_eval(terms: dict, x: tuple) -> Fraction:
    """Value at x of the polynomial {exponent tuple: coefficient}."""
    total = Fraction(0)
    for exps, c in terms.items():
        mon = c
        for xi, e in zip(x, exps):
            mon *= xi**e
        total += mon
    return total


def partial_quotient(terms: dict, x: tuple, vs: list, ts: list) -> Fraction:
    """Order-n partial difference quotient by its defining recursion.

    phi_n(x; v_1..v_n; t_1..t_n) is
    [phi_(n-1)(x + t_n v_n; ...) - phi_(n-1)(x; ...)] / t_n.
    """
    if not vs:
        return poly_eval(terms, x)
    v, t = vs[-1], ts[-1]
    moved = tuple(xi + t * vi for xi, vi in zip(x, v))
    return (
        partial_quotient(terms, moved, vs[:-1], ts[:-1])
        - partial_quotient(terms, x, vs[:-1], ts[:-1])
    ) / t


def _unit_bounded(rng: Random, p: int = P) -> Fraction:
    """Rational of norm <= 1: a small numerator over a denominator prime to p."""
    num = rng.randrange(-9, 10) or 1
    den = rng.choice((1, 1, 2, 3, 7))
    return Fraction(num, den) * Fraction(p) ** rng.randrange(0, 3)


def random_case(rng: Random, p: int = P):
    """A random polynomial and partial-quotient point, as plain rationals.

    Returns (terms, x, vs, ts) with m in {1, 2} variables, order n in
    {1, 2, 3} and increments u * p**k of terminating expansion, so the
    digit backend divides by them through valuation bookkeeping alone.
    """
    m = rng.choice((1, 2))
    n = rng.randrange(1, 4)
    terms = {}
    for _ in range(rng.randrange(1, 5)):
        exps = tuple(rng.randrange(0, 4) for _ in range(m))
        terms[exps] = _unit_bounded(rng, p)
    x = tuple(_unit_bounded(rng, p) for _ in range(m))
    vs = [tuple(_unit_bounded(rng, p) for _ in range(m)) for _ in range(n)]
    ts = []
    for _ in range(n):
        unit = rng.randrange(1, p**3)
        while unit % p == 0:
            unit = rng.randrange(1, p**3)
        ts.append(Fraction(unit) * Fraction(p) ** rng.randrange(0, 3))
    return terms, x, vs, ts


def patchwork_geometry(depth: int, p: int = P):
    """Centres and support radii of the patchwork pieces, from their formulas.

    Piece j (1-based) has scale exponent e_j = j**2, centre
    c_j = (p**e_1 + ... + p**e_(j-1)) / p + p**e_j and support
    |h - c_j| <= p**-(e_j + 1).
    """
    exps = [j * j for j in range(1, depth + 1)]
    centres = []
    partial = Fraction(0)
    for e in exps:
        centres.append(partial / p + Fraction(p) ** e)
        partial += Fraction(p) ** e
    radii = [Fraction(1, p ** (e + 1)) for e in exps]
    return centres, radii


def disjoint_pairs(depth: int, p: int = P) -> dict:
    """{(a, b): True if the supports of pieces a < b (1-based) are disjoint}."""
    centres, radii = patchwork_geometry(depth, p)
    out = {}
    for a in range(depth):
        for b in range(a + 1, depth):
            distance = norm(centres[a] - centres[b], p)
            out[(a + 1, b + 1)] = distance > max(radii[a], radii[b])
    return out


# Nominal duration of one SpeedProbe pass over 20 cases: results are
# scaled to a machine on which a pass takes this long.
NOMINAL_PASS_S = 0.004


class SpeedProbe:
    """Fixed stdlib work whose duration tracks how fast the machine runs now.

    Rational recursion and digit expansion, the kinds of work ultracalc
    does, on ``cases`` inputs fixed once; nothing in it depends on
    ultracalc, so a change to the program cannot move it.
    """

    def __init__(self, cases: int = 20):
        rng = Random(0)
        self.cases = [random_case(rng) for _ in range(cases)]

    def run_once(self) -> float:
        start = time.perf_counter()
        for terms, x, vs, ts in self.cases:
            value = partial_quotient(terms, x, vs, ts)
            expansion(value, min(0, valuation(value)) if value else 0, 40)
        return time.perf_counter() - start
