"""Exact number-theoretic primitives: divisors, the Möbius function,
p-adic valuations and absolute values, the dyadic rationals that the
power-of-two normalised sums are kept in, and the decimal context in which
big counts are computed a second time for rendering.

Everything is plain integer arithmetic on Python ints plus
``fractions.Fraction``, so results are exact at any size.  The one
exception is ``EXACT_DECIMAL``: ``decimal.Decimal`` integers in it are exact
too, and their decimal strings take time linear in their digits, where
``str`` of an int takes quadratic time.
"""

from __future__ import annotations

import decimal
import operator
from fractions import Fraction
from math import isqrt

__all__ = [
    "EXACT_DECIMAL",
    "Dyadic",
    "ExactnessError",
    "divisors",
    "least_prime_factors",
    "mobius",
    "ord_p",
    "padic_abs",
]


# Every digit kept and every rounding trapped: an operation whose result does
# not fit raises instead of rounding.  Enter it with decimal.localcontext,
# which works on a copy, so its flags are never shared.
EXACT_DECIMAL = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation,
           decimal.DivisionByZero, decimal.Overflow],
)


class ExactnessError(ArithmeticError):
    """An integer structure that is guaranteed by construction failed to hold.

    Raised where a quantity must be an exact non-negative integer (an exact
    division, a count).  Seeing this exception signals a defect in the
    computation, never invalid user input.
    """


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def divisors(n: int) -> list[int]:
    """All positive divisors of ``n`` in ascending order.

    Trial division up to sqrt(n); ample for the table sizes this package
    works at (n <= 10**4).
    """
    if n < 1:
        raise ValueError(f"divisors requires n >= 1, got {n}")
    small: list[int] = []
    large: list[int] = []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


def least_prime_factors(n: int) -> memoryview:
    """The least prime factor of X for X = 0..n (X itself at 0, 1 and every
    prime), as unsigned ints in one bytearray: d = isqrt(n)..2 marks its
    multiples from d*d, so the last mark on a composite X is its least
    divisor d > 1, which is prime."""
    import struct  # at the call: importing orbitkit loads nothing for it
    least = memoryview(bytearray(struct.pack(f"{n + 1}I", *range(n + 1)))).cast("I")
    for d in range(isqrt(n), 1, -1):
        least[d * d::d] = memoryview(struct.pack("I", d) * len(range(d * d, n + 1, d))).cast("I")
    return least


def mobius(n: int) -> int:
    """Möbius function: 0 if a square divides n, else (-1)**(#prime factors)."""
    if n < 1:
        raise ValueError(f"mobius requires n >= 1, got {n}")
    result = 1
    remaining = n
    p = 2
    while p * p <= remaining:
        if remaining % p == 0:
            remaining //= p
            if remaining % p == 0:
                return 0
            result = -result
        p += 1 if p == 2 else 2
    if remaining > 1:
        result = -result
    return result


def ord_p(n: int, p: int) -> int:
    """Largest a with p**a dividing n, by repeated exact division.

    This is the brute-force route: no closed forms, just division, so it can
    serve as an independent check for anything cleverer built on top.
    """
    if n < 1:
        raise ValueError(f"ord_p requires n >= 1, got {n}")
    if not _is_prime(p):
        raise ValueError(f"ord_p requires a prime p, got {p}")
    a = 0
    while n % p == 0:
        n //= p
        a += 1
    return a


def padic_abs(n: int, p: int) -> Fraction:
    """p-adic absolute value of a positive integer, |n|_p = p**(-ord_p(n))."""
    return Fraction(1, p ** ord_p(n, p))


def _exact_comparison(op):
    """``op`` on the numerators of a ``Dyadic`` and ``other`` over one
    common denominator."""

    def compare(self: "Dyadic", other: object) -> bool:
        if isinstance(other, Dyadic):
            gap = other.shift - self.shift
            if gap >= 0:
                return op(self.numerator << gap, other.numerator)
            return op(self.numerator, other.numerator << -gap)
        if isinstance(other, (int, Fraction)):
            return op(self.numerator * other.denominator, other.numerator << self.shift)
        return NotImplemented

    return compare


class Dyadic:
    """The exact rational ``numerator / 2**shift``, kept unreduced.

    Sums and ratios normalised by a power of two live in this form instead
    of a ``Fraction``, which would pay a big-int gcd at every step: two
    dyadics compare, subtract and take ``abs`` by shifting one numerator.
    They compare by value with each other, with ints and with
    ``Fraction``s; ``float()`` rounds correctly, as it does for a
    ``Fraction``.  ``shift`` is never negative.
    """

    __slots__ = ("numerator", "shift")

    def __init__(self, numerator: int, shift: int) -> None:
        self.numerator = numerator
        self.shift = shift

    __eq__ = _exact_comparison(operator.eq)
    __lt__ = _exact_comparison(operator.lt)
    __le__ = _exact_comparison(operator.le)
    __gt__ = _exact_comparison(operator.gt)
    __ge__ = _exact_comparison(operator.ge)
    __hash__ = None  # equal to Fractions whose hashes it does not compute

    def __sub__(self, other: "Dyadic | int") -> "Dyadic":
        if isinstance(other, int):
            other = Dyadic(other, 0)
        shift = max(self.shift, other.shift)
        return Dyadic((self.numerator << (shift - self.shift))
                      - (other.numerator << (shift - other.shift)), shift)

    def __abs__(self) -> "Dyadic":
        return Dyadic(abs(self.numerator), self.shift)

    def __float__(self) -> float:
        # int / int true division rounds correctly, the same as float(Fraction).
        return self.numerator / (1 << self.shift)

    def __repr__(self) -> str:
        return f"Dyadic({self.numerator}, {self.shift})"
