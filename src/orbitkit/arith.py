"""Exact number-theoretic primitives: divisors, the Möbius function,
p-adic valuations and absolute values.

Everything is plain integer arithmetic on Python ints plus
``fractions.Fraction``, so results are exact at any size.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

__all__ = [
    "ExactnessError",
    "divisors",
    "mobius",
    "ord_p",
    "padic_abs",
]


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
