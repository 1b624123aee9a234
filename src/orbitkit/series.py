"""Elementary logarithm series with exact rational coefficients.

A truncated power series is a plain tuple of coefficients c_0..c_D.  The
zeta module assembles its closed forms from the one building block here,
log(1 - s*z**p), by adding, subtracting and scaling such tuples.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["log_one_minus"]

ZERO = Fraction(0)  # the one object in every gap of a ``log_one_minus`` series


def log_one_minus(scale: "int | Fraction", power: int, degree: int) -> tuple[Fraction, ...]:
    """The series log(1 - scale*z**power) = -sum_k scale**k/k * z**(k*power):
    for scale = a/b the coefficient of z**(k*power) is one ``Fraction`` of
    running int powers, -a**k/(k*b**k), and every other one is ``ZERO``."""
    if power < 1 or degree < 0:
        raise ValueError(f"log_one_minus needs power >= 1 and degree >= 0, got {power}, {degree}")
    coeffs = [ZERO] * (degree + 1)
    a, b = Fraction(scale).as_integer_ratio()
    num, den = -1, 1
    for k in range(1, degree // power + 1):
        num, den = num * a, den * b
        coeffs[k * power] = Fraction(num, k * den)
    return tuple(coeffs)
