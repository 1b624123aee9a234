"""Elementary logarithm series with exact rational coefficients.

A truncated power series is a plain tuple of coefficients c_0..c_D.  The
zeta module assembles its closed forms from the one building block here,
log(1 - s*z**p), by adding, subtracting and scaling such tuples.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["log_one_minus"]


def log_one_minus(scale: "int | Fraction", power: int, degree: int) -> tuple[Fraction, ...]:
    """The series log(1 - scale*z**power) = -sum_k scale**k/k * z**(k*power)."""
    if power < 1:
        raise ValueError(f"power must be >= 1, got {power}")
    coeffs = [Fraction(0)] * (degree + 1)
    s = Fraction(scale)
    term = Fraction(1)
    k = 0
    while (k + 1) * power <= degree:
        k += 1
        term *= s
        coeffs[k * power] = -term / k
    return tuple(coeffs)
