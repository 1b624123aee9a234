import random
from fractions import Fraction

import mpmath
import pytest

from orbitkit.arith import Dyadic
from orbitkit.output import format_fraction, format_fraction_decimal, format_real


def fraction_decimal(value, digits):
    """Fixed-point decimal of a Fraction by divmod, round half away from zero."""
    quotient, remainder = divmod(abs(value.numerator) * 10**digits, value.denominator)
    if 2 * remainder >= value.denominator:
        quotient += 1
    whole, frac = divmod(quotient, 10**digits)
    return f"{'-' if value < 0 else ''}{whole}.{frac:0{digits}d}"


def test_dyadic_formats_match_fraction_formats():
    rng = random.Random(11)
    cases = [Dyadic(0, 0), Dyadic(0, 9), Dyadic(5, 0), Dyadic(-3, 1), Dyadic(1, 1),
             Dyadic(-1, 1), Dyadic(24, 6), Dyadic(5, 13)]
    cases += [Dyadic(rng.randint(-(2**70), 2**70), rng.randint(0, 80)) for _ in range(2000)]
    for value in cases:
        exact = Fraction(value.numerator, 2**value.shift)
        assert format_fraction(value) == f"{exact.numerator}/{exact.denominator}"
        for digits in (1, 4, 12, 30):
            assert format_fraction_decimal(value, digits) == fraction_decimal(exact, digits)


def test_format_fraction_decimal_rounds_half_away_from_zero():
    assert format_fraction_decimal(Dyadic(1, 3), 2) == "0.13"  # 0.125
    assert format_fraction_decimal(Dyadic(-1, 3), 2) == "-0.13"
    assert format_fraction_decimal(Dyadic(-1, 5), 1) == "-0.0"  # sign kept, as before
    assert format_fraction_decimal(Dyadic(3, 2), 1) == "0.8"  # 0.75


def test_format_real_uses_exact_values():
    assert format_real(0.1, 20) == fraction_decimal(Fraction(0.1), 20)
    assert format_real(-2.5, 3) == "-2.500"
    assert format_real(1e300, 2) == fraction_decimal(Fraction(1e300), 2)
    assert format_real(mpmath.mpf(2) ** -60, 20) == "0.00000000000000000087"
    assert format_real(-mpmath.mpf(3) / 8, 4) == "-0.3750"
    with pytest.raises(TypeError):
        format_real(Fraction(1, 3), 4)


def test_format_real_renders_mpf_at_the_current_working_precision():
    with mpmath.workprec(100):
        third = mpmath.mpf(1) / 3
    # Outside a workprec block mpmath works at 53 bits, a double's precision.
    assert format_real(third, 40) == format_real(1 / 3, 40)
    man, exp = third.man_exp
    with mpmath.workprec(100):
        assert format_real(third, 40) == fraction_decimal(Fraction(man, 2**-exp), 40)
