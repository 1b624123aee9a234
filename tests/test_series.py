from fractions import Fraction

import pytest

from orbitkit.series import ZERO, log_one_minus


def test_log_one_minus_coefficients():
    s = log_one_minus(2, 1, 5)
    assert s == (
        0,
        -2,
        -2,
        Fraction(-8, 3),
        -4,
        Fraction(-32, 5),
    )
    assert all(type(c) is Fraction for c in s)
    sparse = log_one_minus(Fraction(1, 2), 3, 7)
    assert sparse[3] == Fraction(-1, 2)
    assert sparse[6] == Fraction(-1, 8)
    assert sparse[7] == 0
    with pytest.raises(ValueError):
        log_one_minus(1, 0, 4)


@pytest.mark.parametrize("scale", [1, 4, 2**18, -3, Fraction(1, 3), Fraction(-2, 5)])
@pytest.mark.parametrize("power", range(1, 8))
def test_log_one_minus_matches_a_term_by_term_reference(scale, power):
    # The reference builds each coefficient in Fraction arithmetic: the
    # previous power times the scale, negated, divided by k.
    for degree in (0, 1, power - 1, power, 3 * power + 1, 40):
        reference = [Fraction(0)] * (degree + 1)
        term = Fraction(1)
        for k in range(1, degree // power + 1):
            term *= scale
            reference[k * power] = -term / k
        series = log_one_minus(scale, power, degree)
        assert series == tuple(reference)
        assert all(type(c) is Fraction for c in series)
        # Every coefficient off the multiples of the power is the shared zero.
        assert all((c is ZERO) == (i % power != 0 or i == 0) for i, c in enumerate(series))


def test_log_one_minus_refuses_a_negative_degree():
    for degree in (-1, -5):
        with pytest.raises(ValueError, match="degree"):
            log_one_minus(1, 1, degree)
