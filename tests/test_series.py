from fractions import Fraction

import pytest

from orbitkit.series import log_one_minus


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
