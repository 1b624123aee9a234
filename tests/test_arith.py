import decimal
import random
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from orbitkit.arith import (
    EXACT_DECIMAL,
    Dyadic,
    divisors,
    least_prime_factors,
    mobius,
    ord_p,
    padic_abs,
)


def naive_divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def naive_mobius(n):
    factors = []
    x = n
    p = 2
    while p * p <= x:
        while x % p == 0:
            factors.append(p)
            x //= p
        p += 1
    if x > 1:
        factors.append(x)
    if len(set(factors)) != len(factors):
        return 0
    return (-1) ** len(factors)


def test_divisors_examples():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(7) == [1, 7]


def test_divisors_against_naive():
    for n in range(1, 400):
        assert divisors(n) == naive_divisors(n)


def test_divisors_sorted_and_unique():
    for n in (36, 360, 1024, 9973):
        ds = divisors(n)
        assert ds == sorted(set(ds))


def test_divisor_pairing_involution():
    for n in range(1, 600):
        ds = divisors(n)
        assert sorted(n // d for d in ds) == ds


def test_divisors_rejects_zero():
    with pytest.raises(ValueError):
        divisors(0)


def test_least_prime_factors_against_naive():
    # One buffer of unsigned ints, not a list of int objects, with X itself at 0 and 1.
    for n in (0, 1, 2, 3, 4, 24, 25, 1000):
        least = least_prime_factors(n)
        assert least.format == "I" and len(least) == n + 1
        assert list(least[:2]) == [0, 1][:n + 1]
        assert list(least[2:]) == [naive_divisors(X)[1] for X in range(2, n + 1)]


def test_least_prime_factors_allocates_about_its_table():
    # The table is packed from the range in blocks: one argument tuple of
    # all 10**4 + 1 ints peaked at 11.8x the table.
    tracemalloc.start()
    try:
        least = least_prime_factors(10**4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * least.nbytes, (peak, least.nbytes)


def test_mobius_examples():
    assert mobius(1) == 1
    assert mobius(6) == 1
    assert mobius(12) == 0


def test_mobius_against_naive():
    for n in range(1, 400):
        assert mobius(n) == naive_mobius(n)


def test_mobius_divisor_sum():
    assert sum(mobius(d) for d in divisors(1)) == 1
    for n in range(2, 10001):
        assert sum(mobius(d) for d in divisors(n)) == 0


def test_mobius_multiplicative_on_coprime_pairs():
    from math import gcd

    rng = random.Random(20240811)
    pairs = [(m, n) for m in range(1, 40) for n in range(1, 40) if gcd(m, n) == 1]
    pairs += [
        (m, n)
        for m, n in ((rng.randint(1, 1000), rng.randint(1, 1000)) for _ in range(3000))
        if gcd(m, n) == 1
    ]
    for m, n in pairs:
        assert mobius(m * n) == mobius(m) * mobius(n)


def test_mobius_rejects_zero():
    with pytest.raises(ValueError):
        mobius(0)


def test_ord_examples():
    assert ord_p(1, 3) == 0
    assert ord_p(18, 3) == 2
    assert ord_p(2**6 - 1, 3) == 2


def test_ord_additive():
    for m in range(1, 200):
        for n in range(1, 60):
            assert ord_p(m * n, 3) == ord_p(m, 3) + ord_p(n, 3)
    rng = random.Random(4242)
    for _ in range(5000):
        m, n = rng.randint(1, 1000), rng.randint(1, 1000)
        assert ord_p(m * n, 3) == ord_p(m, 3) + ord_p(n, 3)


def test_ord_rejects_bad_input():
    with pytest.raises(ValueError):
        ord_p(0, 3)
    with pytest.raises(ValueError):
        ord_p(10, 4)
    with pytest.raises(ValueError):
        ord_p(10, 1)


def test_padic_abs_examples():
    assert padic_abs(63, 3) == Fraction(1, 9)
    assert padic_abs(7, 3) == Fraction(1)
    assert padic_abs(4095, 3) == Fraction(1, 9)
    assert padic_abs(250, 5) == Fraction(1, 125)
    assert type(padic_abs(7, 3)) is Fraction


def test_padic_abs_range():
    for n in range(1, 2000):
        value = padic_abs(n, 3)
        assert 0 < value <= 1
        assert value >= Fraction(1, n)


def test_padic_abs_rejects_zero():
    with pytest.raises(ValueError):
        padic_abs(0, 3)


def test_dyadic_against_fraction():
    rng = random.Random(7)
    for _ in range(2000):
        a = Dyadic(rng.randint(-(2**80), 2**80), rng.randint(0, 90))
        b = Dyadic(rng.randint(-(2**80), 2**80), rng.randint(0, 90))
        fa = Fraction(a.numerator, 2**a.shift)
        fb = Fraction(b.numerator, 2**b.shift)
        assert (a < b, a <= b, a == b, a > b, a >= b) == (fa < fb, fa <= fb, fa == fb, fa > fb, fa >= fb)
        assert (a < fb, a == fb, fa <= b, fa > b) == (fa < fb, fa == fb, fa <= fb, fa > fb)
        difference = a - b
        assert Fraction(difference.numerator, 2**difference.shift) == fa - fb
        assert abs(a) == abs(fa)
        assert float(a) == float(fa)
    assert Dyadic(6, 3) == Dyadic(3, 2) == Fraction(3, 4)
    assert Dyadic(8, 3) == 1 and Dyadic(3, 2) - 1 == Fraction(-1, 4)
    assert float(Dyadic(1, 2000)) == float(Fraction(1, 2**2000))
    with pytest.raises(TypeError):
        Dyadic(1, 1) < "1/2"


def test_exact_decimal_context_keeps_every_digit_and_raises_on_rounding():
    # The default context keeps 28 digits and rounds the rest away silently.
    assert Decimal(2) ** 200 != 2**200
    with localcontext(EXACT_DECIMAL):
        assert Decimal(2) ** 200 == 2**200
        assert divmod(Decimal(3) ** 500 - 1, 2) == (Decimal((3**500 - 1) // 2), 0)
        with pytest.raises(decimal.Inexact):
            Decimal("2.5").to_integral_exact()
        with pytest.raises(decimal.Rounded):
            Decimal("1.20").quantize(Decimal("0.1"))
