from collections.abc import Iterator
from fractions import Fraction

import mpmath
import pytest

from orbitkit import asymptotics
from orbitkit.arith import ExactnessError
from orbitkit.arith import Dyadic
from orbitkit.asymptotics import (
    MERTEN_PRECISION_BITS,
    _round,
    cluster_ratios,
    delta_gap,
    log_table,
    merten_normalized,
    merten_series,
    ratio_series,
)
from orbitkit.counting import (
    CIRCLE_DOUBLING,
    THREE_ADIC_EXTENSION,
    build_table,
    custom_orbits,
    iterate,
    orbit_counts,
)


def exact(x):
    """Exact value of a non-negative finite mpmath real."""
    man, exp = x.man_exp
    return Fraction(man) * Fraction(2) ** exp


def fraction(value):
    """The Fraction of a Dyadic."""
    return Fraction(value.numerator, 2**value.shift)


def counts_of(table):
    """The (map, orbit counts) arguments of the ratio and Merten series."""
    return table.spec, table.orbit_counts


@pytest.fixture(scope="module")
def tf():
    return build_table(THREE_ADIC_EXTENSION, 64)


@pytest.fixture(scope="module")
def tg():
    return build_table(CIRCLE_DOUBLING, 64)


@pytest.fixture(scope="module")
def tf6():
    return build_table(THREE_ADIC_EXTENSION, 6)


@pytest.fixture(scope="module")
def tg6():
    return build_table(CIRCLE_DOUBLING, 6)


def test_pi_sum_examples(tf6, tg6):
    # pi(X), the number of closed orbits of length <= X, for X = 1..6
    # read off the ratio X*pi(X)/2**(X+1), whose numerator is kept unreduced
    pi_f = [ratio.numerator // X for X, ratio in enumerate(ratio_series(*counts_of(tf6)), start=1)]
    pi_g = [ratio.numerator // X for X, ratio in enumerate(ratio_series(*counts_of(tg6)), start=1)]
    assert pi_f == [1, 1, 3, 4, 10, 10]
    assert pi_g == [1, 2, 4, 7, 13, 22]


def test_ratio_series_values(tf6):
    ratios = list(ratio_series(*counts_of(tf6)))
    assert len(ratios) == 6
    assert ratios[-1].numerator // 6 == 10
    assert ratios[-1] == Fraction(60, 128)
    # hand-computed ratios: 1/4, 1/4, 9/16, 1/2, 25/32, 15/32
    assert ratios == [
        Fraction(1, 4),
        Fraction(1, 4),
        Fraction(9, 16),
        Fraction(1, 2),
        Fraction(25, 32),
        Fraction(15, 32),
    ]


@pytest.mark.parametrize("spec", [iterate(CIRCLE_DOUBLING, 2), iterate(THREE_ADIC_EXTENSION, 2),
                                  custom_orbits((1, 3, 0))], ids=lambda spec: spec.label)
def test_series_refuse_maps_of_other_entropy(spec):
    # The normalisation by 2**X fits only entropy log 2; g2's ratio would
    # read about 8.5e29 at X = 100 and this custom table's 1.6e-28.  Both
    # series are iterators, and each refuses at the call, before it reads a
    # count: pnt and merten feed them a sieve stream, so a refusal costs no
    # sieve.
    def unread():
        pytest.fail("a refused map's orbit counts were read")
        yield

    for series in (ratio_series, merten_series):
        with pytest.raises(ValueError, match="only maps of entropy log 2"):
            series(spec, unread())


def test_delta_gap_examples(tf6, tg6):
    expected = [(0, 0), (1, 1), (1, 1), (3, 4), (3, 4), (12, 13)]
    assert list(delta_gap(tf6, tg6)) == expected
    for X in (3, 1):
        tables = build_table(THREE_ADIC_EXTENSION, X), build_table(CIRCLE_DOUBLING, X)
        assert list(delta_gap(*tables)) == expected[:X]


def test_delta_gap_bound_holds(tf, tg):
    for X, (gap, even_bound) in enumerate(delta_gap(tf, tg), start=1):
        assert gap == sum(tg.orbit_counts[:X]) - sum(tf.orbit_counts[:X])
        assert even_bound == sum(tg.orbit_counts[1:X:2])
        assert 0 <= gap <= even_bound


def test_delta_gap_negative_is_hard_error():
    bigger = build_table(custom_orbits((2,)), 1)
    smaller = build_table(custom_orbits((1,)), 1)
    with pytest.raises(ExactnessError):
        list(delta_gap(bigger, smaller))


def test_delta_gap_unequal_ranges(tf, tg, tf6, tg6):
    with pytest.raises(ValueError):
        delta_gap(tf, tg6)
    with pytest.raises(ValueError):
        delta_gap(tf6, tg)


@pytest.mark.parametrize("series, good, bad", [
    (ratio_series, [(CIRCLE_DOUBLING, 8)], [(iterate(CIRCLE_DOUBLING, 2), 8)]),
    (merten_series, [(THREE_ADIC_EXTENSION, 8)], [(custom_orbits((1,)), 8)]),
    (delta_gap, [(THREE_ADIC_EXTENSION, 8), (CIRCLE_DOUBLING, 8)],
     [(THREE_ADIC_EXTENSION, 8), (CIRCLE_DOUBLING, 7)]),
], ids=["ratio_series", "merten_series", "delta_gap"])
def test_series_are_iterators_that_refuse_at_the_call(series, good, bad):
    # Each series yields one value per X as it is read, and bad input raises
    # at the call, before any value: not at the first read.  The ratio and
    # Merten series read a map's orbit-count stream, the gap two tables.
    def arguments(maps):
        if series is delta_gap:
            return [build_table(*args) for args in maps]
        (spec, n_max), = maps
        return spec, orbit_counts(spec, n_max)

    values = series(*arguments(good))
    assert isinstance(values, Iterator) and iter(values) is values
    assert len(list(values)) == 8
    with pytest.raises(ValueError):
        series(*arguments(bad))


def test_merten_examples():
    f, g = THREE_ADIC_EXTENSION, CIRCLE_DOUBLING
    assert list(merten_series(f, build_table(f, 3).orbit_counts)) == [
        Fraction(1, 2),
        Fraction(1, 2),
        Fraction(3, 4),
    ]
    assert list(merten_series(g, build_table(g, 3).orbit_counts))[-1] == Fraction(1)
    assert list(merten_series(f, build_table(f, 1).orbit_counts)) == [Fraction(1, 2)]


def test_merten_denominator_is_power_of_two(tf):
    for X, total in enumerate(merten_series(*counts_of(tf)), start=1):
        assert isinstance(total, Dyadic)
        assert total.shift == X


def test_merten_normalized_matches_sum(tf):
    sums, logs = list(merten_series(*counts_of(tf))), log_table(tf.n_max, MERTEN_PRECISION_BITS)
    assert logs[0] == 0
    with pytest.raises(ValueError, match="X >= 2"):
        merten_normalized(sums[0], logs[0])
    for total, log_x in zip(sums[1:], logs[1:]):
        normalized = fraction(merten_normalized(total, log_x))
        # normalized = sum / log X up to two 64-bit roundings
        assert abs(normalized * fraction(log_x) - fraction(total)) < Fraction(1, 10**15)


def nearest_even(x, bits):
    """Brute-force oracle: the Fraction x > 0 rounded to ``bits`` significant
    bits, ties to even (as ``round`` of a Fraction does)."""
    shift = 0
    while x * Fraction(2) ** shift >= 2**bits:
        shift -= 1
    while x * Fraction(2) ** shift < 2 ** (bits - 1):
        shift += 1
    return round(x * Fraction(2) ** shift) / Fraction(2) ** shift


def test_round_to_nearest_even():
    # Exact ties go to the even neighbour: 9 = 1001b down to 8, 11 = 1011b up
    # to 12, and 9/16, 11/16 the same at a positive shift.
    assert _round(9, 1, 3) == 8 and _round(11, 1, 3) == 12
    assert _round(9, 16, 3) == Fraction(1, 2) and _round(11, 16, 3) == Fraction(3, 4)
    # A carry rounds up to exactly 2**bits: 7 = 111b, 15/16 = 0.1111b.
    assert _round(7, 1, 2) == 8
    assert _round(15, 16, 3) == 1
    # Equal bit lengths make 1 the first exponent estimate.  8/15 lies below
    # it; 31/16 and 29/17 lie above it, where the first quotients 31 and 27
    # fall in [2**4, 2**5) and each loses a bit (31/16 is then a tie).
    assert _round(8, 15, 4) == Fraction(9, 16)
    assert _round(31, 16, 4) == 2
    assert _round(29, 17, 4) == Fraction(7, 4)
    assert _round(1000, 1, 4) == 1024 and _round(0, 5, 4) == 0
    for num in range(1, 130):
        for den in range(1, 40):
            for bits in range(1, 7):
                rounded = _round(num, den, bits)
                assert rounded.shift >= 0
                assert rounded == nearest_even(Fraction(num, den), bits), (num, den, bits)


def test_round_by_a_shift_against_fraction_oracle():
    # A power-of-two den rounds by a shift and a mask.  Ties go to the even
    # neighbour both ways: 1001b and 1011b to 3 bits.
    assert _round(0b1001, 2**40, 3) == Fraction(8, 2**40)
    assert _round(0b1011, 2**40, 3) == Fraction(12, 2**40)
    assert _round(0b10001, 2**4, 4) == 1 and _round(0b10011, 2**4, 4) == Fraction(5, 4)
    # A carry rounds up to exactly 2**bits: 1111b and 11111b/2**64.
    assert _round(0b1111, 1, 3) == 16
    assert _round(0b11111, 2**64, 4) == Fraction(1, 2**59)
    # num that already fits in bits is exact, at any shift.
    assert _round(5, 2**100, 64) == Fraction(5, 2**100) and _round(5, 1, 3) == 5
    nums = [*range(1, 70), 2**200 - 1, 2**200 + 1, 3**150, 2**199 + 2**120]
    for k in (0, 1, 7, 64, 300):
        for num in nums:
            for bits in (1, 2, 3, 5, 13, 64):
                rounded = _round(num, 2**k, bits)
                assert rounded.shift >= 0
                assert rounded == nearest_even(Fraction(num, 2**k), bits), (num, k, bits)
                # The general path, at a den that is not a power of two,
                # gives the same numerator and shift.
                general = _round(3 * num, 3 * 2**k, bits)
                assert (rounded.numerator, rounded.shift) == (general.numerator, general.shift)


def test_cluster_ratios():
    assert cluster_ratios([]) == []
    values = [0.25, 0.251, 0.75]
    clusters = cluster_ratios(values)
    assert len(clusters) == 2
    assert clusters[0][1] == 2 and clusters[1][1] == 1
    assert clusters[0][0] == pytest.approx(0.2505)




maps = pytest.mark.parametrize("spec", [THREE_ADIC_EXTENSION, CIRCLE_DOUBLING],
                               ids=lambda spec: spec.label)


@maps
@pytest.mark.parametrize("burn_in", [1, 64])
def test_ratio_series_against_fraction_oracle(spec, burn_in):
    # The window from X = burn_in, as pnt and verify slice it; verify reads
    # its observed range as the window's min and max.
    table = build_table(spec, 300)
    ratios = list(ratio_series(*counts_of(table)))
    assert len(ratios) == 300
    window = ratios[burn_in - 1:]
    expected = []
    for X, ratio in enumerate(window, start=burn_in):
        pi = sum(table.orbit_counts[:X])
        expected.append(Fraction(X * pi, 2 ** (X + 1)))
        assert ratio.numerator // X == pi
        assert ratio == expected[-1]
    assert (min(window), max(window)) == (min(expected), max(expected))


@maps
def test_merten_series_against_fraction_oracle(spec):
    table = build_table(spec, 300)
    total = Fraction(0)
    logs = log_table(300, MERTEN_PRECISION_BITS)
    with mpmath.workprec(64):
        for X, (value, log_x) in enumerate(zip(merten_series(*counts_of(table)), logs), start=1):
            total += Fraction(table.orbit_counts[X - 1], 2**X)
            assert value == total
            reference = mpmath.log(X)
            assert log_x == exact(reference)
            if X >= 2:
                expected = mpmath.fdiv(total.numerator, total.denominator) / reference
                assert merten_normalized(value, log_x) == exact(expected)


def mpmath_logs(n_max, bits):
    """The exact ln X of each X = 1..n_max as mpmath rounds it in
    ``workprec(bits)``."""
    with mpmath.workprec(bits):
        return [exact(mpmath.log(X)) for X in range(1, n_max + 1)]


def mpmath_columns(table, bits):
    """The exact (ln X, sum/ln X) of each X as mpmath rounds them in
    ``workprec(bits)``: the sum rounded once, then divided by ln X."""
    columns = []
    numerator = 0
    with mpmath.workprec(bits):
        for X, orbits in enumerate(table.orbit_counts, start=1):
            numerator = 2 * numerator + orbits
            log_x = mpmath.log(X)
            normalized = mpmath.mpf((numerator, -X)) / log_x if X >= 2 else None
            columns.append((exact(log_x), None if normalized is None else exact(normalized)))
    return columns


def merten_columns(table):
    """merten's (ln X, sum/ln X) columns before they are printed."""
    logs = log_table(table.n_max, MERTEN_PRECISION_BITS)
    sums = merten_series(*counts_of(table))
    return [(fraction(log_x), fraction(merten_normalized(total, log_x)) if X >= 2 else None)
            for X, (total, log_x) in enumerate(zip(sums, logs), start=1)]


@pytest.mark.parametrize("bits, n_max", [(64, 10_000), (60, 1000), (113, 1000),
                                         (200, 1000), (1000, 1000), (10_000, 100)])
@maps
def test_merten_columns_match_mpmath(spec, bits, n_max):
    # ln X at any width through log_table; merten's columns at their fixed
    # 64 bits.
    assert [fraction(log_x) for log_x in log_table(n_max, bits)] == mpmath_logs(n_max, bits)
    table = build_table(spec, n_max)
    assert merten_columns(table) == mpmath_columns(table, MERTEN_PRECISION_BITS)


@maps
def test_merten_columns_match_mpmath_from_one_guard_bit(spec, monkeypatch):
    # At one guard bit the enclosure of ln X straddles a rounding boundary
    # almost at once, so the table is summed again at 2, 4, 8, ... guard
    # bits; an error bound that counted too little would let a wrong
    # rounding through from one of those narrow passes.
    monkeypatch.setattr(asymptotics, "_GUARD_BITS", 1)
    for bits in (60, 64, 200):
        assert [fraction(log_x) for log_x in log_table(1000, bits)] == mpmath_logs(1000, bits)
    table = build_table(spec, 1000)
    assert merten_columns(table) == mpmath_columns(table, MERTEN_PRECISION_BITS)
