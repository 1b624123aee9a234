"""The window checks decide on 64-bit floors and fall back to exact
comparisons where floors tie; these tests plant values at the ties and
hold every verdict, X and detail to the exact rule.

The exact rule is the plain ``Dyadic`` loop of each check, kept here as the
reference.  Each test replaces one window source (``ratio_series``,
``merten_series`` or ``delta_gap``, read through ``asymptotics``) with a
list that is the real window except at the planted X, and compares the
check with its reference on the same list.
"""

import math
from fractions import Fraction

import pytest

from orbitkit import asymptotics, verify, zeta
from orbitkit.arith import Dyadic
from orbitkit.counting import (
    CIRCLE_DOUBLING,
    THREE_ADIC_EXTENSION,
    OrbitTable,
    build_table,
    custom_orbits,
)

MAX = 200
LOW_X, HIGH_X = 120, 160  # where the tie tests plant their values
TABLES = {spec: build_table(spec, MAX) for spec in (THREE_ADIC_EXTENSION, CIRCLE_DOUBLING)}
LOGS = asymptotics.log_table(MAX, asymptotics.MERTEN_PRECISION_BITS)
SOURCES = {name: getattr(asymptotics, name) for name in ("ratio_series", "merten_series", "delta_gap")}


def floor64(value) -> int:
    return math.floor(value * 2**64) if isinstance(value, Fraction) else (
        math.floor(Fraction(value.numerator, 1 << value.shift) * 2**64))


# The exact rule: each window check as a plain Dyadic loop over the window.

def reference_ratio_band():
    low, high = asymptotics.RATIO_BAND
    ratios = asymptotics.ratio_series(THREE_ADIC_EXTENSION, TABLES[THREE_ADIC_EXTENSION].orbit_counts)
    window = list(ratios)[63:]
    for X, ratio in enumerate(window, start=64):
        if not low <= ratio <= high:
            return False, f"ratio {float(ratio):.6f} at X={X}"
    return True, f"observed [{float(min(window)):.6f}, {float(max(window)):.6f}]"


def reference_doubling_ratio():
    ratios = asymptotics.ratio_series(CIRCLE_DOUBLING, TABLES[CIRCLE_DOUBLING].orbit_counts)
    worst = max(abs(ratio - 1) for ratio in list(ratios)[63:])
    return worst < asymptotics.RATIO_BAND_TOLERANCE, f"max |ratio-1| = {float(worst):.6f}"


def merten_window(spec):
    sums = list(asymptotics.merten_series(spec, TABLES[spec].orbit_counts))
    return list(zip(range(16, MAX + 1), sums[15:], LOGS[15:]))


def reference_sandwich():
    slack, lowest, highest = asymptotics.MERTEN_SLACK, None, None
    for X, total, log_x in merten_window(THREE_ADIC_EXTENSION):
        dev_full, dev_half = total - log_x, total - Dyadic(log_x.numerator, log_x.shift + 1)
        if dev_half < -slack or dev_full > slack:
            return False, f"fails at X={X}"
        lowest = dev_half if lowest is None or dev_half < lowest else lowest
        highest = dev_full if highest is None or dev_full > highest else highest
    return True, (f"observed sum-0.5lnX >= {float(lowest):.4f}, "
                  f"sum-lnX <= {float(highest):.4f}")


def reference_merten_doubling():
    worst = Dyadic(0, 0)
    for X, total, log_x in merten_window(CIRCLE_DOUBLING):
        deviation = abs(total - log_x)
        if deviation > worst:
            worst = deviation
        if deviation > asymptotics.MERTEN_SLACK:
            return False, f"X={X}"
    return True, f"empirical constant: max |sum - ln X| = {float(worst):.4f}"


def reference_delta_gap():
    low, high = Fraction(3, 10), Fraction(3, 2)
    pairs = asymptotics.delta_gap(*TABLES.values())
    for X, (gap, even_bound) in enumerate(pairs, start=1):
        if gap > even_bound:
            return False, f"gap {gap} > bound {even_bound} at X={X}"
        if X >= 64 and X % 2 == 0:
            scaled = Dyadic(even_bound * (X // 2), X)
            if not low <= scaled <= high:
                return False, f"rescaled bound {float(scaled):.4f} at X={X}"
    return True, ""


REFERENCES = {
    "extension-ratio-band": reference_ratio_band,
    "doubling-ratio-limit": reference_doubling_ratio,
    "merten-sandwich": reference_sandwich,
    "merten-doubling-baseline": reference_merten_doubling,
    "delta-gap-bound": reference_delta_gap,
}


def assert_exact_rule(name):
    result = verify.CHECKS[name](MAX)
    assert (result.passed, result.detail) == REFERENCES[name](), result
    return result


# Planted windows.

def plant(monkeypatch, source, spec, planted):
    """Replace ``asymptotics.<source>`` for ``spec`` by the real series with
    the value at each X of ``planted`` replaced: X -> value, or for
    ``delta_gap`` X -> (gap, even_bound)."""
    original = SOURCES[source]
    if source == "delta_gap":
        values = list(original(*TABLES.values()))
    else:
        values = list(original(spec, TABLES[spec].orbit_counts))
    for X, value in planted.items():
        values[X - 1] = value

    def planted_source(*args):
        if source != "delta_gap" and args[0] != spec:
            return original(*args)
        return iter(values)

    monkeypatch.setattr(asymptotics, source, planted_source)


def below(value: Fraction, shift: int) -> Dyadic:
    """The largest Dyadic of ``shift`` that is <= value."""
    return Dyadic(math.floor(value * 2**shift), shift)


def above(value: Fraction, shift: int) -> Dyadic:
    return Dyadic(math.ceil(value * 2**shift), shift)


def step(value: Dyadic, units: int) -> Dyadic:
    return Dyadic(value.numerator + units, value.shift)


RATIO_CASES = {  # X -> the planted ratio, with shift X + 1 as ratio_series gives
    "nearest-inside-low": lambda X, low, high: above(low, X + 1),
    "nearest-outside-low": lambda X, low, high: below(low, X + 1),
    "nearest-inside-high": lambda X, low, high: below(high, X + 1),
    "nearest-outside-high": lambda X, low, high: above(high, X + 1),
}


@pytest.mark.parametrize("case", RATIO_CASES)
def test_extension_ratio_band_at_its_bounds(monkeypatch, case):
    low, high = asymptotics.RATIO_BAND
    ratio = RATIO_CASES[case](LOW_X, low, high)
    # The planted ratio shares its floor with a bound: the exact fallback decides.
    assert verify._floor64(ratio.numerator, ratio.shift) in (floor64(low), floor64(high))
    plant(monkeypatch, "ratio_series", THREE_ADIC_EXTENSION, {LOW_X: ratio})
    result = assert_exact_rule("extension-ratio-band")
    assert result.passed == case.startswith("nearest-inside")


@pytest.mark.parametrize("case", RATIO_CASES)
def test_doubling_ratio_limit_at_its_bounds(monkeypatch, case):
    tolerance = asymptotics.RATIO_BAND_TOLERANCE
    ratio = RATIO_CASES[case](LOW_X, 1 - tolerance, 1 + tolerance)
    plant(monkeypatch, "ratio_series", CIRCLE_DOUBLING, {LOW_X: ratio})
    assert_exact_rule("doubling-ratio-limit")


def test_ratio_range_decides_a_dyadic_band_exactly(monkeypatch):
    # A bound that a ratio can equal: on it passes, one unit past it fails.
    low, high = Fraction(1, 4), Fraction(1)
    table = TABLES[THREE_ADIC_EXTENSION]
    for X, ratio, inside in ((LOW_X, above(low, LOW_X + 1), True),
                             (LOW_X, step(above(low, LOW_X + 1), -1), False),
                             (HIGH_X, below(high, HIGH_X + 1), True),
                             (HIGH_X, step(below(high, HIGH_X + 1), 1), False)):
        plant(monkeypatch, "ratio_series", THREE_ADIC_EXTENSION, {X: ratio})
        outside, _, _ = verify._ratio_range(table, (low, high))
        assert outside == (None if inside else (X, ratio))


@pytest.mark.parametrize("later", [-1, 1])
def test_ratio_extremes_tied_on_their_floor(monkeypatch, later):
    # Two extremes a unit of 2**-(X+1) apart share their 64-bit floor: the
    # exact comparison keeps the lower (or higher) one.
    lowest = below(Fraction(7, 20), LOW_X + 1)
    lowest_later = Dyadic((lowest.numerator << (HIGH_X - LOW_X)) + later, HIGH_X + 1)
    highest = below(Fraction(19, 20), LOW_X + 1)
    highest_later = Dyadic((highest.numerator << (HIGH_X - LOW_X)) - later, HIGH_X + 1)
    for first, second in ((lowest, lowest_later), (highest, highest_later)):
        assert verify._floor64(first.numerator, first.shift) == verify._floor64(
            second.numerator, second.shift)
    planted = {LOW_X: lowest, LOW_X + 1: highest, HIGH_X: lowest_later, HIGH_X + 1: highest_later}
    plant(monkeypatch, "ratio_series", THREE_ADIC_EXTENSION, planted)
    _, low, high = verify._ratio_range(TABLES[THREE_ADIC_EXTENSION], asymptotics.RATIO_BAND)
    assert low == min(lowest, lowest_later) and high == max(highest, highest_later)
    assert low == (lowest_later if later < 0 else lowest)
    assert_exact_rule("extension-ratio-band")


def merten_sum(X: int, deviation: int, halved: int = 0, units: int = 0) -> Dyadic:
    """The Dyadic sum at X (X >= 64) with sum - ln X / 2**halved equal to
    ``deviation`` + ``units`` * 2**-X exactly."""
    log_x = LOGS[X - 1]
    numerator = (log_x.numerator << (X - log_x.shift - halved)) + (deviation << X) + units
    return Dyadic(numerator, X)


MERTEN_CASES = {  # case -> (units of 2**-X past the bound, inside)
    "on-bound": (0, True),
    "unit-inside": (-1, True),
    "unit-outside": (1, False),
}


@pytest.mark.parametrize("case", MERTEN_CASES)
@pytest.mark.parametrize("side", ["half-low", "full-high"])
def test_merten_sandwich_at_its_bounds(monkeypatch, case, side):
    units, inside = MERTEN_CASES[case]
    total = (step(merten_sum(LOW_X, -2, 1), -units) if side == "half-low"
             else step(merten_sum(LOW_X, 2), units))
    plant(monkeypatch, "merten_series", THREE_ADIC_EXTENSION, {LOW_X: total})
    result = assert_exact_rule("merten-sandwich")
    assert result.passed == inside


@pytest.mark.parametrize("case", MERTEN_CASES)
@pytest.mark.parametrize("sign", [-1, 1])
def test_merten_doubling_at_its_bounds(monkeypatch, case, sign):
    units, inside = MERTEN_CASES[case]
    plant(monkeypatch, "merten_series", CIRCLE_DOUBLING,
          {LOW_X: step(merten_sum(LOW_X, 2 * sign), sign * units)})
    result = assert_exact_rule("merten-doubling-baseline")
    assert result.passed == inside


@pytest.mark.parametrize("units", [0, 1])
def test_merten_bounds_below_x_64(monkeypatch, units):
    # Below X = 64 the sum has fewer than 64 fraction bits: its floor is exact.
    X = 20
    total = Dyadic(math.floor((Fraction(LOGS[X - 1].numerator, 1 << LOGS[X - 1].shift) + 2)
                              * 2**X) + units, X)
    for spec, name in ((THREE_ADIC_EXTENSION, "merten-sandwich"),
                       (CIRCLE_DOUBLING, "merten-doubling-baseline")):
        plant(monkeypatch, "merten_series", spec, {X: total})
        assert assert_exact_rule(name).passed == (units == 0)


@pytest.mark.parametrize("later", [-1, 1])
@pytest.mark.parametrize("spec, halved", [(THREE_ADIC_EXTENSION, 1), (CIRCLE_DOUBLING, 0)])
def test_merten_extremes_tied_on_their_floor(monkeypatch, later, spec, halved):
    # Deviations of -1 + 2**-100 and 1 + 2**-100, and a unit of 2**-X from
    # them: each pair shares its 64-bit floor, so the exact comparison keeps
    # the lower (or higher) one.
    def planted_sum(X, deviation, halved, units):
        return merten_sum(X, deviation, halved, (1 << (X - 100)) + units)

    planted = {LOW_X: planted_sum(LOW_X, -1, halved, 0),
               HIGH_X: planted_sum(HIGH_X, -1, halved, later),
               LOW_X + 1: planted_sum(LOW_X + 1, 1, 0, 0),
               HIGH_X + 1: planted_sum(HIGH_X + 1, 1, 0, -later)}
    plant(monkeypatch, "merten_series", spec, planted)
    _, lowest, highest = verify._merten_range(MAX, LOGS, TABLES[spec], halved)
    window = merten_window(spec)
    assert lowest == min(total - Dyadic(log_x.numerator, log_x.shift + halved)
                         for _, total, log_x in window)
    assert highest == max(total - log_x for _, total, log_x in window)
    assert lowest == Dyadic((-1 << HIGH_X) + (1 << (HIGH_X - 100)) + min(later, 0), HIGH_X)
    assert_exact_rule("merten-sandwich" if halved else "merten-doubling-baseline")


@pytest.mark.parametrize("bits", [64, 65, 66])
@pytest.mark.parametrize("spec, halved", [(THREE_ADIC_EXTENSION, 1), (CIRCLE_DOUBLING, 0)])
def test_merten_floors_exact_or_refused_at_any_precision(spec, halved, bits):
    # ln X / 2**halved * 2**64 is an int only while ln X has at most
    # 64 - halved fraction bits (bits - 2 at X = 16).  Past that the window
    # must raise, not decide its bands on a rounded floor.
    logs = asymptotics.log_table(MAX, bits)
    if max(log_x.shift for log_x in logs[15:]) + halved > 64:
        with pytest.raises(ValueError):
            verify._merten_range(MAX, logs, TABLES[spec], halved)
        return
    sums = list(asymptotics.merten_series(spec, TABLES[spec].orbit_counts))[15:]
    window = list(zip(sums, logs[15:]))
    assert verify._merten_range(MAX, logs, TABLES[spec], halved) == (
        None,
        min(total - Dyadic(log_x.numerator, log_x.shift + halved) for total, log_x in window),
        max(total - log_x for total, log_x in window))


def rescaled_pair(X: int, scaled: Dyadic) -> tuple[int, int]:
    """A (gap, even_bound) pair at even X whose bound rescales to ``scaled``,
    given at shift X with a numerator divisible by X // 2."""
    return 0, scaled.numerator // (X // 2)


@pytest.mark.parametrize("X, scaled, inside", [
    (128, Dyadic(3, 1), True),                                  # on the bound 3/2
    (128, Dyadic((3 << 127) - 64, 128), True),                  # one step inside
    (128, Dyadic((3 << 127) + 64, 128), False),                 # one step outside
    (128, Dyadic(math.ceil(Fraction(3, 10) * 2**122) * 64, 128), True),
    (128, Dyadic(math.floor(Fraction(3, 10) * 2**122) * 64, 128), False),
])
def test_delta_gap_bound_at_its_bounds(monkeypatch, X, scaled, inside):
    numerator = scaled.numerator << (X - scaled.shift)
    gap, even_bound = rescaled_pair(X, Dyadic(numerator, X))
    assert even_bound * (X // 2) == numerator
    top = verify._floor64(numerator, X)  # on or next to a bound's floor
    assert min(abs(top - floor64(bound)) for bound in (Fraction(3, 10), Fraction(3, 2))) <= 1
    plant(monkeypatch, "delta_gap", None, {X: (gap, even_bound)})
    result = assert_exact_rule("delta-gap-bound")
    assert result.passed == inside


# One orbit-count fault per check: each fails at the X and with the detail
# that the plain Dyadic loops gave.

def fault(monkeypatch, source, label, n, change):
    original = getattr(asymptotics, source)

    def faulty(spec, counts):
        counts = list(counts)
        if spec.label == label:
            counts[n - 1] = change(counts[n - 1])
        return original(spec, counts)

    monkeypatch.setattr(asymptotics, source, faulty)


@pytest.mark.parametrize("name, source, label, n, change, detail", [
    ("extension-ratio-band", "ratio_series", "3-adic-extension", 100, lambda c: c + (1 << 94),
     "ratio 1.336656 at X=100"),
    ("doubling-ratio-limit", "ratio_series", "circle-doubling", 150, lambda c: 2 * c,
     "max |ratio-1| = 0.506804"),
    ("merten-sandwich", "merten_series", "3-adic-extension", 150, lambda c: c + (5 << 150),
     "fails at X=150"),
    ("merten-doubling-baseline", "merten_series", "circle-doubling", 150,
     lambda c: c - (3 << 150), "X=150"),
])
def test_window_check_fault_fails_where_it_did(monkeypatch, name, source, label, n, change,
                                               detail):
    fault(monkeypatch, source, label, n, change)
    result = verify.CHECKS[name](300)
    assert not result.passed and result.detail == detail, result


def test_delta_gap_fault_fails_where_it_did(monkeypatch):
    original = asymptotics.delta_gap

    def tripled_g_at_150(table_f, table_g):
        counts = list(table_g.orbit_counts)
        counts[149] *= 3
        counts[150] *= 3
        return original(table_f, OrbitTable(table_g.spec, tuple(counts)))

    monkeypatch.setattr(asymptotics, "delta_gap", tripled_g_at_150)
    result = verify.CHECKS["delta-gap-bound"](300)
    assert not result.passed and result.detail == "rescaled bound 1.6697 at X=150", result


# padic-abs-range reads the lowest-terms fields of each |n|_3.

@pytest.mark.parametrize("value, passed, detail", [
    (lambda n: Fraction(1, n), True, ""),            # on the lower bound 1/n
    (lambda n: Fraction(1), True, ""),               # on the upper bound 1
    (lambda n: Fraction(1, n + 1), False, "fails at 1"),
    (lambda n: Fraction(2 if n == 7 else 1), False, "fails at 7"),
    (lambda n: Fraction(0), False, "fails at 1"),
    (lambda n: 1 / 3 ** verify.ord_p(n, 3), False, "fails at 1"),  # a float, not a Fraction
])
def test_padic_abs_range_bounds(monkeypatch, value, passed, detail):
    monkeypatch.setattr(verify, "padic_abs", lambda n, p: value(n))
    result = verify.CHECKS["padic-abs-range"](50)
    assert (result.passed, result.detail) == (passed, detail)


# The orbit product's two routes against the binomial expansion.

def binomial_reference(table, degree):
    coeffs = [1] + [0] * degree
    for n in range(1, degree + 1):
        m, new = table.orbit_counts[n - 1], coeffs[:]
        for k in range(1, degree // n + 1):
            b = math.comb(m - 1 + k, k)
            for i in range(degree - n * k + 1):
                new[i + n * k] += coeffs[i] * b
        coeffs = new
    return tuple(coeffs)


ROUTE_TABLES = [
    build_table(custom_orbits((1, 2, 0, 10**40, 1, 0, 2, 3, 0, 1, 2, 10**40, 0, 1, 2,
                               5, 0, 0, 1, 2)), 20),
    build_table(custom_orbits((0, 0, 0, 1, 0, 2)), 6),
    build_table(THREE_ADIC_EXTENSION, 60),
    build_table(CIRCLE_DOUBLING, 60),
]


@pytest.mark.parametrize("table", ROUTE_TABLES, ids=["custom", "sparse", "f", "g"])
def test_orbit_product_routes_match_the_binomial_expansion(table):
    n_max = len(table.orbit_counts)
    routes = {0 <= table.orbit_counts[n - 1] <= n_max // n // 2 for n in range(1, n_max + 1)}
    assert routes == {True, False}  # both the running sums and the binomial terms
    for degree in (0, 1, 2, n_max // 2, n_max):
        assert zeta.orbit_product_series(table, degree) == binomial_reference(table, degree)


@pytest.mark.parametrize("n", [5, 300])  # running sums at 5, binomial terms at 300
def test_zeta_two_routes_sees_one_g_count_off_by_one(monkeypatch, n):
    original = verify.build_table

    def g_off_by_one(spec, n_max):
        table = original(spec, n_max)
        if spec != CIRCLE_DOUBLING:
            return table
        counts = list(table.orbit_counts)
        counts[n - 1] += 1
        return OrbitTable(spec, tuple(counts))

    monkeypatch.setattr(verify, "build_table", g_off_by_one)
    result = verify.CHECKS["zeta-two-routes"](400)
    assert not result.passed and result.detail == "g series differ", result
