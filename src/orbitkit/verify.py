"""Re-runnable checks of every structural identity and empirical band the
package relies on.  Backs the ``verify`` CLI subcommand.

Each check reports PASS or FAIL together with the window it ran over.
Windows scale with the requested maximum; a window that comes out empty is
reported as a vacuous PASS.  Checks with no pass/fail content (the ratio
cluster report, the empirically estimated constants) always pass and carry
their findings in the detail column.

``CHECKS`` maps each check's name to the check, a function of the maximum
that returns its ``CheckResult``; ``run_checks`` walks it in the order the
checks are defined below, and hands every check one per-run object that
builds f's and g's tables, the divisor lists and ln X once for all their
readers.  Everything else a check reads (fix counts, a ratio window, the
orbit-count gaps) it streams itself, one value at a time, and holds none
of it when it returns.  The acceptance tests assert these same results,
so every criterion has this one implementation.

The window checks (the ratio bands, the Merten sandwich and baseline, the
rescaled gap bound) compare 64-bit floors, floor(v * 2**64), each read off
an exact value's numerator in one shift.  Floors that differ decide the
order; only a tie is compared exactly, so every verdict and detail is the
exact rule's.  An extreme is kept as its floor and operands, and its exact
value is built once, for the detail.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import islice, pairwise
from typing import Callable, Iterator

from . import asymptotics, zeta
from .arith import Dyadic, ExactnessError, divisors, mobius, ord_p, padic_abs
from .counting import (
    CIRCLE_DOUBLING,
    THREE_ADIC_EXTENSION,
    build_table,
    custom_orbits,
    fix_counts,
    fix_terms,
    iterate,
    iterate_square_identity,
    orbit_count_iterate,
    padic_factor,
)
from .zeta import (
    BoundaryPoint,
    modulus_product,
    orbit_product_series,
    xi1_closed_form,
    xi1_direct,
    xi_from_closed_parts,
    xi_series,
    zeta_series,
)

__all__ = ["CHECKS", "CheckResult", "run_checks"]

_VACUOUS = "vacuous (window empty at this max)"

# Fixed boundary-scan parameters; independent of the window size.
_DECREASE_RADII = (0.49, 0.495, 0.499, 0.4995, 0.4999)
_DECREASE_TERMS = 10
_INNERMOST_CEILING = 0.70
_INTERIOR_POINT = BoundaryPoint(Fraction(2, 5), Fraction(0))  # z = 0.4
_INTERIOR_TERMS = 8
_INTERIOR_DEGREE = 4000
_INTERIOR_TOLERANCE = 1e-6


CheckResult = namedtuple("CheckResult", ("name", "passed", "params", "detail"), defaults=("",))


CHECKS: dict[str, Callable[..., CheckResult]] = {}


class _Shared:
    """The values of one run that cost enough to build once for all their
    readers: f's and g's tables (tuples of orbit counts) at ``max_n``, the
    divisor lists of n <= ``max_n`` and the ln X table of the two Merten
    checks.  Each is built on its first read; checks with smaller windows
    read a prefix.  Each is a list or a tuple, never a stream: a second
    reader zipping over a used-up ``fix_counts`` stream checks nothing."""

    def __init__(self, max_n: int):
        self.max_n = max_n

    @cached_property
    def f(self):
        return build_table(THREE_ADIC_EXTENSION, self.max_n)

    @cached_property
    def g(self):
        return build_table(CIRCLE_DOUBLING, self.max_n)

    @cached_property
    def divisor_lists(self) -> list[list[int]]:
        return [divisors(n) for n in range(1, self.max_n + 1)]

    @cached_property
    def logs(self) -> list[Dyadic]:
        return asymptotics.log_table(self.max_n, asymptotics.MERTEN_PRECISION_BITS)


def _check(name: str):
    """Register a check under ``name``.

    The decorated function returns ``(passed, params)`` or
    ``(passed, params, detail)``; the registered check wraps that in a
    ``CheckResult`` named ``name``; an ``ExactnessError`` is a FAIL.  It reads
    the costly values from ``run``, its run's ``_Shared``; called on its own,
    it gets a fresh one, so it builds only what it reads and keeps nothing.
    """

    def register(fn):
        def check(max_n: int, run: "_Shared | None" = None) -> CheckResult:
            try:
                return CheckResult(name, *fn(max_n, _Shared(max_n) if run is None else run))
            except ExactnessError as exc:
                return CheckResult(name, False, "", f"ExactnessError: {exc}")

        CHECKS[name] = check
        return check

    return register


@_check("mobius-divisor-sum")
def _check_mobius_sum(max_n: int, run: _Shared) -> tuple:
    top = min(max_n, 10000)
    params = f"n<=min(max,10000)={top}"
    mu = [mobius(d) for d in range(1, top + 1)]
    for n, ds in enumerate(run.divisor_lists[:top], start=1):
        total = sum(mu[d - 1] for d in ds)
        if total != (1 if n == 1 else 0):
            return False, params, f"sum over divisors of {n} is {total}"
    return True, params


@_check("divisor-pairing")
def _check_divisor_pairing(max_n: int, run: _Shared) -> tuple:
    top = min(max_n, 2000)
    for n, ds in enumerate(run.divisor_lists[:top], start=1):
        if sorted(n // d for d in ds) != ds:
            return False, f"n<={top}", f"fails at {n}"
    return True, f"n<={top}"


@_check("padic-abs-range")
def _check_padic_range(max_n: int, run: _Shared) -> tuple:
    for n in range(1, max_n + 1):
        value = padic_abs(n, 3)  # 1/n <= value <= 1, on the lowest-terms fields
        if not isinstance(value, Fraction) or not (
                0 < value.numerator <= value.denominator <= n * value.numerator):
            return False, f"n<={max_n}", f"fails at {n}"
    return True, f"n<={max_n}"


@_check("padic-closed-form")
def _check_padic_closed_form(max_n: int, run: _Shared) -> tuple:
    mersenne = 0
    for n in range(1, max_n + 1):
        mersenne = (mersenne << 1) + 1
        if padic_factor(n) != ord_p(mersenne, 3):
            return False, f"n<={max_n}", f"mismatch at n={n}"
    return True, f"n<={max_n}"


@_check("even-power-divisibility")
def _check_even_divisibility(max_n: int, run: _Shared) -> tuple:
    for n in range(2, max_n + 1, 2):
        power = 3 ** (1 + ord_p(n, 3))
        if ((1 << n) - 1) % power != 0:
            return False, f"even n<={max_n}", f"fails at {n}"
    return True, f"even n<={max_n}"


@_check("inversion-roundtrip")
def _check_inversion_roundtrip(max_n: int, run: _Shared) -> tuple:
    lists = run.divisor_lists
    # build_table raises ExactnessError where n does not divide least(n)
    for spec, table, label in ((THREE_ADIC_EXTENSION, run.f, "f"), (CIRCLE_DOUBLING, run.g, "g")):
        fix = fix_counts(spec, max_n)
        for n, (ds, fix_n) in enumerate(zip(lists, fix, strict=True), start=1):
            rebuilt = sum(d * table[d - 1] for d in ds)
            if rebuilt != fix_n:
                return False, f"n<={max_n}", f"{label} at n={n}"
    return True, f"n<={max_n}, maps f and g"


@_check("orbit-domination")
def _check_orbit_domination(max_n: int, run: _Shared) -> tuple:
    for n, (orbits_f, orbits_g) in enumerate(zip(run.f, run.g), start=1):
        if orbits_f > orbits_g:
            return False, f"n<={max_n}", f"fails at {n}"
    return True, f"n<={max_n}"


@_check("proper-divisor-sum-bound")
def _check_divisor_sum_bound(max_n: int, run: _Shared) -> tuple:
    # 3 * sum_{d|n, d<n} (2^d - 1) <= 2 * (2^n - 1), all integers
    lists = run.divisor_lists
    del run.divisor_lists  # the last reader: later checks build without the lists
    for n, ds in enumerate(lists, start=1):
        proper = sum((1 << d) - 1 for d in ds if d < n)
        if 3 * proper > 2 * ((1 << n) - 1):
            return False, f"n<={max_n}", f"fails at {n}"
    return True, f"n<={max_n}"


@_check("iterate-double-sum")
def _check_iterate_double_sum(max_n: int, run: _Shared) -> tuple:
    top = min(max_n, 200)
    params = f"n<={top}, k in (2,3), bases f and g"
    for spec in (CIRCLE_DOUBLING, THREE_ADIC_EXTENSION):
        for k in (2, 3):
            base = build_table(spec, top * k)
            direct = build_table(iterate(spec, k), top)
            for n in range(1, top + 1):
                if orbit_count_iterate(base, k, n) != direct[n - 1]:
                    return False, params, f"{spec.label}, k={k}, n={n}"
    return True, params


@_check("square-iterate-identity")
def _check_square_identity(max_n: int, run: _Shared) -> tuple:
    top = min(max_n, 500)
    params = f"n<={top}, bases f and g"
    for spec in (CIRCLE_DOUBLING, THREE_ADIC_EXTENSION):
        base = build_table(spec, 2 * top)
        direct = build_table(iterate(spec, 2), top)
        for n in range(1, top + 1):
            if iterate_square_identity(base, n) != direct[n - 1]:
                return False, params, f"{spec.label}, n={n}"
    return True, params


@_check("fix-term-form")
def _check_fix_term_form(max_n: int, run: _Shared) -> tuple:
    k2, k3 = min(max_n, 500), min(max_n, 200)
    params = f"n<={max_n} for f and g, n<={k2} for k=2, n<={k3} for k=3"
    for base in (THREE_ADIC_EXTENSION, CIRCLE_DOUBLING):
        for spec, top in ((base, max_n), (iterate(base, 2), k2), (iterate(base, 3), k3)):
            den, terms = fix_terms(spec, top)
            for n, fix in enumerate(fix_counts(spec, top), start=1):
                total = sum(w << (s * n // m) for w, s, m in terms if n % m == 0)
                if total != den * fix:
                    return False, params, f"{spec.label} at n={n}"
    return True, params


@_check("killed-orbits")
def _check_killed_orbits(max_n: int, run: _Shared) -> tuple:
    if max_n < 6:
        return True, "n in (2, 6)", _VACUOUS
    orbits_2, orbits_6 = run.f[1], run.f[5]
    ok = orbits_2 == 0 and orbits_6 == 0
    detail = "" if ok else f"orbits(2)={orbits_2}, orbits(6)={orbits_6}"
    return ok, "n in (2, 6)", detail


@_check("pi-domination")
def _check_pi_domination(max_n: int, run: _Shared) -> tuple:
    total_f = total_g = 0
    for X, (orbits_f, orbits_g) in enumerate(zip(run.f, run.g), start=1):
        total_f += orbits_f
        total_g += orbits_g
        if total_f > total_g:
            return False, f"X<={max_n}", f"fails at X={X}"
    return True, f"X<={max_n}"


def _ratio_window(spec, table) -> Iterator[Dyadic]:
    """A map's ratios for DEFAULT_BURN_IN <= X <= the table's end, as an
    iterator for the one check that reads them."""
    ratios = asymptotics.ratio_series(spec, table)
    return islice(ratios, asymptotics.DEFAULT_BURN_IN - 1, None)


def _floor64(numerator: int, shift: int) -> int:
    """floor(numerator / 2**shift * 2**64): ``>>`` floors negatives too, and
    its cost does not grow with the numerator."""
    return numerator >> (shift - 64) if shift >= 64 else numerator << (64 - shift)


def _bound_floors(low, high) -> tuple[int, int]:
    return math.floor(low * 2**64), math.floor(high * 2**64)


def _ratio_range(spec, table, band=None) -> tuple:
    """The first (X, ratio) of a map's ratio window outside ``band``, or
    None, with the window's lowest and highest ratio so far."""
    low_top, high_top = _bound_floors(*band) if band else (-math.inf, math.inf)
    lowest, highest = (math.inf, None), (-math.inf, None)  # (floor, ratio)
    for X, ratio in enumerate(_ratio_window(spec, table), start=asymptotics.DEFAULT_BURN_IN):
        top = _floor64(ratio.numerator, ratio.shift)
        if not low_top < top < high_top and not band[0] <= ratio <= band[1]:
            return (X, ratio), lowest[1], highest[1]
        if top <= lowest[0] and (top < lowest[0] or ratio < lowest[1]):
            lowest = top, ratio
        if top >= highest[0] and (top > highest[0] or ratio > highest[1]):
            highest = top, ratio
    return None, lowest[1], highest[1]


@_check("extension-ratio-band")
def _check_ratio_band(max_n: int, run: _Shared) -> tuple:
    params = f"64<=X<={max_n}, band [1/3-0.02, 1+0.02]"
    if max_n <= asymptotics.DEFAULT_BURN_IN:
        return True, params, _VACUOUS
    outside, lowest, highest = _ratio_range(THREE_ADIC_EXTENSION, run.f, asymptotics.RATIO_BAND)
    if outside:
        X, ratio = outside
        return False, params, f"ratio {float(ratio):.6f} at X={X}"
    observed = f"[{float(lowest):.6f}, {float(highest):.6f}]"
    return True, params, f"observed {observed}"


@_check("ratio-cluster-report")
def _check_ratio_clusters(max_n: int, run: _Shared) -> tuple:
    params = f"64<=X<={max_n}"
    if max_n <= asymptotics.DEFAULT_BURN_IN:
        return True, params, _VACUOUS
    ratios = _ratio_window(THREE_ADIC_EXTENSION, run.f)
    clusters = asymptotics.cluster_ratios([float(ratio) for ratio in ratios])
    summary = "; ".join(f"{mean:.4f} x{count}" for mean, count in clusters[:8])
    if len(clusters) > 8:
        summary += f"; ... ({len(clusters)} clusters total)"
    return True, params, f"report only: {summary}"


@_check("doubling-ratio-limit")
def _check_doubling_ratio(max_n: int, run: _Shared) -> tuple:
    params = f"64<=X<={max_n}, |ratio-1| < 0.02"
    if max_n <= asymptotics.DEFAULT_BURN_IN:
        return True, params, _VACUOUS
    _, lowest, highest = _ratio_range(CIRCLE_DOUBLING, run.g)
    worst = max(abs(lowest - 1), abs(highest - 1))
    ok = worst < asymptotics.RATIO_BAND_TOLERANCE
    return ok, params, f"max |ratio-1| = {float(worst):.6f}"


def _less_log(total: Dyadic, log_x: Dyadic, halved: int = 0) -> Dyadic:
    """sum - ln X / 2**halved, exactly."""
    return total - Dyadic(log_x.numerator, log_x.shift + halved)


def _merten_range(max_n: int, logs: list[Dyadic], spec, table, halved: int) -> tuple:
    """The first X >= 16 with sum - ln X / 2**halved < -2 or sum - ln X > 2,
    or None, with the window's lowest sum - ln X / 2**halved and highest
    sum - ln X.  ``half``, ln X / 2**halved * 2**64, is an int while ln X
    has at most 64 - halved fraction bits (62 at 64-bit precision for
    X >= 16), so top - half is the floor; past that, its shift count is
    negative and raises ``ValueError`` rather than decide on a rounded floor."""
    slack = asymptotics.MERTEN_SLACK
    low_top, high_top = _bound_floors(-slack, slack)
    lowest, highest = (math.inf,), (-math.inf,)  # (floor, sum, ln X)
    sums = islice(asymptotics.merten_series(spec, table), 15, None)
    for X, total, log_x in zip(range(16, max_n + 1), sums, logs[15:], strict=True):
        top = _floor64(total.numerator, total.shift)
        half = log_x.numerator << (64 - halved - log_x.shift)
        under, over = top - half, top - (half << halved)
        if not (low_top < under and over < high_top) and (
                _less_log(total, log_x, halved) < -slack or _less_log(total, log_x) > slack):
            return X, None, None
        if under <= lowest[0] and (under < lowest[0] or _less_log(total, log_x, halved)
                                   < _less_log(*lowest[1:], halved)):
            lowest = under, total, log_x
        if over >= highest[0] and (over > highest[0] or _less_log(total, log_x)
                                   > _less_log(*highest[1:])):
            highest = over, total, log_x
    return None, _less_log(*lowest[1:], halved), _less_log(*highest[1:])


@_check("merten-sandwich")
def _check_merten_sandwich(max_n: int, run: _Shared) -> tuple:
    params = f"16<=X<={max_n}, 0.5*ln X - 2 <= sum <= ln X + 2"
    if max_n < 16:
        return True, params, _VACUOUS
    failed, lowest, highest = _merten_range(max_n, run.logs, THREE_ADIC_EXTENSION, run.f, 1)
    if failed:
        return False, params, f"fails at X={failed}"
    return True, params, (
        f"observed sum-0.5lnX >= {float(lowest):.4f}, "
        f"sum-lnX <= {float(highest):.4f}"
    )


@_check("merten-doubling-baseline")
def _check_merten_doubling(max_n: int, run: _Shared) -> tuple:
    params = f"16<=X<={max_n}, |sum - ln X| <= 2"
    if max_n < 16:
        return True, params, _VACUOUS
    failed, lowest, highest = _merten_range(max_n, run.logs, CIRCLE_DOUBLING, run.g, 0)
    if failed:
        return False, params, f"X={failed}"
    worst = max(abs(lowest), abs(highest))
    return True, params, f"empirical constant: max |sum - ln X| = {float(worst):.4f}"


@_check("delta-gap-bound")
def _check_delta_gap(max_n: int, run: _Shared) -> tuple:
    params = f"X<={max_n}; rescaled band [0.3, 1.5] for even X>=64"
    gaps = asymptotics.delta_gap(run.f, run.g)
    low, high = Fraction(3, 10), Fraction(3, 2)
    low_top, high_top = _bound_floors(low, high)
    for X, (gap, even_bound) in enumerate(gaps, start=1):
        if gap > even_bound:
            return False, params, f"gap {gap} > bound {even_bound} at X={X}"
        if X >= 64 and X % 2 == 0:
            scaled = even_bound * (X // 2)  # over 2**X = 4**(X // 2), X even
            if not low_top < _floor64(scaled, X) < high_top:
                scaled = Dyadic(scaled, X)
                if not low <= scaled <= high:
                    return False, params, f"rescaled bound {float(scaled):.4f} at X={X}"
    return True, params


@_check("zeta-two-routes")
def _check_zeta_oracle(max_n: int, run: _Shared) -> tuple:
    degree = min(max_n, 400)
    params = f"degree {degree}, maps f and g"
    if zeta_series(THREE_ADIC_EXTENSION, degree) != orbit_product_series(run.f, degree):
        return False, params, "f series differ"
    series_g = zeta_series(CIRCLE_DOUBLING, degree)
    if series_g != orbit_product_series(run.g, degree):
        return False, params, "g series differ"
    for n in range(degree + 1):
        expected = 1 if n == 0 else 1 << (n - 1)
        if series_g[n] != expected:
            return False, params, f"g closed form fails at degree {n}"
    return True, params


@_check("xi1-identity")
def _check_xi1_identity(max_n: int, run: _Shared) -> tuple:
    degree = min(max_n, 500)
    params = f"degree {degree}"
    if degree < 2:
        return True, params, _VACUOUS
    return xi1_direct(degree) == xi1_closed_form(degree), params


@_check("exponent-decomposition")
def _check_decomposition(max_n: int, run: _Shared) -> tuple:
    degree = min(max_n, 400)
    params = f"degree {degree}"
    if degree < 2:
        return True, params, _VACUOUS
    return xi_series(THREE_ADIC_EXTENSION, degree) == xi_from_closed_parts(degree), params


@_check("coefficient-growth")
def _check_coefficient_growth(max_n: int, run: _Shared) -> tuple:
    top = min(max_n, 400)
    params = f"200<=n<={top}, |log2(c_n)/n - 1| <= 0.05"
    if top < 200:
        return True, params, _VACUOUS
    coeffs = zeta_series(THREE_ADIC_EXTENSION, top)
    for n in range(200, top + 1):
        # 0.95 <= log2(c_n)/n <= 1.05, in integers: 2**(19n) <= c_n**20 <= 2**(21n)
        if not (1 << 19 * n) <= coeffs[n] ** 20 <= (1 << 21 * n):
            return False, params, f"rate {math.log2(coeffs[n]) / n:.4f} at n={n}"
    return True, params


@_check("fix-ratio-witnesses")
def _check_fix_ratio_witnesses(max_n: int, run: _Shared) -> tuple:
    top = min(max_n, 200)
    params = f"n<={top}, witnesses > 2.2 and < 1.0"
    if top < 6:
        return True, params, _VACUOUS
    above = below = None
    for n, (fix, after) in enumerate(pairwise(fix_counts(THREE_ADIC_EXTENSION, top)), start=1):
        if above is None and 5 * after > 11 * fix:  # fix(n+1)/fix(n) > 11/5
            above = n
        if below is None and after < fix:
            below = n
    ok = above is not None and below is not None
    detail = f"ratio > 2.2 at n={above}, ratio < 1 at n={below}" if ok else "missing witness"
    return ok, params, detail


@_check("custom-counterexample")
def _check_custom_example(max_n: int, run: _Shared) -> tuple:
    top = min(max_n, 100)
    params = f"n<={top}"
    if top < 2:
        return True, params, _VACUOUS
    spec_a, spec_b = custom_orbits((1, 3)), custom_orbits((6, 1))
    fix = zip(fix_counts(spec_a, top), fix_counts(spec_b, top), strict=True)
    for n, (fix_a, fix_b) in enumerate(fix, start=1):
        expected_a, expected_b = 4 + 3 * (-1) ** n, 7 + (-1) ** n
        if fix_a != expected_a:
            return False, params, f"a at n={n}"
        if fix_b != expected_b:
            return False, params, f"b at n={n}"
        if expected_a >= expected_b:
            return False, params, f"fix dominance at n={n}"
    ok = build_table(spec_a, top)[1] > build_table(spec_b, top)[1]
    return ok, params, "" if ok else "orbit counts unexpectedly dominated"


@_check("boundary-zeros")
def _check_boundary_zeros(max_n: int, run: _Shared) -> tuple:
    params = "(j, r) in ((1,1), (1,2), (2,2)), terms 4"
    for j, r in ((1, 1), (1, 2), (2, 2)):
        point = BoundaryPoint(Fraction(1, 2), Fraction(j, 3**r))
        value = modulus_product(point, 4)
        if value != 0.0:
            return False, params, f"nonzero {value} at j={j}, r={r}"
    return True, params


@_check("boundary-decrease")
def _check_boundary_decrease(max_n: int, run: _Shared) -> tuple:
    params = f"ray 2pi/3, radii {_DECREASE_RADII}, terms {_DECREASE_TERMS}"
    values = [
        modulus_product(BoundaryPoint(Fraction(r), Fraction(1, 3)), _DECREASE_TERMS)
        for r in _DECREASE_RADII
    ]
    decreasing = all(a > b for a, b in zip(values, values[1:]))
    below = values[-1] < _INNERMOST_CEILING
    return (decreasing and below, params,
            f"values {['%.4f' % v for v in values]}, ceiling {_INNERMOST_CEILING}")


@_check("interior-agreement")
def _check_interior_agreement(max_n: int, run: _Shared) -> tuple:
    params = (
        f"z={float(_INTERIOR_POINT.radius)}, terms={_INTERIOR_TERMS}, "
        f"degree={_INTERIOR_DEGREE}, tol={_INTERIOR_TOLERANCE}"
    )
    if max_n < 400:
        return True, params, _VACUOUS
    product = modulus_product(_INTERIOR_POINT, _INTERIOR_TERMS)
    series = zeta.series_modulus(THREE_ADIC_EXTENSION, _INTERIOR_DEGREE, _INTERIOR_POINT)
    diff = abs(product - series)
    return diff <= _INTERIOR_TOLERANCE, params, f"diff {diff:.2e}"


def run_checks(max_n: int) -> list[CheckResult]:
    """Run the full invariant suite with windows scaled to ``max_n``.

    The checks share one ``_Shared``: f's and g's tables, the divisor lists
    and ln X are built once, on their first read, and dropped when this
    returns (the divisor lists after their last reader).  What only one
    check reads, such as fix counts or a ratio window, it streams itself.
    """
    if max_n < 1:
        raise ValueError(f"verification max must be >= 1, got {max_n}")
    run = _Shared(max_n)
    return [check(max_n, run) for check in CHECKS.values()]
