"""Re-runnable checks of every structural identity and empirical band the
package relies on.  Backs the ``verify`` CLI subcommand.

Each check reports PASS or FAIL together with the window it ran over.
Windows scale with the requested maximum; a window that comes out empty is
reported as a vacuous PASS.  Checks with no pass/fail content (the ratio
cluster report, the empirically estimated constants) always pass and carry
their findings in the detail column.

``CHECKS`` maps each check's name to the check, a function of the maximum
that returns its ``CheckResult``; ``run_checks`` walks it in the order the
checks are defined below.  The acceptance tests assert these same results,
so every criterion has this one implementation.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

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


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    params: str
    detail: str = ""


CHECKS: dict[str, Callable[[int], CheckResult]] = {}

# What the checks of one ``run_checks`` call share: f's and g's tables and
# fix counts, the divisor lists, f's ratios from X = DEFAULT_BURN_IN and the
# ln X table of the two Merten checks; each check computes what it reports
# from them (a window's min and max, sum - ln X).  None outside such a call,
# so a check called on its own builds what it reads and leaves nothing behind.
# Every shared value is a list, a tuple or a table, never a stream: a second
# reader zipping over a used-up ``fix_counts`` stream would check nothing.
_SHARED: ContextVar["dict | None"] = ContextVar("verify_shared", default=None)


def _once(key, build: Callable):
    """``build()``, kept for the rest of the current ``run_checks`` call."""
    shared = _SHARED.get()
    if shared is None:
        return build()
    if key not in shared:
        shared[key] = build()
    return shared[key]


def _table(spec, max_n: int):
    """f's or g's table at ``max_n``; smaller windows read a prefix of it."""
    return _once((spec, max_n), lambda: build_table(spec, max_n))


def _divisor_lists(max_n: int, top: int) -> list[list[int]]:
    """``divisors(n)`` for n = 1..top, top <= max_n.

    One ``run_checks`` call lists them to ``max_n`` once for all its
    readers; a check called on its own lists only its window.
    """
    if _SHARED.get() is None:
        return [divisors(n) for n in range(1, top + 1)]
    return _once(("divisors", max_n), lambda: [divisors(n) for n in range(1, max_n + 1)])[:top]


def _drop(key) -> None:
    """Free a shared value after its last reader in a ``run_checks`` call."""
    shared = _SHARED.get()
    if shared is not None:
        shared.pop(key, None)


def _check(name: str):
    """Register a check under ``name``.

    The decorated function returns ``(passed, params)`` or
    ``(passed, params, detail)``; the registered check wraps that in a
    ``CheckResult`` named ``name``; an ``ExactnessError`` is a FAIL.
    """

    def register(fn):
        def check(max_n: int) -> CheckResult:
            try:
                return CheckResult(name, *fn(max_n))
            except ExactnessError as exc:
                return CheckResult(name, False, "", f"ExactnessError: {exc}")

        CHECKS[name] = check
        return check

    return register


@_check("mobius-divisor-sum")
def _check_mobius_sum(max_n: int) -> tuple:
    top = min(max_n, 10000)
    params = f"n<=min(max,10000)={top}"
    mu = [mobius(d) for d in range(1, top + 1)]
    for n, ds in enumerate(_divisor_lists(max_n, top), start=1):
        total = sum(mu[d - 1] for d in ds)
        if total != (1 if n == 1 else 0):
            return False, params, f"sum over divisors of {n} is {total}"
    return True, params


@_check("divisor-pairing")
def _check_divisor_pairing(max_n: int) -> tuple:
    top = min(max_n, 2000)
    for n, ds in enumerate(_divisor_lists(max_n, top), start=1):
        if sorted(n // d for d in ds) != ds:
            return False, f"n<={top}", f"fails at {n}"
    return True, f"n<={top}"


@_check("padic-abs-range")
def _check_padic_range(max_n: int) -> tuple:
    for n in range(1, max_n + 1):
        value = padic_abs(n, 3)
        if not (0 < value <= 1 and value >= Fraction(1, n)):
            return False, f"n<={max_n}", f"fails at {n}"
    return True, f"n<={max_n}"


@_check("padic-closed-form")
def _check_padic_closed_form(max_n: int) -> tuple:
    mersenne = 0
    for n in range(1, max_n + 1):
        mersenne = (mersenne << 1) + 1
        if padic_factor(n) != ord_p(mersenne, 3):
            return False, f"n<={max_n}", f"mismatch at n={n}"
    return True, f"n<={max_n}"


@_check("even-power-divisibility")
def _check_even_divisibility(max_n: int) -> tuple:
    for n in range(2, max_n + 1, 2):
        power = 3 ** (1 + ord_p(n, 3))
        if ((1 << n) - 1) % power != 0:
            return False, f"even n<={max_n}", f"fails at {n}"
    return True, f"even n<={max_n}"


@_check("inversion-roundtrip")
def _check_inversion_roundtrip(max_n: int) -> tuple:
    lists = _divisor_lists(max_n, max_n)
    for spec, label in ((THREE_ADIC_EXTENSION, "f"), (CIRCLE_DOUBLING, "g")):
        # build_table raises ExactnessError where n does not divide least(n)
        table = _table(spec, max_n)
        # Listed: fix-term-form reads the same list after this check.
        fix = _once(("fix", spec, max_n), lambda: list(fix_counts(spec, max_n)))
        for n, ds in enumerate(lists, start=1):
            rebuilt = sum(d * table.orbit_counts[d - 1] for d in ds)
            if rebuilt != fix[n - 1]:
                return False, f"n<={max_n}", f"{label} at n={n}"
    return True, f"n<={max_n}, maps f and g"


@_check("orbit-domination")
def _check_orbit_domination(max_n: int) -> tuple:
    tf = _table(THREE_ADIC_EXTENSION, max_n)
    tg = _table(CIRCLE_DOUBLING, max_n)
    for n in range(1, max_n + 1):
        if tf.orbit_counts[n - 1] > tg.orbit_counts[n - 1]:
            return False, f"n<={max_n}", f"fails at {n}"
    return True, f"n<={max_n}"


@_check("proper-divisor-sum-bound")
def _check_divisor_sum_bound(max_n: int) -> tuple:
    # 3 * sum_{d|n, d<n} (2^d - 1) <= 2 * (2^n - 1), all integers
    lists = _divisor_lists(max_n, max_n)
    _drop(("divisors", max_n))  # the last reader: free the lists before later checks
    for n, ds in enumerate(lists, start=1):
        proper = sum((1 << d) - 1 for d in ds if d < n)
        if 3 * proper > 2 * ((1 << n) - 1):
            return False, f"n<={max_n}", f"fails at {n}"
    return True, f"n<={max_n}"


@_check("iterate-double-sum")
def _check_iterate_double_sum(max_n: int) -> tuple:
    top = min(max_n, 200)
    params = f"n<={top}, k in (2,3), bases f and g"
    for spec in (CIRCLE_DOUBLING, THREE_ADIC_EXTENSION):
        for k in (2, 3):
            base = build_table(spec, top * k)
            direct = build_table(iterate(spec, k), top)
            for n in range(1, top + 1):
                if orbit_count_iterate(base, k, n) != direct.orbit_counts[n - 1]:
                    return False, params, f"{spec.label}, k={k}, n={n}"
    return True, params


@_check("square-iterate-identity")
def _check_square_identity(max_n: int) -> tuple:
    top = min(max_n, 500)
    params = f"n<={top}, bases f and g"
    for spec in (CIRCLE_DOUBLING, THREE_ADIC_EXTENSION):
        base = build_table(spec, 2 * top)
        direct = build_table(iterate(spec, 2), top)
        for n in range(1, top + 1):
            if iterate_square_identity(base, n) != direct.orbit_counts[n - 1]:
                return False, params, f"{spec.label}, n={n}"
    return True, params


@_check("fix-term-form")
def _check_fix_term_form(max_n: int) -> tuple:
    k2, k3 = min(max_n, 500), min(max_n, 200)
    params = f"n<={max_n} for f and g, n<={k2} for k=2, n<={k3} for k=3"
    for base in (THREE_ADIC_EXTENSION, CIRCLE_DOUBLING):
        for spec, top in ((base, max_n), (iterate(base, 2), k2), (iterate(base, 3), k3)):
            den, terms = fix_terms(spec, top)
            fix = _once(("fix", spec, top), lambda: list(fix_counts(spec, top)))
            _drop(("fix", spec, top))  # the last reader: free the list before later checks
            for n in range(1, top + 1):
                total = sum(w << (s * n // m) for w, s, m in terms if n % m == 0)
                if total != den * fix[n - 1]:
                    return False, params, f"{spec.label} at n={n}"
    return True, params


@_check("killed-orbits")
def _check_killed_orbits(max_n: int) -> tuple:
    if max_n < 6:
        return True, "n in (2, 6)", _VACUOUS
    table = _table(THREE_ADIC_EXTENSION, max_n)
    orbits_2, orbits_6 = table.orbit_counts[1], table.orbit_counts[5]
    ok = orbits_2 == 0 and orbits_6 == 0
    detail = "" if ok else f"orbits(2)={orbits_2}, orbits(6)={orbits_6}"
    return ok, "n in (2, 6)", detail


@_check("pi-domination")
def _check_pi_domination(max_n: int) -> tuple:
    tf = _table(THREE_ADIC_EXTENSION, max_n)
    tg = _table(CIRCLE_DOUBLING, max_n)
    total_f = total_g = 0
    for X in range(1, max_n + 1):
        total_f += tf.orbit_counts[X - 1]
        total_g += tg.orbit_counts[X - 1]
        if total_f > total_g:
            return False, f"X<={max_n}", f"fails at X={X}"
    return True, f"X<={max_n}"


def _ratio_window(spec, max_n: int) -> "list[Dyadic] | None":
    """A map's ratios for DEFAULT_BURN_IN <= X <= max_n; f's are built once
    for the two checks that read them."""
    if max_n <= asymptotics.DEFAULT_BURN_IN:
        return None
    table = _table(spec, max_n)
    return _once(("ratio", spec),
                 lambda: asymptotics.ratio_series(table)[asymptotics.DEFAULT_BURN_IN - 1:])


@_check("extension-ratio-band")
def _check_ratio_band(max_n: int) -> tuple:
    params = f"64<=X<={max_n}, band [1/3-0.02, 1+0.02]"
    ratios = _ratio_window(THREE_ADIC_EXTENSION, max_n)
    if ratios is None:
        return True, params, _VACUOUS
    low, high = asymptotics.RATIO_BAND
    for X, ratio in enumerate(ratios, start=asymptotics.DEFAULT_BURN_IN):
        if not low <= ratio <= high:
            return False, params, f"ratio {float(ratio):.6f} at X={X}"
    observed = f"[{float(min(ratios)):.6f}, {float(max(ratios)):.6f}]"
    return True, params, f"observed {observed}"


@_check("ratio-cluster-report")
def _check_ratio_clusters(max_n: int) -> tuple:
    params = f"64<=X<={max_n}"
    ratios = _ratio_window(THREE_ADIC_EXTENSION, max_n)
    _drop(("ratio", THREE_ADIC_EXTENSION))  # the last reader: free the ratios
    if ratios is None:
        return True, params, _VACUOUS
    clusters = asymptotics.cluster_ratios(ratios)
    summary = "; ".join(f"{mean:.4f} x{count}" for mean, count in clusters[:8])
    if len(clusters) > 8:
        summary += f"; ... ({len(clusters)} clusters total)"
    return True, params, f"report only: {summary}"


@_check("doubling-ratio-limit")
def _check_doubling_ratio(max_n: int) -> tuple:
    params = f"64<=X<={max_n}, |ratio-1| < 0.02"
    ratios = _ratio_window(CIRCLE_DOUBLING, max_n)
    _drop(("ratio", CIRCLE_DOUBLING))  # read by this check only
    if ratios is None:
        return True, params, _VACUOUS
    worst = max(abs(ratio - 1) for ratio in ratios)
    ok = worst < asymptotics.RATIO_BAND_TOLERANCE
    return ok, params, f"max |ratio-1| = {float(worst):.6f}"


def _merten_window(spec, max_n: int):
    """(X, sum, ln X) for 16 <= X <= max_n, each exact; one ``run_checks``
    call builds the ln X table once for both Merten checks."""
    bits = asymptotics.MERTEN_PRECISION_BITS
    logs = _once("logs", lambda: asymptotics.log_table(max_n, bits))
    sums = asymptotics.merten_series(_table(spec, max_n))
    return zip(range(16, max_n + 1), sums[15:], logs[15:], strict=True)


@_check("merten-sandwich")
def _check_merten_sandwich(max_n: int) -> tuple:
    params = f"16<=X<={max_n}, 0.5*ln X - 2 <= sum <= ln X + 2"
    if max_n < 16:
        return True, params, _VACUOUS
    slack = asymptotics.MERTEN_SLACK
    neg_slack = -slack
    lowest = highest = None
    for X, total, log_x in _merten_window(THREE_ADIC_EXTENSION, max_n):
        dev_full = total - log_x
        dev_half = total - Dyadic(log_x.numerator, log_x.shift + 1)  # sum - ln X / 2
        if dev_half < neg_slack or dev_full > slack:
            return False, params, f"fails at X={X}"
        if lowest is None or dev_half < lowest:
            lowest = dev_half
        if highest is None or dev_full > highest:
            highest = dev_full
    return True, params, (
        f"observed sum-0.5lnX >= {float(lowest):.4f}, "
        f"sum-lnX <= {float(highest):.4f}"
    )


@_check("merten-doubling-baseline")
def _check_merten_doubling(max_n: int) -> tuple:
    params = f"16<=X<={max_n}, |sum - ln X| <= 2"
    if max_n < 16:
        return True, params, _VACUOUS
    window = _merten_window(CIRCLE_DOUBLING, max_n)
    _drop("logs")  # the last reader: free ln X before later checks
    worst = Dyadic(0, 0)
    for X, total, log_x in window:
        deviation = abs(total - log_x)
        if deviation > worst:
            worst = deviation
        if deviation > asymptotics.MERTEN_SLACK:
            return False, params, f"X={X}"
    return True, params, f"empirical constant: max |sum - ln X| = {float(worst):.4f}"


@_check("delta-gap-bound")
def _check_delta_gap(max_n: int) -> tuple:
    params = f"X<={max_n}; rescaled band [0.3, 1.5] for even X>=64"
    tf = _table(THREE_ADIC_EXTENSION, max_n)
    tg = _table(CIRCLE_DOUBLING, max_n)
    gaps = asymptotics.delta_gap(tf, tg)
    low, high = Fraction(3, 10), Fraction(3, 2)
    for X, (gap, even_bound) in enumerate(gaps, start=1):
        if gap > even_bound:
            return False, params, f"gap {gap} > bound {even_bound} at X={X}"
        if X >= 64 and X % 2 == 0:
            scaled = Dyadic(even_bound * (X // 2), X)  # X even: 2**X = 4**(X // 2)
            if not low <= scaled <= high:
                return False, params, f"rescaled bound {float(scaled):.4f} at X={X}"
    return True, params


@_check("zeta-two-routes")
def _check_zeta_oracle(max_n: int) -> tuple:
    degree = min(max_n, 400)
    params = f"degree {degree}, maps f and g"
    table_f = _table(THREE_ADIC_EXTENSION, max_n)
    if zeta_series(THREE_ADIC_EXTENSION, degree) != orbit_product_series(table_f, degree):
        return False, params, "f series differ"
    series_g = zeta_series(CIRCLE_DOUBLING, degree)
    if series_g != orbit_product_series(_table(CIRCLE_DOUBLING, max_n), degree):
        return False, params, "g series differ"
    for n in range(degree + 1):
        expected = 1 if n == 0 else 1 << (n - 1)
        if series_g[n] != expected:
            return False, params, f"g closed form fails at degree {n}"
    return True, params


@_check("xi1-identity")
def _check_xi1_identity(max_n: int) -> tuple:
    degree = min(max_n, 500)
    params = f"degree {degree}"
    if degree < 2:
        return True, params, _VACUOUS
    return xi1_direct(degree) == xi1_closed_form(degree), params


@_check("exponent-decomposition")
def _check_decomposition(max_n: int) -> tuple:
    degree = min(max_n, 400)
    params = f"degree {degree}"
    if degree < 2:
        return True, params, _VACUOUS
    return xi_series(THREE_ADIC_EXTENSION, degree) == xi_from_closed_parts(degree), params


@_check("coefficient-growth")
def _check_coefficient_growth(max_n: int) -> tuple:
    top = min(max_n, 400)
    params = f"200<=n<={top}, |log2(c_n)/n - 1| <= 0.05"
    if top < 200:
        return True, params, _VACUOUS
    coeffs = zeta_series(THREE_ADIC_EXTENSION, top)
    for n in range(200, top + 1):
        rate = math.log2(coeffs[n]) / n
        if abs(rate - 1.0) > 0.05:
            return False, params, f"rate {rate:.4f} at n={n}"
    return True, params


@_check("fix-ratio-witnesses")
def _check_fix_ratio_witnesses(max_n: int) -> tuple:
    top = min(max_n, 200)
    params = f"n<={top}, witnesses > 2.2 and < 1.0"
    if top < 6:
        return True, params, _VACUOUS
    fix = list(fix_counts(THREE_ADIC_EXTENSION, top))
    above = below = None
    for n in range(1, top):
        if above is None and 5 * fix[n] > 11 * fix[n - 1]:  # fix[n]/fix[n-1] > 11/5
            above = n
        if below is None and fix[n] < fix[n - 1]:
            below = n
    ok = above is not None and below is not None
    detail = f"ratio > 2.2 at n={above}, ratio < 1 at n={below}" if ok else "missing witness"
    return ok, params, detail


@_check("custom-counterexample")
def _check_custom_example(max_n: int) -> tuple:
    top = min(max_n, 100)
    params = f"n<={top}"
    if top < 2:
        return True, params, _VACUOUS
    spec_a, spec_b = custom_orbits((1, 3)), custom_orbits((6, 1))
    fix_a, fix_b = list(fix_counts(spec_a, top)), list(fix_counts(spec_b, top))
    for n in range(1, top + 1):
        expected_a = 4 + 3 * (-1) ** n
        expected_b = 7 + (-1) ** n
        if fix_a[n - 1] != expected_a:
            return False, params, f"a at n={n}"
        if fix_b[n - 1] != expected_b:
            return False, params, f"b at n={n}"
        if expected_a >= expected_b:
            return False, params, f"fix dominance at n={n}"
    ok = build_table(spec_a, top).orbit_counts[1] > build_table(spec_b, top).orbit_counts[1]
    return ok, params, "" if ok else "orbit counts unexpectedly dominated"


@_check("boundary-zeros")
def _check_boundary_zeros(max_n: int) -> tuple:
    params = "(j, r) in ((1,1), (1,2), (2,2)), terms 4"
    for j, r in ((1, 1), (1, 2), (2, 2)):
        point = BoundaryPoint(Fraction(1, 2), Fraction(j, 3**r))
        value = modulus_product(point, 4)
        if value != 0.0:
            return False, params, f"nonzero {value} at j={j}, r={r}"
    return True, params


@_check("boundary-decrease")
def _check_boundary_decrease(max_n: int) -> tuple:
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
def _check_interior_agreement(max_n: int) -> tuple:
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
    """Run the full invariant suite with windows scaled to ``max_n``."""
    if max_n < 1:
        raise ValueError(f"verification max must be >= 1, got {max_n}")
    token = _SHARED.set({})  # f's and g's tables are built once per call and not kept
    try:
        return [check(max_n) for check in CHECKS.values()]
    finally:
        _SHARED.reset(token)
