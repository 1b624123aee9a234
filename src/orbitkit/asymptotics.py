"""Aggregate orbit statistics over a growing length cutoff X.

pi(X) counts all closed orbits of length at most X; ``ratio_series``
yields the normalized ratio X*pi(X)/2**(X+1) for every X.  For the
doubling map pi(X) grows like 2**(X+1)/X, so the ratio tends to 1; for the
3-adic extension it only oscillates inside [1/3, 1].  ``delta_gap`` yields
the gap pi_g(X) - pi_f(X) for every X in the range of its two tables, with
the even-length orbit count that bounds it, in one running-sum pass.
``merten_series`` yields the weighted sums sum_{n<=X} orbits(n)/2**n, which
track ln X for the doubling map and sit between (1/2) ln X and ln X for the
extension.  The ratio and the Merten sums read a map's orbit counts, from
any iterable, to its end, and the gap reads two tables to their end.  The
three series are iterators, each value computed as it is read: a reader
that skips small X slices the iterator, and one that reads the values twice
calls the series again.  Each refuses bad input with ValueError at the
call, before it reads a count: the ratio and the Merten sums normalise by
2**X, so they refuse a map whose entropy is not log 2 (iterates and custom
orbit data), and the gap refuses unequal ranges.

The ratios and the sums are exact rationals with a power-of-two
denominator, so they are carried as ``Dyadic`` values: an integer
numerator over an implicit 2**shift, never reduced.  The Merten numerator
N_X over 2**X grows by N_X = 2*N_{X-1} + orbits(X), the ratio's numerator
is X*pi(X) over 2**(X+1), and two of them compare by shifting one
numerator, so no step pays for a gcd.  The readers compute what they show:
``pnt`` tracks the running extrema of the ratio as it renders, and
``verify`` tracks the min and max of its window as it reads it.
``cluster_ratios`` groups ratios given as floats.

The one real is ln X.  ``log_table`` rounds it, for X = 1..n, to a
``Dyadic`` from integer bounds on it, and ``merten_normalized`` rounds
sum/ln X; ``merten`` and ``verify`` each build one ln X table per run.  The
bounds come from an atanh series only at primes; a composite X adds the
bounds of its least prime factor q and of X/q, and their errors add too.
Rounding over a power-of-two denominator, as of the sums and of ln X, is a
shift and a mask.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator

from .arith import Dyadic, ExactnessError, least_prime_factors
from .counting import MapSpec, OrbitTable

__all__ = [
    "ratio_series",
    "delta_gap",
    "merten_series",
    "log_table",
    "merten_normalized",
    "cluster_ratios",
    "MERTEN_PRECISION_BITS",
    "DEFAULT_BURN_IN",
    "RATIO_BAND_TOLERANCE",
    "RATIO_BAND",
    "MERTEN_SLACK",
]

# Acceptance-band constants.  These are artifact-level tolerances for
# finite-X effects, not values taken from any asymptotic statement; they are
# defined once here and reported in CLI output metadata.
RATIO_BAND_TOLERANCE = Fraction(2, 100)
# The extension's ratio band [1/3, 1], widened by the tolerance on each side.
RATIO_BAND = (Fraction(1, 3) - RATIO_BAND_TOLERANCE, 1 + RATIO_BAND_TOLERANCE)
MERTEN_SLACK = Fraction(2)

# The significant bits to which ln X and sum/ln X are rounded.
MERTEN_PRECISION_BITS = 64
# Guard bits beyond the precision at which log_table first sums ln X.
_GUARD_BITS = 32
DEFAULT_BURN_IN = 64


def _require_entropy_log2(spec: MapSpec, function: str) -> None:
    if spec.entropy_base != 2:
        raise ValueError(f"{function} normalises by 2**X, which fits only maps of "
                         f"entropy log 2 (f, g), got {spec.label}")


def ratio_series(spec: MapSpec, orbit_counts: Iterable[int]) -> Iterator[Dyadic]:
    """The exact ratio X*pi(X)/2**(X+1), one per orbit count of the map, as
    an iterator of ``Dyadic``s computed as they are read; pi(X) is
    ``ratio.numerator // X``.  A map whose entropy is not log 2 raises
    ValueError at the call, before any count is read."""
    _require_entropy_log2(spec, "ratio_series")
    return _ratios(orbit_counts)


def _ratios(orbit_counts) -> Iterator[Dyadic]:
    running = 0
    for X, orbits in enumerate(orbit_counts, start=1):
        running += orbits
        yield Dyadic(X * running, X + 1)


def delta_gap(table_f: OrbitTable, table_g: OrbitTable) -> Iterator[tuple[int, int]]:
    """Orbit-count gaps pi_g(X) - pi_f(X) with their even-length upper bounds.

    Yields one ``(gap, even_bound)`` pair per X = 1..n_max, as it is read;
    ``even_bound`` sums the second table's orbit counts over even n <= X.
    Tables of unequal ranges raise ValueError at the call.  The gap is
    guaranteed non-negative when the first map's orbit counts are dominated
    by the second's (true for the 3-adic extension vs. the doubling map); a
    negative gap is reported as a defect.  gap <= even_bound additionally
    requires the odd-length counts to agree, as they do for that pair.
    """
    if table_f.n_max != table_g.n_max:
        raise ValueError(f"delta_gap needs equal ranges, got {table_f.n_max} and {table_g.n_max}")
    return _gaps(table_f.orbit_counts, table_g.orbit_counts)


def _gaps(orbits_f, orbits_g) -> Iterator[tuple[int, int]]:
    gap = even_bound = 0
    for X, (orbit_f, orbit_g) in enumerate(zip(orbits_f, orbits_g), start=1):
        gap += orbit_g - orbit_f
        if gap < 0:
            raise ExactnessError(f"negative orbit-count gap {gap} at X={X}")
        if X % 2 == 0:
            even_bound += orbit_g
        yield gap, even_bound


def merten_series(spec: MapSpec, orbit_counts: Iterable[int]) -> Iterator[Dyadic]:
    """The exact weighted partial sums N_X/2**X, one per orbit count of a map
    of entropy log 2, as an iterator of ``Dyadic``s computed as they are
    read; any other map raises ValueError at the call, before any count."""
    _require_entropy_log2(spec, "merten_series")
    return _merten_sums(orbit_counts)


def _merten_sums(orbit_counts) -> Iterator[Dyadic]:
    numerator = 0
    for X, orbits in enumerate(orbit_counts, start=1):
        numerator = 2 * numerator + orbits
        yield Dyadic(numerator, X)


def merten_normalized(total: Dyadic, log_x: Dyadic) -> Dyadic:
    """sum/ln X: the sum rounded to ``MERTEN_PRECISION_BITS`` bits, then the
    quotient, each to nearest, ties to even.  ln X must be positive (X >= 2)."""
    if not log_x.numerator:
        raise ValueError("sum/ln X needs ln X > 0, that is X >= 2")
    bits = MERTEN_PRECISION_BITS
    total = _round(total.numerator, 1 << total.shift, bits)
    return _round(total.numerator << log_x.shift, log_x.numerator << total.shift, bits)


def log_table(n: int, bits: int) -> list[Dyadic]:
    """ln X for X = 1..n, each correctly rounded to ``bits`` significant bits."""
    least = least_prime_factors(n)
    guard = _GUARD_BITS
    while True:
        width, lows, errors, logs = bits + guard, [0, 0], [0, 0], [Dyadic(0, 0)]
        unit = 1 << width
        for X in range(2, n + 1):
            q = least[X]
            if q < X:
                # ln X = ln q + ln(X/q): the lower ends add, and so do the errors.
                low, error = lows[q] + lows[X // q], errors[q] + errors[X // q]
            else:
                # A prime X: ln X = ln(X-1) + 2 atanh(1/m) for m = 2X - 1, and
                # atanh(1/m) sums 1/((2k+1) m**(2k+1)) over k >= 0.  In units of
                # 2**-width, p = floor(2**width / m**(2k+1)) (a floor of a floor
                # is the floor of the whole quotient), so floor(p/(2k+1)) is short
                # of its term by < 1.  The sum stops at p = 0, where
                # m**(2k+1) > 2**width, so the terms left out add up to less than
                # sum_j m**(-2j) <= 9/8.  With K terms, 2s is short by less than
                # 2K + 9/4: low <= 2**width * ln X < low + error.
                m = 2 * X - 1
                p, s, terms = unit // m, 0, 0
                while p:
                    s += p // (2 * terms + 1)
                    p //= m * m
                    terms += 1
                low, error = lows[X - 1] + 2 * s, errors[X - 1] + 2 * terms + 3
            lows.append(low)
            errors.append(error)
            # Rounding is monotone: if both ends round alike, so does ln X; if
            # not, the whole table is summed again with twice the guard bits.
            log_x = _round(low, unit, bits)
            if _round(low + error, unit, bits) != log_x:
                break
            logs.append(log_x)
        else:
            return logs
        guard *= 2


def _round(num: int, den: int, bits: int) -> Dyadic:
    """num/den >= 0 rounded to ``bits`` significant bits, ties to even."""
    if num and not den & (den - 1):  # den = 2**k: a shift and a mask, no division
        drop = num.bit_length() - bits  # the low bits of num that are not kept
        shift = den.bit_length() - 1 - drop
        if drop <= 0:
            q, r, den = num << -drop, 0, 1
        else:
            q, r, den = num >> drop, num & ((1 << drop) - 1), 1 << drop
    else:
        # num/den lies in (2**(e-1), 2**(e+1)) for e = the difference of the bit
        # lengths, so at this shift the quotient has bits or bits + 1 bits.
        shift = bits - num.bit_length() + den.bit_length()
        den <<= max(-shift, 0)
        q, r = divmod(num << max(shift, 0), den)
        if q >> bits:  # one bit too many: move the last into the remainder
            q, r, den, shift = q >> 1, r + (q & 1) * den, 2 * den, shift - 1
    if 2 * r + (q & 1) > den:  # to nearest; a tie, 2r = den, goes to the even q
        q += 1
    return Dyadic(q, shift) if shift >= 0 else Dyadic(q << -shift, 0)


_CLUSTER_GAP = 0.01


def cluster_ratios(values: "list[float]") -> list[tuple[float, int]]:
    """Group ratio values, as floats, into clusters separated by more than
    ``_CLUSTER_GAP``.

    Returns (cluster mean, member count) pairs in ascending order.  This is
    a qualitative report: the ratio sequence appears to have several
    accumulation values, but no pass/fail criterion is attached to their
    number.
    """
    floats = sorted(values)
    clusters: list[tuple[float, int]] = []
    start = 0
    for i in range(1, len(floats) + 1):
        if i == len(floats) or floats[i] - floats[i - 1] > _CLUSTER_GAP:
            members = floats[start:i]
            clusters.append((sum(members) / len(members), len(members)))
            start = i
    return clusters
