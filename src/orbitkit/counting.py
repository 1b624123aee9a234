"""Periodic-point and closed-orbit counts.

Three sequences describe the orbit structure of a map T: the number of
points fixed by T^n (``fix``), the number of points whose least period is
exactly n (``least``), and the number of closed orbits of length n
(``orbits``).  They determine each other through

    fix(n)   = sum of least(d) over divisors d of n,
    least(n) = n * orbits(n),

with the first relation inverted by a sieve over multiples.  So only two
of them are independent: a table keeps fix and orbits, and reads least as
n * orbits.  A map is a base kind and a power.  The base is the
circle-doubling map (fix(n) = 2**n - 1), its 3-adic isometric extension
(fix(n) = (2**n - 1) * |2**n - 1|_3, an exact integer) or user-supplied
orbit-count data; the p-th iterate T^p reads its base at n*p, since
fix(T^p, n) = fix(T, n*p).  A table is a plain value: ``build_table``
keeps nothing between calls.

Every closed-form map also has a term form (``fix_terms``): its fix counts
are a short sum of gated geometric terms,

    fix(n) = (1/den) * sum of w * 2**(s*n/m) * [m | n] over terms (w, s, m),

valid for n up to a given bound.  The zeta recurrence runs on this form;
``fix_count`` stays the independent value it is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import gcd
from typing import Iterator, Sequence

from .arith import ExactnessError, divisors, mobius, ord_p

__all__ = [
    "MapSpec",
    "OrbitTable",
    "CIRCLE_DOUBLING",
    "THREE_ADIC_EXTENSION",
    "iterate",
    "custom_orbits",
    "padic_factor",
    "fix_count",
    "fix_terms",
    "build_table",
    "orbit_count_iterate",
    "iterate_square_identity",
]

_DOUBLING = "circle-doubling"
_EXTENSION = "3-adic-extension"
_CUSTOM = "custom"


@dataclass(frozen=True)
class MapSpec:
    """Which dynamical system a computation refers to: the ``power``-th
    iterate of the base map ``kind``.

    ``kind`` is circle-doubling, 3-adic-extension or custom; ``counts``
    holds the orbit counts of a custom base map (the sequence is
    zero-extended past its end).
    """

    kind: str
    power: int = 1
    counts: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.kind not in (_DOUBLING, _EXTENSION, _CUSTOM):
            raise ValueError(f"unknown map kind {self.kind!r}")
        if self.power < 1:
            raise ValueError(f"iterate power must be >= 1, got {self.power}")
        if any(c < 0 for c in self.counts):
            raise ValueError("custom orbit counts must be non-negative")

    @property
    def entropy_base(self) -> int | None:
        """Integer b with topological entropy log(b), when known.

        Both the doubling map and its 3-adic extension have entropy log 2;
        the p-th iterate multiplies entropy by p.  Custom orbit data carries
        no entropy information.
        """
        if self.kind == _CUSTOM:
            return None
        return 2**self.power

    @property
    def label(self) -> str:
        base = f"custom[{len(self.counts)}]" if self.kind == _CUSTOM else self.kind
        return base if self.power == 1 else f"{base}^{self.power}"


CIRCLE_DOUBLING = MapSpec(_DOUBLING)
THREE_ADIC_EXTENSION = MapSpec(_EXTENSION)


def iterate(spec: MapSpec, k: int) -> MapSpec:
    """The k-th iterate of ``spec``: the same base map at ``k`` times its
    power, so iterates compose (k = 1 returns ``spec`` itself)."""
    if k == 1:
        return spec
    return replace(spec, power=spec.power * k)


def custom_orbits(counts: Sequence[int]) -> MapSpec:
    """A system prescribed by its orbit counts (orbits(n) = counts[n-1])."""
    return MapSpec(_CUSTOM, counts=tuple(int(c) for c in counts))


def padic_factor(n: int) -> int:
    """Closed form for ord_3(2**n - 1), so |2**n - 1|_3 = 3**(-padic_factor(n)).

    Expanding 2**n = (3 - 1)**n shows the value is 0 for odd n and
    1 + ord_3(n) for even n.  ``ord_p`` on the full integer 2**n - 1 is the
    brute-force check for this.
    """
    if n < 1:
        raise ValueError(f"padic_factor requires n >= 1, got {n}")
    if n % 2 == 1:
        return 0
    return 1 + ord_p(n, 3)


def fix_count(spec: MapSpec, n: int) -> int:
    """Number of points fixed by the n-th iterate of the given map.

    The map's own power multiplies n once; the base kind then decides.
    Exact integer arithmetic throughout: for the 3-adic extension the
    power of 3 is divided out of 2**n - 1, never multiplied in as a float.
    """
    if n < 1:
        raise ValueError(f"fix_count requires n >= 1, got {n}")
    n *= spec.power
    if spec.kind == _DOUBLING:
        return (1 << n) - 1
    if spec.kind == _EXTENSION:
        mersenne = (1 << n) - 1
        valuation = padic_factor(n)
        quotient, remainder = divmod(mersenne, 3**valuation)
        if remainder:
            raise ExactnessError(f"3**{valuation} does not divide 2**{n} - 1")
        return quotient
    # custom: fix(n) = sum of d * orbits(d) over divisors d of n
    counts = spec.counts
    return sum(d * counts[d - 1] for d in divisors(n) if d <= len(counts))


def fix_terms(spec: MapSpec, n_max: int) -> tuple[int, tuple[tuple[int, int, int], ...]] | None:
    """The term form ``(den, terms)`` of the fix counts for n <= n_max.

    fix(n) = (1/den) * sum of w * 2**(s*n/m) over the terms (w, s, m) with
    m | n.  The doubling map is 2**n - 1.  For the 3-adic extension the
    factor 3**(-1-ord_3(n)) of even n splits over the levels j = 0..J with
    2*3**j | n, where 2*3**J <= n_max is the deepest level in range.  The
    p-th iterate reads the base form, built for n <= n_max*p, at n*p: each
    term becomes (w, s*p/g, m/g) with g = gcd(m, p), the identity at p = 1.
    Custom orbit data has no closed form: the result is None.
    """
    if n_max < 0:
        raise ValueError(f"fix_terms requires n_max >= 0, got {n_max}")
    if spec.kind == _CUSTOM:
        return None
    p = spec.power
    if spec.kind == _DOUBLING:
        den, terms = 1, [(1, 1, 1), (-1, 0, 1)]
    else:
        depth = 0
        while 2 * 3 ** (depth + 1) <= n_max * p:
            depth += 1
        den = 3 ** (depth + 1)
        terms = [(den, 1, 1), (-den, 0, 1)]
        for j in range(depth + 1):
            m, w = 2 * 3**j, 2 * 3 ** (depth - j)
            terms += [(-w, m, m), (w, 0, m)]
    mapped = []
    for w, s, m in terms:
        g = gcd(m, p)  # m | n*p exactly when m/g | n
        mapped.append((w, s * p // g, m // g))
    return den, tuple(mapped)


@dataclass(frozen=True)
class OrbitTable:
    """Fix and orbit counts for one map, for n = 1..``n_max``.

    Tuples are indexed from 0 for n = 1.  The least-period count is
    n * orbits(n), derived in ``rows``.  ``n_max`` is the length of the fix
    counts, the one statement of the table's range: the computations on a
    table run to its end.  A built table is immutable and safe to share.
    """

    spec: MapSpec
    fix_counts: tuple[int, ...]
    orbit_counts: tuple[int, ...]

    @property
    def n_max(self) -> int:
        return len(self.fix_counts)

    def rows(self) -> Iterator[tuple[int, int, int, int]]:
        """(n, fix, least, orbits) for n = 1..n_max."""
        for n, (fix, orbits) in enumerate(zip(self.fix_counts, self.orbit_counts), start=1):
            yield n, fix, n * orbits, orbits


def build_table(spec: MapSpec, n_max: int) -> OrbitTable:
    """Compute fix and orbit counts for n = 1..n_max, as a fresh table.

    fix comes from ``fix_count``.  least inverts the divisor sum in one
    sieve pass: the count at m starts at fix(m), and once least(n) is final
    it is subtracted at every multiple m of n.  orbits is the exact
    division least(n)/n; the least counts themselves are not kept.
    """
    if n_max < 1:
        raise ValueError(f"build_table requires n_max >= 1, got {n_max}")
    fix = [0] + [fix_count(spec, n) for n in range(1, n_max + 1)]
    least = fix.copy()
    orbits = []
    for n in range(1, n_max + 1):
        count = least[n]  # final: every proper divisor of n is below n
        if count < 0:
            raise ExactnessError(f"negative least-period count {count} at n={n}")
        orbit, remainder = divmod(count, n)
        if remainder:
            raise ExactnessError(f"{n} does not divide least-period count {count}")
        orbits.append(orbit)
        for m in range(2 * n, n_max + 1, n):
            least[m] -= count
    return OrbitTable(spec=spec, fix_counts=tuple(fix[1:]), orbit_counts=tuple(orbits))


def orbit_count_iterate(base: OrbitTable, k: int, n: int) -> int:
    """Orbits of length n of the k-th iterate, from the base map's table.

    Uses the double divisor sum

        orbits_n(T^k) = (1/n) * sum_{d|n} mu(n/d) * sum_{d'|dk} d' * orbits_{d'}(T),

    which needs base entries up to n*k.  This is deliberately a second,
    independent route: building a table for the iterate spec goes through
    fix counts instead, and the two must agree.
    """
    if k < 1:
        raise ValueError(f"iterate power must be >= 1, got {k}")
    if n < 1:
        raise ValueError(f"orbit_count_iterate requires n >= 1, got {n}")
    if n * k > base.n_max:
        raise ValueError(
            f"base table covers 1..{base.n_max}, need {n * k} for n={n}, k={k}"
        )
    total = 0
    for d in divisors(n):
        inner = sum(dp * base.orbit_counts[dp - 1] for dp in divisors(d * k))
        total += mobius(n // d) * inner
    orbit, remainder = divmod(total, n)
    if remainder:
        raise ExactnessError(f"{n} does not divide iterate orbit sum {total}")
    if orbit < 0:
        raise ExactnessError(f"negative iterate orbit count {orbit} at n={n}")
    return orbit


def iterate_square_identity(base: OrbitTable, n: int) -> int:
    """Orbits of length n of the second iterate via the two-case identity.

    orbits_n(T^2) equals 2*orbits_{2n}(T) + orbits_n(T) for odd n and
    2*orbits_{2n}(T) for even n.  Needs base entries up to 2n.
    """
    if n < 1:
        raise ValueError(f"iterate_square_identity requires n >= 1, got {n}")
    if 2 * n > base.n_max:
        raise ValueError(f"base table covers 1..{base.n_max}, need {2 * n}")
    doubled = 2 * base.orbit_counts[2 * n - 1]
    if n % 2 == 1:
        return doubled + base.orbit_counts[n - 1]
    return doubled
