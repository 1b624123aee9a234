"""Periodic-point and closed-orbit counts.

Three sequences describe the orbit structure of a map T: the number of
points fixed by T^n (``fix``), the number of points whose least period is
exactly n (``least``), and the number of closed orbits of length n
(``orbits``).  They determine each other through

    fix(n)   = sum of least(d) over divisors d of n,
    least(n) = n * orbits(n),

with the first relation inverted by a sieve or by Möbius.  So only one
of them is independent: ``fix_counts`` computes fix, a table keeps the
orbits alone, and least is n * orbits.  A map is a base kind and a power.
The base is the circle-doubling map (fix(n) = 2**n - 1), its 3-adic
isometric extension (fix(n) = (2**n - 1) * |2**n - 1|_3, an exact
integer) or user-supplied orbit-count data; the p-th iterate T^p reads its
base at n*p, since fix(T^p, n) = fix(T, n*p).  A table is a plain value:
``build_table`` keeps nothing between calls.

The counts of a table are ints: the asymptotics and verify compute with
them.  The same routines also build them as ``decimal.Decimal`` integers,
whose decimal strings take time linear in their digits (``str`` of an int
takes quadratic time), so the CLI renders its big columns from that twin.
``fix_counts`` and ``orbit_counts`` give the fix and the orbit counts as
streams: one count at a time, so a single pass never holds the list.  The
``table`` command's fix column, the inner zeta sum, the boundary scan and
``verify`` read the fix stream once; ``pnt`` and ``merten`` compute their
series from the int orbit stream and render from the Decimal one.
Readers that index the counts list them:
``build_table``'s sieve and the convolution of custom orbit data in the
zeta series.  The sieve and the orbit stream share one last step, ``_orbit``,
with its checks, and the two streams one argument check and exact arithmetic.

Every closed-form map also has a term form (``fix_terms``): its fix counts
are a short sum of gated geometric terms,

    fix(n) = (1/den) * sum of w * 2**(s*n/m) * [m | n] over terms (w, s, m),

valid for n up to a given bound.  The zeta recurrence runs on this form.
``fix_count`` computes one fix count on its own, by a closed form or a
divisor sum: the reference that the tables and the term form are tested
against.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from decimal import Decimal, localcontext
from functools import reduce
from math import gcd
from typing import Iterator, Sequence

from .arith import EXACT_DECIMAL, ExactnessError, divisors, least_prime_factors, mobius, ord_p

__all__ = [
    "MapSpec",
    "OrbitTable",
    "CIRCLE_DOUBLING",
    "THREE_ADIC_EXTENSION",
    "iterate",
    "custom_orbits",
    "padic_factor",
    "fix_count",
    "fix_counts",
    "fix_terms",
    "build_table",
    "orbit_counts",
    "orbit_count_iterate",
    "iterate_square_identity",
]

_DOUBLING = "circle-doubling"
_EXTENSION = "3-adic-extension"
_CUSTOM = "custom"


class MapSpec(namedtuple("MapSpec", ("kind", "power", "counts"))):
    """Which dynamical system a computation refers to: the ``power``-th
    iterate of the base map ``kind``.

    ``kind`` is circle-doubling, 3-adic-extension or custom; ``counts``
    holds the orbit counts of a custom base map (the sequence is
    zero-extended past its end).  A power or a count that is not an
    integer (2.0, 2.5, "2") raises TypeError here, not a later error.
    """

    __slots__ = ()

    def __new__(cls, kind: str, power: int = 1, counts: Sequence[int] = ()) -> "MapSpec":
        if kind not in (_DOUBLING, _EXTENSION, _CUSTOM):
            raise ValueError(f"unknown map kind {kind!r}")
        power, counts = operator.index(power), tuple(map(operator.index, counts))
        if power < 1:
            raise ValueError(f"iterate power must be >= 1, got {power}")
        if any(c < 0 for c in counts):
            raise ValueError("custom orbit counts must be non-negative")
        return super().__new__(cls, kind, power, counts)

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
    return MapSpec(spec.kind, spec.power * k, spec.counts)


def custom_orbits(counts: Sequence[int]) -> MapSpec:
    """A system prescribed by its orbit counts (orbits(n) = counts[n-1])."""
    return MapSpec(_CUSTOM, counts=tuple(counts))


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
    # Custom data: the sum of d * orbits(d) over the divisors d of n, with
    # orbits(d) = counts[d-1] (zero past the end of the data).
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


class OrbitTable:
    """Orbit counts for one map, for n = 1..``n_max``.

    The tuple is indexed from 0 for n = 1.  Fix counts come from
    ``fix_counts`` and least-period counts are n * orbits(n): a table keeps
    neither.  ``n_max`` is the length of the orbit counts, the one
    statement of the table's range: the computations on a table run to its
    end.  A built table is not changed after it is built and is safe to
    share.  The counts are ints, or ``Decimal`` integers in a table built
    for rendering (see ``build_table``).
    """

    __slots__ = ("spec", "orbit_counts", "__weakref__")

    def __init__(self, spec: MapSpec, orbit_counts: "tuple[int, ...] | tuple[Decimal, ...]"):
        self.spec = spec
        self.orbit_counts = orbit_counts

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.spec, self.orbit_counts) == (other.spec, other.orbit_counts)

    def __hash__(self) -> int:
        return hash((self.spec, self.orbit_counts))

    @property
    def n_max(self) -> int:
        return len(self.orbit_counts)


def build_table(spec: MapSpec, n_max: int, number: type = int) -> OrbitTable:
    """Compute orbit counts for n = 1..n_max, as a fresh table whose counts
    are ``number`` values: int, or ``Decimal`` for rendering.

    One sieve pass inverts the divisor sum in place, on the list of fix
    counts that ``fix_counts`` streams: the count at m starts at fix(m),
    and once least(n) is final it is subtracted at every multiple m of n
    and replaced by orbits(n), its exact division by n.  That list is the
    one list of counts the build holds.  Decimal arithmetic runs in
    ``EXACT_DECIMAL``, so it rounds nothing.
    """
    if n_max < 1:
        raise ValueError(f"build_table requires n_max >= 1, got {n_max}")
    counts = list(fix_counts(spec, n_max, number))  # least(n) until n's turn, then orbits(n)
    with localcontext(EXACT_DECIMAL):
        for n in range(1, n_max + 1):
            count = counts[n - 1]  # final: every proper divisor of n is below n
            counts[n - 1] = _orbit(n, count, divmod)
            for i in range(2 * n - 1, n_max, n):
                counts[i] -= count
    return OrbitTable(spec=spec, orbit_counts=tuple(counts))


def _orbit(n: int, count, div):
    """orbits(n) from the final least-period count at n, by the exact
    ``div``: the last step of the sieve and the stream, with their checks."""
    if count < 0:
        raise ExactnessError(f"negative least-period count {count} at n={n}")
    orbit, remainder = div(count, n)
    if remainder:
        raise ExactnessError(f"{n} does not divide least-period count {count}")
    return orbit


def _exact_ops(counts: str, n_max: int, number: type):
    """Check the ``counts`` stream's arguments at its call and return the
    exact add, sub, mul and divmod of ``number``: the operators for int, or
    the methods of a private copy of ``EXACT_DECIMAL``, exact in any context."""
    if n_max < 0:
        raise ValueError(f"{counts}_counts requires n_max >= 0, got {n_max}")
    if number is int:
        return operator.add, operator.sub, operator.mul, divmod
    if number is not Decimal:
        raise ValueError(f"{counts} counts are int or Decimal, got {number!r}")
    exact = EXACT_DECIMAL.copy()
    return exact.add, exact.subtract, exact.multiply, exact.divmod


def fix_counts(spec: MapSpec, n_max: int, number: type = int) -> Iterator:
    """fix(n) for n = 1..n_max as a stream of ``number`` integers, int or
    ``Decimal``; n_max = 0 gives an empty stream.  A bad ``n_max`` or
    ``number`` raises ValueError here, at the call, not at the first value.

    Each value is read once and then dropped, so a single pass holds one
    count at a time; a reader that indexes the counts or reads them twice
    lists them first.  Decimals are exact in any caller's context, by the
    ops of ``_exact_ops`` or, for custom data, in a plain function that
    leaves ``EXACT_DECIMAL`` before the first value: a generator suspended
    in ``localcontext`` would leave the caller's context switched.

    2**(n*p) comes from its predecessor by one multiplication by 2**p, and
    the extension's count is 2**(n*p) - 1 divided exactly by
    3**padic_factor(n*p): each step is linear in the digits.  Custom data
    is the exception: its counts are the input, converted once, count by
    count, for d <= n_max*p, and a sieve over one list adds d * orbits(d)
    at every n with d | n*p, that is at every multiple of d/gcd(d, p).
    ``fix_count`` is the per-n reference these values are tested against.
    """
    return _fix_stream(spec, n_max, number, _exact_ops("fix", n_max, number))


def _fix_stream(spec: MapSpec, n_max: int, number: type, ops) -> Iterator:
    """The generator behind ``fix_counts``, which checks its arguments."""
    _, sub, mul, div = ops
    p = spec.power
    if spec.kind == _CUSTOM:
        yield from _custom_fix(spec.counts[:n_max * p], p, n_max, number)
        return
    step, power = number(1 << p), number(1)
    for n in range(p, n_max * p + 1, p):
        power = mul(power, step)
        count = sub(power, 1)
        if spec.kind == _EXTENSION:
            valuation = padic_factor(n)
            count, remainder = div(count, 3**valuation)
            if remainder:
                raise ExactnessError(f"3**{valuation} does not divide 2**{n} - 1")
        yield count


def _custom_fix(counts: tuple, p: int, n_max: int, number: type) -> list:
    """Custom data's fix counts, summed in ``EXACT_DECIMAL`` by ``+=``."""
    fix = [number(0)] * n_max
    with localcontext(EXACT_DECIMAL):
        for d, count in enumerate(counts, start=1):
            if count:
                weighted, step = d * number(count), d // gcd(d, p)
                for i in range(step - 1, n_max, step):
                    fix[i] += weighted
    return fix


def orbit_counts(spec: MapSpec, n_max: int, number: type = int) -> Iterator:
    """orbits(n) for n = 1..n_max as a stream of ``number`` integers, int or
    ``Decimal``: ``build_table(spec, n_max, number).orbit_counts`` one count
    at a time.  n_max = 0 gives an empty stream; a bad ``n_max`` or
    ``number`` raises ValueError here, at the call, not at the first value.

    least(n) is the Möbius sum of mu(q) * fix(n/q) over the squarefree q | n,
    the terms of q > 1 (n/2 bits at most) first.  Each fix(d) with
    d <= n_max/2 is kept as it passes and never replaced, so no sum grows in
    place and fragments the heap.  Decimals are computed with the ops of
    ``_exact_ops``, as in ``fix_counts``, in no switched context.
    """
    return _orbit_stream(spec, n_max, number, _exact_ops("orbit", n_max, number))


def _orbit_stream(spec: MapSpec, n_max: int, number: type, ops) -> Iterator:
    """The generator behind ``orbit_counts``, which checks its arguments."""
    add, sub, _, div = ops
    least, fix = least_prime_factors(n_max), [None]  # fix[d] for d <= n_max // 2
    for n, count in enumerate(fix_counts(spec, n_max, number), start=1):
        if 2 * n <= n_max:
            fix.append(count)
        if n > 1:
            # least(n) = fix(n) - below, and p < r < s ... are n's distinct primes.
            p = least[n]
            a = m = n // p
            while m % p == 0:
                m //= p
            below = fix[a]
            if m > 1:
                r = least[m]
                while m % r == 0:
                    m //= r
                b, ar = n // r, a // r
                if m == 1:
                    below = sub(add(below, fix[b]), fix[ar])
                else:
                    s = least[m]
                    while m % s == 0:
                        m //= s
                    if m == 1:
                        below = sub(add(add(below, fix[b]), add(fix[n // s], fix[ar // s])),
                                    add(add(fix[ar], fix[a // s]), fix[b // s]))
                    else:  # four or more primes: 9% of n <= 10**4
                        plus, minus = [a, b, n // s, ar // s], [ar, a // s, b // s]
                        while m > 1:
                            t = least[m]
                            while m % t == 0:
                                m //= t
                            plus, minus = (plus + [n // t] + [d // t for d in minus],
                                           minus + [d // t for d in plus])
                        below = sub(reduce(add, [fix[d] for d in plus]),
                                    reduce(add, [fix[d] for d in minus]))
            count = sub(count, below)
        yield _orbit(n, count, div)


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
