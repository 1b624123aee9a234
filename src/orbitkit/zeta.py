"""Dynamical zeta-function data for a map, read from its fix counts.

For a map with fix counts F_n the zeta function is

    zeta(z) = exp( sum_{n>=1} F_n * z**n / n ),

an integer power series that also equals the product over all closed
orbits of (1 - z**n)**(-orbits(n)).  Both routes are implemented exactly
and independently.  ``zeta_series`` solves z*zeta' = zeta * sum F_n z**n.
For the closed-form maps it reads the term form of the fix counts
(``counting.fix_terms``), F_n = (1/den) * sum_i w_i 2**(s_i*n/m_i) [m_i | n],
so the right side is zeta * (1/den) * sum_i w_i u_i/(1 - u_i) with
u_i = 2**s_i z**m_i.  One running sum per term,

    U_i[n] = (c_{n-m_i} + U_i[n-m_i]) << s_i,   n*den*c_n = sum_i w_i U_i[n],

gives each coefficient in O(T) shifts and adds: O(D*T) big-integer
operations for degree D and T terms, instead of the D**2/2 products of the
convolution n*c_n = sum F_k c_{n-k}.  Custom orbit data has no term form
and keeps that convolution over its fix counts, listed from the stream of
``counting.fix_counts`` because every coefficient reads them again.  The inner
sum (``xi_series``) reads the stream once and holds no list of big counts;
the boundary scan's series reads none (``_scaled_fix_terms``).  Each series
takes the map and the degree it reads, and no orbit table.
``orbit_product_series`` alone takes a table, a map's orbit counts: it
expands the product factor by factor from them, by running sums or binomial
coefficients, and the two routes must agree coefficientwise.
A series truncated at degree D is a plain tuple of coefficients c_0..c_D:
ints for the zeta series, Fractions for the logarithmic ones.

For the 3-adic extension the inner sum splits into elementary logarithms
plus one sixth of the lacunary piece

    xi1(z) = sum_{n>=1} (z**(2n)/n) * (4**n - 1) * |n|_3,

which regroups by 3-adic valuation into a tower of log factors supported
on powers of 3.  ``xi1_direct`` and ``xi1_closed_form`` compute the same
series both ways.  The closed form yields a product expression for
|zeta(z)| whose factors vanish at the points (1/2)e^(2*pi*i*j/3**r), dense
on the circle |z| = 1/2; ``modulus_product`` evaluates it at an exact
polar point (exactly zero at those points) and ``radial_scan`` pairs it
with values of the extension's series truncated at a given degree, along
rays toward the boundary.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from fractions import Fraction
from typing import Sequence

from .arith import ExactnessError, ord_p
from .counting import THREE_ADIC_EXTENSION, MapSpec, fix_counts, fix_terms, padic_factor
from .series import ZERO, log_one_minus

__all__ = [
    "xi_series",
    "zeta_series",
    "orbit_product_series",
    "xi1_direct",
    "xi1_closed_form",
    "xi_from_closed_parts",
    "BoundaryPoint",
    "ScanRow",
    "modulus_product",
    "series_modulus",
    "radial_scan",
]


def _add_scaled(
    a: Sequence[Fraction], weight: "int | Fraction", b: Sequence[Fraction]
) -> tuple[Fraction, ...]:
    """a + weight*b, skipping b's ``ZERO`` entries; a degree mismatch raises ValueError."""
    return tuple(x if y is ZERO else x + weight * y for x, y in zip(a, b, strict=True))


def xi_series(spec: MapSpec, degree: int) -> tuple[Fraction, ...]:
    """The inner sum of the zeta exponential: coefficients F_n/n, a_0 = 0,
    read from the stream of fix counts."""
    fix = fix_counts(spec, degree)
    return (Fraction(0), *(Fraction(count, n) for n, count in enumerate(fix, start=1)))


def zeta_series(spec: MapSpec, degree: int) -> tuple[int, ...]:
    """Exact zeta coefficients c_0..c_degree from n*c_n = sum F_k c_{n-k}.

    Maps with a term form run the per-term running sums of the module
    docstring, O(degree * terms) shifts and adds.  Each sum U_i only needs
    its value m_i steps back, so it keeps a window of its last m_i values.
    Custom orbit data runs the convolution over ``fix_counts(spec, degree)``,
    listed, since each coefficient reads every count below it.
    Every coefficient must come out a non-negative integer (the orbit
    product forces this for genuine orbit data); anything else is a defect.
    """
    form = fix_terms(spec, degree)
    coeffs = [1]
    if form is None:
        fix = list(fix_counts(spec, degree))
        for n in range(1, degree + 1):
            _append_coefficient(coeffs, sum(map(operator.mul, fix[:n], reversed(coeffs))), n)
        return tuple(coeffs)
    den, terms = form
    windows = [[0] * m for _, _, m in terms]
    for n in range(1, degree + 1):
        acc = 0
        for (w, s, m), window in zip(terms, windows):
            if n >= m:
                slot = n % m  # holds U[n - m]
                u = (coeffs[n - m] + window[slot]) << s
                window[slot] = u
                acc += w * u
        _append_coefficient(coeffs, acc, n * den)
    return tuple(coeffs)


def _append_coefficient(coeffs: list[int], scaled: int, divisor: int) -> None:
    """Append c_n = scaled/divisor, where n = len(coeffs), or raise."""
    n = len(coeffs)
    c, remainder = divmod(scaled, divisor)
    if remainder:
        raise ExactnessError(f"zeta coefficient at degree {n} is not an integer")
    if c < 0:
        raise ExactnessError(f"negative zeta coefficient {c} at degree {n}")
    coeffs.append(c)


def orbit_product_series(orbit_counts: Sequence[int], degree: int) -> tuple[int, ...]:
    """Zeta via the orbit product, an independent check on ``zeta_series``.

    Expands prod_{n<=N} (1 - z**n)**(-orbits(n)) in integer arithmetic, each
    factor (1 - z**n)**(-m) by the cheaper of two exact routes.  For a small
    m (2m <= degree // n) it divides by 1 - z**n m times: m running sums
    with stride n, additions only.  Otherwise it adds the binomial series
    (1 - u)**(-m) = sum_k C(m-1+k, k) u**k, one pass over the coefficients
    per k, with C(m-1+k, k) = C(m-2+k, k-1) * (m-1+k) / k.
    The degree must lie in 0..len(orbit_counts).
    """
    if not 0 <= degree <= len(orbit_counts):
        raise ValueError(f"degree must lie in 0..{len(orbit_counts)}, got {degree}")
    coeffs = [0] * (degree + 1)
    coeffs[0] = 1
    for n in range(1, degree + 1):
        m = orbit_counts[n - 1]
        k_max = degree // n
        if 0 <= m <= k_max // 2:
            for _ in range(m):
                for i in range(n, degree + 1):
                    coeffs[i] += coeffs[i - n]
            continue
        new, binom = coeffs[:], 1
        for k in range(1, k_max + 1):
            binom = binom * (m - 1 + k) // k
            shift = n * k
            new[shift:] = [x + y * binom for x, y in zip(new[shift:], coeffs)]
        coeffs = new
    return tuple(coeffs)


def xi1_direct(degree: int) -> tuple[Fraction, ...]:
    """The lacunary even part, term by term.

    Coefficient at z**(2n) is (4**n - 1) * |n|_3 / n; odd degrees vanish.
    """
    if degree < 2:
        raise ValueError(f"xi1 needs degree >= 2, got {degree}")
    coeffs = [Fraction(0)] * (degree + 1)
    for n in range(1, degree // 2 + 1):
        coeffs[2 * n] = Fraction(4**n - 1, n * 3 ** ord_p(n, 3))
    return tuple(coeffs)


def xi1_closed_form(degree: int) -> tuple[Fraction, ...]:
    """The same series from its closed form,

        log((1-z^2)/(1-4z^2)) + 2*sum_{j>=1} 9**(-j) * log((1-(2z)**(2*3^j))/(1-z**(2*3^j))).

    Only levels with 2*3**j <= degree contribute, so the sum is finite at
    any truncation.
    """
    if degree < 2:
        raise ValueError(f"xi1 needs degree >= 2, got {degree}")
    total = _add_scaled(log_one_minus(1, 2, degree), -1, log_one_minus(4, 2, degree))
    j = 1
    while 2 * 3**j <= degree:
        m = 2 * 3**j
        level = _add_scaled(log_one_minus(1 << m, m, degree), -1, log_one_minus(1, m, degree))
        total = _add_scaled(total, Fraction(2, 9**j), level)
        j += 1
    return total


def xi_from_closed_parts(degree: int) -> tuple[Fraction, ...]:
    """Reassemble the full inner sum for the 3-adic extension:

        log((1-z)/(1-2z)) - (1/2) log((1-z^2)/(1-4z^2)) + (1/6) xi1(z).

    Must equal ``xi_series`` of the extension's table coefficientwise.
    """
    if degree < 2:
        raise ValueError(f"decomposition needs degree >= 2, got {degree}")
    odd_part = _add_scaled(log_one_minus(1, 1, degree), -1, log_one_minus(2, 1, degree))
    even_fix = _add_scaled(log_one_minus(1, 2, degree), -1, log_one_minus(4, 2, degree))
    odd_even = _add_scaled(odd_part, Fraction(-1, 2), even_fix)
    return _add_scaled(odd_even, Fraction(1, 6), xi1_closed_form(degree))


class BoundaryPoint(namedtuple("BoundaryPoint", ("radius", "turns"))):
    """A point given in exact polar form: radius * e^(2*pi*i*turns).

    The exact representation is what makes boundary zeros exact: whether a
    product factor 1 - (2z)**m vanishes reduces to the integer questions
    radius == 1/2 and m*turns in Z.
    """

    __slots__ = ()

    def __new__(cls, radius: Fraction, turns: Fraction) -> "BoundaryPoint":
        if not 0 < radius <= Fraction(1, 2):
            raise ValueError(f"radius must lie in (0, 1/2], got {radius}")
        return super().__new__(cls, radius, turns)

    def to_complex(self) -> complex:
        """The point as a complex double: the package's one polar conversion."""
        angle = 2.0 * math.pi * float(self.turns % 1)
        return float(self.radius) * complex(math.cos(angle), math.sin(angle))


# Factors of the |zeta| product beyond the leading |1-z|/|1-2z|, as
# (exponent, m) pairs meaning |(1 - (2z)**m)/(1 - z**m)| ** exponent.
# The m = 2 factor enters twice, with exponent 1/2 and (inverted) 1/6.


def _product_factors(terms: int) -> list[tuple[Fraction, int]]:
    factors = [(Fraction(1, 2), 2), (Fraction(-1, 6), 2)]
    for j in range(1, terms + 1):
        factors.append((Fraction(1, 3 * 9**j), 2 * 3**j))
    return factors


def modulus_product(point: BoundaryPoint, terms: int) -> float:
    """|zeta| at ``point`` from the truncated boundary product with ``terms``
    levels.

    Whether a factor vanishes is decided exactly, from the point's polar
    coordinates, so the value is exactly 0.0 at boundary zeros.  z = 1/2 is
    the pole of the leading factor and is rejected.
    """
    if terms < 0:
        raise ValueError(f"terms must be >= 0, got {terms}")
    if point.radius == Fraction(1, 2):
        if point.turns % 1 == 0:
            raise ValueError("z = 1/2 is a pole of the leading factor")
        # Net order of vanishing at this point; > 0 forces the value 0.
        order = sum((exponent for exponent, m in _product_factors(terms)
                     if (m * point.turns) % 1 == 0), Fraction(0))
        if order > 0:
            return 0.0
        if order < 0:
            raise ValueError("boundary product diverges at this point")

    # Past this point no factor vanishes exactly (a vanishing set always has
    # net positive order, handled above), so plain evaluation is safe.
    w = point.to_complex()
    two_z = 2.0 * w
    value = abs(1.0 - w) / abs(1.0 - two_z)
    for exponent, m in _product_factors(terms):
        numerator = abs(1.0 - two_z**m)
        denominator = abs(1.0 - w**m)
        if numerator == 0.0:
            return 0.0
        ratio = numerator / denominator
        value *= ratio ** float(exponent)
    return value


def series_modulus(spec: MapSpec, degree: int, point: BoundaryPoint) -> float:
    """|zeta| at ``point`` as |exp| of the zeta exponent truncated at ``degree``.

    The sum runs over n = 1..degree in double precision; it pairs with the
    product.  Terms are accumulated as (2z)**n * (F_n/2**n)/n, which keeps
    every intermediate bounded for |z| <= 1/2 even though F_n itself grows
    like 2**n.  That fits f and g alone: any other map raises ValueError.
    """
    return _exp_series_modulus(_scaled_fix_terms(spec, degree), point.to_complex())


def _scaled_fix_terms(spec: MapSpec, degree: int) -> list[float]:
    """(F_n/2**n)/n for n = 1..degree, the series' coefficients in 2z, from
    F_n/2**n = (1 - 2**-n) * 3**-e(n) in O(degree) float work.

    Each double is the int quotient's: for n <= 53 both operands are exact,
    so it is rounded once; for n >= 54 the numerator is 1.0, and 3**-e lies
    at least ulp/(2 * 3**e) from every rounding midpoint, farther than the
    3**-e * 2**-n it drops once 2**(n - 54) >= 3**e (n >= 62; tests: n <= 10**4)."""
    if spec.entropy_base != 2:
        raise ValueError(f"series_modulus normalises by 2**n, which fits only maps of "
                         f"entropy log 2 (f, g), got {spec.label}")
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    if spec != THREE_ADIC_EXTENSION:
        return [(1.0 - 0.5**n) / n for n in range(1, degree + 1)]
    return [(1.0 - 0.5**n) / 3 ** padic_factor(n) / n for n in range(1, degree + 1)]


def _exp_series_modulus(terms: list[float], z: complex) -> float:
    w = 2.0 * z
    w_pow = 1.0 + 0.0j
    acc = 0.0 + 0.0j
    for term in terms:
        w_pow *= w
        acc += w_pow * term
    return math.exp(acc.real)


class ScanRow(namedtuple("ScanRow", ("radius", "product_modulus", "series_modulus"))):
    """One point of a radial boundary scan: both |zeta| values at a radius."""

    __slots__ = ()


def radial_scan(
    turns: Fraction, radii: Sequence[float], terms: int, degree: int
) -> list[ScanRow]:
    """Evaluate both |zeta| routes of the 3-adic extension along the ray at
    angle 2*pi*turns.

    Denominators of ``turns`` that are powers of 3 point at boundary zeros;
    any rational is accepted.  Each radius r is the exact point
    ``BoundaryPoint(Fraction(r), turns)``; the product keeps ``terms``
    levels, and the series column is ``series_modulus`` of the extension
    truncated at ``degree``.  Radii must lie strictly inside (0, 1/2): the
    product has its exact zeros and its pole on the rim itself.
    """
    for r in radii:
        if not 0.0 < r < 0.5:
            raise ValueError(f"scan radius must lie in (0, 1/2), got {r}")
    # The series' coefficients do not depend on the radius: scale them once.
    scaled = _scaled_fix_terms(THREE_ADIC_EXTENSION, degree)
    rows = []
    for r in radii:
        point = BoundaryPoint(Fraction(r), turns)
        rows.append(ScanRow(radius=r, product_modulus=modulus_product(point, terms),
                            series_modulus=_exp_series_modulus(scaled, point.to_complex())))
    return rows
