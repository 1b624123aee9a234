"""Rendering of result tables as CSV or JSON.

Conventions, identical for both formats: big integers are full decimal
strings, exact rationals are "numerator/denominator" in lowest terms, and
reals are fixed-point strings with a configurable number of decimal places.
Every fixed-point string comes from one dyadic formatter: the dyadic sums
and ratios directly, floats and mpmath reals through their exact
mantissa-and-exponent values.  CSV output starts with '#'-prefixed metadata
lines (truncation and tolerance parameters) followed by the column header;
JSON carries the same metadata under a "meta" key.  Identical invocations
produce byte-identical output.
"""

from __future__ import annotations

import contextlib
import csv
import json
import sys
from fractions import Fraction
from typing import Any, Iterable, Mapping, Sequence

import mpmath

from .arith import Dyadic

__all__ = [
    "format_fraction",
    "format_fraction_decimal",
    "format_real",
    "write_table",
]


def format_fraction(value: "Fraction | Dyadic") -> str:
    """"numerator/denominator" in lowest terms."""
    if isinstance(value, Dyadic):
        # A dyadic reduces by its common factors of two alone: no gcd.
        numerator, shift = value.numerator, value.shift
        common = min(shift, (numerator & -numerator).bit_length() - 1) if numerator else shift
        return f"{numerator >> common}/{1 << (shift - common)}"
    return f"{value.numerator}/{value.denominator}"


def format_fraction_decimal(value: Dyadic, digits: int) -> str:
    """Fixed-point decimal of a dyadic rational, round half away from zero."""
    numerator, shift = value.numerator, value.shift
    sign = "-" if numerator < 0 else ""
    scaled = abs(numerator) * 10**digits
    # scaled / 2**(shift - 1), plus one, halved: a remainder of half or more
    # rounds up.
    quotient = ((scaled >> (shift - 1)) + 1) >> 1 if shift else scaled
    whole, frac = divmod(quotient, 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}"


def format_real(value: Any, digits: int) -> str:
    """Fixed-point decimal of a float or mpmath real, via its exact value."""
    if isinstance(value, float):
        numerator, denominator = value.as_integer_ratio()
        return format_fraction_decimal(Dyadic(numerator, denominator.bit_length() - 1),
                                       digits)
    if isinstance(value, mpmath.mpf):
        # mpf(value) first rounds to mpmath's current working precision, which
        # is 53 bits outside a workprec block, whatever precision made value.
        return format_fraction_decimal(Dyadic.from_mpf(mpmath.mpf(value)), digits)
    raise TypeError(f"cannot render {type(value).__name__} as a real")


def write_table(
    fmt: str,
    path: "str | None",
    meta: Mapping[str, Any],
    header: Sequence[str],
    rows: Iterable[Sequence[str]],
) -> None:
    """Write one result table as ``fmt`` ("csv" or "json") to ``path``,
    or to stdout when ``path`` is None.

    CSV rows go out as they are pulled from ``rows``; JSON needs its row
    objects in hand before ``json.dump`` can encode them.
    """
    if path is None:
        destination = contextlib.nullcontext(sys.stdout)
    else:
        destination = open(path, "w", encoding="utf-8")
    with destination as handle:
        if fmt == "csv":
            for key, value in meta.items():
                handle.write(f"# {key}={value}\n")
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        else:
            payload = {
                "meta": {k: str(v) for k, v in meta.items()},
                "rows": [dict(zip(header, row)) for row in rows],
            }
            json.dump(payload, handle, indent=2)
            handle.write("\n")
