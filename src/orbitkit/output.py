"""Rendering of result tables as CSV or JSON.

Conventions, identical for both formats: big integers are full decimal
strings, exact rationals are "numerator/denominator" in lowest terms, and
reals are fixed-point strings with a configurable number of decimal places.
Every fixed-point string comes from one dyadic formatter: the dyadic sums
and ratios directly, floats through their exact values.  Big integers and
the terms of big dyadic rationals are rendered from exact ``Decimal`` twins
where the caller has them, in time linear in their digits; ``str`` of an
int, quadratic in its digits, stays the reference they are tested against.
CSV output starts with '#'-prefixed metadata lines (truncation and
tolerance parameters) followed by the column header; JSON carries the same
metadata under a "meta" key.  Both formats write each row as it is pulled,
so no table is held whole.  Identical invocations produce byte-identical
output.
"""

from __future__ import annotations

import contextlib
import csv
import sys
from decimal import Decimal
from fractions import Fraction
from typing import Any, Iterable, Mapping, Sequence

from .arith import Dyadic

__all__ = [
    "format_dyadic",
    "format_fraction",
    "format_fraction_decimal",
    "format_real",
    "write_table",
]


def _common_twos(value: Dyadic) -> int:
    """The factors of two that a dyadic's numerator and 2**shift share: the
    whole reduction to lowest terms, with no gcd."""
    numerator, shift = value.numerator, value.shift
    return min(shift, (numerator & -numerator).bit_length() - 1) if numerator else shift


def format_fraction(value: "Fraction | Dyadic") -> str:
    """"numerator/denominator" in lowest terms."""
    if isinstance(value, Dyadic):
        common = _common_twos(value)
        return f"{value.numerator >> common}/{1 << (value.shift - common)}"
    return f"{value.numerator}/{value.denominator}"


def format_dyadic(value: Dyadic, numerator: Decimal, power: Decimal) -> str:
    """``format_fraction(value)`` from exact ``Decimal`` twins of
    ``value.numerator`` (``numerator``) and of 2**``value.shift``
    (``power``), in time linear in their digits.

    Both twins are divided by the power of two they share, read off the int
    numerator.  Call it in ``EXACT_DECIMAL``.
    """
    divisor = 1 << _common_twos(value)
    return f"{numerator // divisor}/{power // divisor}"


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


def format_real(value: float, digits: int) -> str:
    """Fixed-point decimal of a float, via its exact value; any other type
    raises TypeError."""
    # Tested by type: a Fraction has as_integer_ratio too.
    if not isinstance(value, float):
        raise TypeError(f"cannot render {type(value).__name__} as a real")
    numerator, denominator = value.as_integer_ratio()
    return format_fraction_decimal(Dyadic(numerator, denominator.bit_length() - 1), digits)


def write_table(
    fmt: str,
    path: "str | None",
    meta: Mapping[str, Any],
    header: Sequence[str],
    rows: Iterable[Sequence[str]],
) -> None:
    """Write one result table as ``fmt`` ("csv" or "json") to ``path``,
    or to stdout when ``path`` is None.

    Both formats write each row as it is pulled from ``rows``.  A CSV row
    none of whose fields holds a delimiter, a quote or a line break is its
    fields joined by commas, each copied once; any other row goes through
    ``csv.writer``, which quotes it.  JSON is the bytes of ``json.dump`` of
    {"meta": ..., "rows": [...]} with indent 2, written one row object at a
    time; every row field must be a ``str``.
    """
    if path is None:
        destination = contextlib.nullcontext(sys.stdout)
    else:
        destination = open(path, "w", encoding="utf-8")
    with destination as handle:
        if fmt == "csv":
            for key, value in meta.items():
                handle.write(f"# {key}={value}\n")
            _write_csv_rows(handle, header, rows)
        else:
            _write_json(handle, meta, header, rows)


def _write_csv_rows(handle, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        line = ",".join(row)
        # Only a field with a delimiter, a quote or a line break, or a row of
        # one empty field ('' would read as no field), can need csv.writer.
        if (line and line.count(",") == len(row) - 1
                and '"' not in line and "\r" not in line and "\n" not in line):
            handle.write(line)
            handle.write("\n")
        else:
            writer.writerow(row)


def _write_json(handle, meta: Mapping[str, Any], header: Sequence[str],
                rows: Iterable[Sequence[str]]) -> None:
    # Imported here, so that a command writing CSV never loads json.
    import json
    from json.encoder import encode_basestring_ascii

    # json.dump(payload, indent=2) nests "meta" one level deep and each row
    # object two.  Re-indenting meta's own dump gives its bytes: a JSON
    # string escapes its line breaks, so every newline is layout.
    meta_text = json.dumps({k: str(v) for k, v in meta.items()}, indent=2)
    handle.write('{\n  "meta": ' + meta_text.replace("\n", "\n  ") + ',\n  "rows": [')
    # A row object of strings is a template: a '"key": ' prefix per column,
    # then each value through the C string encoder json.dump itself uses
    # (its indenting encoder is pure Python).  dict() keeps json.dump's view
    # of a header that repeats a key.
    prefixes = {key: "\n      " + encode_basestring_ascii(key) + ": " for key in header}
    count = 0
    for count, row in enumerate(rows, start=1):
        body = ",".join([prefixes[key] + encode_basestring_ascii(value)
                         for key, value in dict(zip(header, row)).items()])
        handle.write(("\n    {" if count == 1 else ",\n    {")
                     + (body + "\n    }" if body else "}"))
    handle.write("\n  ]\n}\n" if count else "]\n}\n")
