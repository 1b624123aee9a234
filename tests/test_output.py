import csv
import io
import json
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitkit.arith import EXACT_DECIMAL, Dyadic
from orbitkit.output import (
    format_dyadic,
    format_fraction,
    format_fraction_decimal,
    format_real,
    write_table,
)


def fraction_decimal(value, digits):
    """Fixed-point decimal of a Fraction by divmod, round half away from zero."""
    quotient, remainder = divmod(abs(value.numerator) * 10**digits, value.denominator)
    if 2 * remainder >= value.denominator:
        quotient += 1
    whole, frac = divmod(quotient, 10**digits)
    return f"{'-' if value < 0 else ''}{whole}.{frac:0{digits}d}"


def test_dyadic_formats_match_fraction_formats():
    rng = random.Random(11)
    cases = [Dyadic(0, 0), Dyadic(0, 9), Dyadic(5, 0), Dyadic(-3, 1), Dyadic(1, 1),
             Dyadic(-1, 1), Dyadic(24, 6), Dyadic(5, 13)]
    cases += [Dyadic(rng.randint(-(2**70), 2**70), rng.randint(0, 80)) for _ in range(2000)]
    cases += [Dyadic(3 << 200, 300), Dyadic(5 << 300, 250)]  # more twos than one word holds
    for value in cases:
        exact = Fraction(value.numerator, 2**value.shift)
        assert format_fraction(value) == f"{exact.numerator}/{exact.denominator}"
        with localcontext(EXACT_DECIMAL):
            twins = Decimal(value.numerator), Decimal(2**value.shift)
            assert format_dyadic(value, *twins) == format_fraction(value)
        for digits in (1, 4, 12, 30):
            assert format_fraction_decimal(value, digits) == fraction_decimal(exact, digits)


def test_format_fraction_decimal_rounds_half_away_from_zero():
    assert format_fraction_decimal(Dyadic(1, 3), 2) == "0.13"  # 0.125
    assert format_fraction_decimal(Dyadic(-1, 3), 2) == "-0.13"
    assert format_fraction_decimal(Dyadic(-1, 5), 1) == "-0.0"  # sign kept, as before
    assert format_fraction_decimal(Dyadic(3, 2), 1) == "0.8"  # 0.75


def test_format_real_uses_exact_values():
    assert format_real(0.1, 20) == fraction_decimal(Fraction(0.1), 20)
    assert format_real(-2.5, 3) == "-2.500"
    assert format_real(1e300, 2) == fraction_decimal(Fraction(1e300), 2)
    assert format_real(2.0**-60, 20) == "0.00000000000000000087"
    assert format_real(-3 / 8, 4) == "-0.3750"
    for other in (Fraction(1, 3), mpmath.mpf(1) / 3, Dyadic(1, 2), 1):
        with pytest.raises(TypeError):
            format_real(other, 4)


# Fields with every character csv.writer treats specially, spaces, empty
# strings, the characters JSON escapes (quote, backslash, controls) and
# non-ASCII text.
fields = st.text(alphabet=st.sampled_from(',"\\\r\n \'a1-/#éЖ€😀\t\x00\x1f\x7f\u2028'),
                 max_size=6) | st.text(max_size=4)
tables = st.tuples(
    st.dictionaries(st.text(max_size=4), st.text(max_size=4) | st.integers(), max_size=3),
    st.lists(fields, min_size=1, max_size=4),
    st.lists(st.lists(fields, max_size=5), max_size=6),
)


def written(fmt, meta, header, rows):
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("sys.stdout", out)
        write_table(fmt, None, meta, header, iter(rows))
    return out.getvalue()


@settings(deadline=None, max_examples=300)
@given(tables)
def test_csv_rows_are_the_bytes_of_csv_writer(table):
    meta, header, rows = table
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    head = "".join(f"# {key}={value}\n" for key, value in meta.items())
    assert written("csv", meta, header, rows) == head + expected.getvalue()


@settings(deadline=None, max_examples=300)
@given(tables)
def test_json_rows_are_the_bytes_of_json_dump(table):
    meta, header, rows = table
    payload = {"meta": {k: str(v) for k, v in meta.items()},
               "rows": [dict(zip(header, row)) for row in rows]}
    expected = io.StringIO()
    json.dump(payload, expected, indent=2)
    assert written("json", meta, header, rows) == expected.getvalue() + "\n"


def test_json_edge_cases_are_the_bytes_of_json_dump():
    cases = [({}, ("n",), []), ({}, ("n",), [("1",)]), ({"k": 1}, ("n",), []),
             ({"k": 1}, ("n",), [()]),
             # escapes, controls and non-ASCII in keys and values
             ({"q": 'a"b'}, ('k"ey', "back\\slash", "\u00e9\u2028"),
              [('say "hi"', "C:\\dir\\", "\x00\x01\x1f\x7f\b\f\n\r\t"),
               ("\u00e9\u0416\u20ac", "\U0001f600", "\ud800"), ("", "", "")]),
             # a repeated key keeps its first place and its last value
             ({}, ("a", "b", "a"), [("1", "2", "3"), ("1", "2"), ("1",)]),
             # rows shorter and longer than the header
             ({}, ("a", "b"), [("1",), ("1", "2", "3")])]
    for meta, header, rows in cases:
        expected = json.dumps({"meta": {k: str(v) for k, v in meta.items()},
                               "rows": [dict(zip(header, row)) for row in rows]}, indent=2)
        assert written("json", meta, header, rows) == expected + "\n"
