"""Identities that hold for every map, checked on arbitrary orbit data, and
the CLI's exit-status contract, checked on arbitrary command lines."""

import contextlib
import io
import os
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from orbitkit.asymptotics import merten_series, ratio_series
from orbitkit.cli import main
from orbitkit.counting import (
    CIRCLE_DOUBLING,
    THREE_ADIC_EXTENSION,
    build_table,
    custom_orbits,
    fix_count,
    fix_terms,
    iterate,
    iterate_square_identity,
    orbit_count_iterate,
)
from orbitkit.zeta import orbit_product_series, zeta_series

orbit_data = st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=40)


@settings(deadline=None)
@given(orbit_data)
def test_mobius_round_trip(counts):
    n_max = 2 * len(counts)
    table = build_table(custom_orbits(counts), n_max)
    assert table.orbit_counts == tuple(counts) + (0,) * len(counts)
    rows = list(table.rows())
    for n, fix, _, _ in rows:
        assert fix == sum(rows[d - 1][2] for d in range(1, n + 1) if n % d == 0)


@settings(deadline=None)
@given(orbit_data)
def test_zeta_routes_agree(counts):
    degree = 2 * len(counts)
    table = build_table(custom_orbits(counts), degree)
    series = zeta_series(table, degree)
    assert series == orbit_product_series(table, degree)
    assert all(type(c) is int and c >= 0 for c in series)


@settings(deadline=None)
@given(orbit_data)
def test_iterate_routes_agree(counts):
    spec = custom_orbits(counts)
    n_max = len(counts)
    base = build_table(spec, 3 * n_max)
    for k in (2, 3):
        expected = build_table(iterate(spec, k), n_max).orbit_counts
        assert tuple(orbit_count_iterate(base, k, n) for n in range(1, n_max + 1)) == expected
    expected = build_table(iterate(spec, 2), n_max).orbit_counts
    assert tuple(iterate_square_identity(base, n) for n in range(1, n_max + 1)) == expected


closed_form_maps = st.builds(
    iterate,
    st.sampled_from((THREE_ADIC_EXTENSION, CIRCLE_DOUBLING)),
    st.integers(min_value=1, max_value=4),
)


@settings(deadline=None, max_examples=40)
@given(
    st.one_of(st.sampled_from((THREE_ADIC_EXTENSION, CIRCLE_DOUBLING)),
              orbit_data.map(custom_orbits)),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=100),
)
def test_nested_iterates_compose(base, j, k, n_max):
    nested, direct = iterate(iterate(base, j), k), iterate(base, j * k)
    assert nested == direct
    assert fix_terms(nested, n_max) == fix_terms(direct, n_max)
    assert nested.entropy_base == direct.entropy_base
    for n in range(1, 6):
        assert fix_count(nested, n) == fix_count(base, n * j * k)


@settings(deadline=None, max_examples=30)
@given(closed_form_maps, st.integers(min_value=1, max_value=300))
def test_term_form_equals_fix_count(spec, n_max):
    den, terms = fix_terms(spec, n_max)
    for n in range(1, n_max + 1):
        total = sum(w * 2 ** (s * n // m) for w, s, m in terms if n % m == 0)
        assert total == den * fix_count(spec, n)


@settings(deadline=None, max_examples=30)
@given(closed_form_maps, st.integers(min_value=0, max_value=200))
def test_term_route_equals_orbit_product(spec, degree):
    table = build_table(spec, max(degree, 1))
    assert zeta_series(table, degree) == orbit_product_series(table, degree)


@settings(deadline=None, max_examples=40)
@given(st.one_of(closed_form_maps, orbit_data.map(custom_orbits)))
def test_normalised_series_take_exactly_entropy_log2(spec):
    table = build_table(spec, 8)
    for series in (lambda t: ratio_series(t, 1), merten_series):
        try:
            series(table)
        except ValueError:
            accepted = False
        else:
            accepted = True
        assert accepted == (spec.entropy_base == 2)


# Sizes stay small so that every accepted command line runs in milliseconds.
# Each option lists good values, the first used when another option is the
# malformed one; BAD values are drawn for every option alike.
BAD = ("", "x", "-1", "0", "1/0", "nan", "1e400")
SIZES = ("8", "1", "2", "24")
MAPS = ("f", "g", "f2", "g2", "no-such-orbit-file")
COMMANDS = {
    ("table",): {"--map": MAPS, "--max": SIZES},
    ("pnt",): {"--map": MAPS, "--max": SIZES, "--burn-in": ("1", "8", "24")},
    ("merten",): {"--map": MAPS, "--max": SIZES},
    ("zeta", "coeffs"): {"--map": MAPS, "--degree": SIZES},
    ("zeta", "xi1-check"): {"--degree": SIZES},
    ("zeta", "boundary"): {
        "--angle": ("1/3", "2/9", "-5/7"),
        "--radii": ("0.49", "0.1,0.4999", "0.5", "1e-320,inf"),
        "--terms": ("2", "4"),
        "--degree": SIZES,
    },
    ("verify",): {"--max": SIZES},
    ("--version",): {},
    ("bogus",): {},
}
OUTPUT_OPTIONS = {"--format": ("csv", "json"), "--digits": ("12", "1", "1000", "1001")}


def run_main(argv, precision):
    """Exit status and stderr of one in-process CLI run."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        os.environ.pop("ORBITKIT_PRECISION_BITS", None)
        if precision is not None:
            os.environ["ORBITKIT_PRECISION_BITS"] = precision
        code = main(argv)
    err = stderr.getvalue()
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err, argv
    assert code != 1 or err, argv
    return code


@settings(deadline=None, max_examples=150)
@given(st.data(), st.sampled_from((None, "64", "59", "10001", "abc")))
def test_cli_exits_cleanly_on_any_argv(data, precision):
    command = data.draw(st.sampled_from(sorted(COMMANDS)))
    argv = list(command)
    for option, good in {**COMMANDS[command], **OUTPUT_OPTIONS}.items():
        # Leaving an option out exercises defaults and missing required options.
        if data.draw(st.integers(min_value=0, max_value=4)):
            argv += [option, data.draw(st.sampled_from(good + BAD))]
    run_main(argv, precision)


def test_cli_exits_cleanly_on_each_malformed_value():
    for command, options in COMMANDS.items():
        options = {**options, **OUTPUT_OPTIONS}
        for malformed in options:
            for bad in BAD:
                argv = list(command)
                for option, good in options.items():
                    argv += [option, bad if option == malformed else good[0]]
                run_main(argv, None)
