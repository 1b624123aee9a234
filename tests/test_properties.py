"""Identities that hold for every map, checked on arbitrary orbit data."""

from hypothesis import given, settings
from hypothesis import strategies as st

from orbitkit.counting import (
    build_table,
    custom_orbits,
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
    for n in range(1, n_max + 1):
        assert table.fix(n) == sum(table.least(d) for d in range(1, n + 1) if n % d == 0)


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
