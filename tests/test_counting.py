import os
import subprocess
import sys
from pathlib import Path

import pytest

from orbitkit import counting
from orbitkit.arith import ExactnessError, divisors, ord_p
from orbitkit.counting import (
    CIRCLE_DOUBLING,
    THREE_ADIC_EXTENSION,
    OrbitTable,
    build_table,
    custom_orbits,
    fix_count,
    fix_terms,
    iterate,
    iterate_square_identity,
    orbit_count_iterate,
    padic_factor,
)


def doubling_orbit_counts_brute(n):
    """Closed orbits of length n of x -> 2x mod 1, by direct dynamics.

    All points of period dividing n are k/(2**n - 1); doubling permutes the
    residues mod 2**n - 1, and cycle lengths are exactly orbit lengths.
    """
    modulus = (1 << n) - 1
    seen = bytearray(modulus)
    count = 0
    for start in range(modulus):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = 1
            x = (2 * x) % modulus
            length += 1
        if length == n:
            count += 1
    return count


def extension_fix_brute(n):
    """Fix count of the 3-adic extension: strip all 3s out of 2**n - 1."""
    m = (1 << n) - 1
    while m % 3 == 0:
        m //= 3
    return m


def test_padic_factor_examples():
    assert padic_factor(1) == 0
    assert padic_factor(2) == 1
    assert padic_factor(12) == 2
    assert padic_factor(18) == 3


def test_padic_factor_against_brute_division():
    for n in range(1, 1200):
        assert padic_factor(n) == ord_p((1 << n) - 1, 3)


def test_padic_factor_rejects_zero():
    with pytest.raises(ValueError):
        padic_factor(0)


def test_fix_count_examples():
    assert fix_count(THREE_ADIC_EXTENSION, 2) == 1
    assert fix_count(CIRCLE_DOUBLING, 3) == 7
    assert fix_count(THREE_ADIC_EXTENSION, 6) == 7


def test_fix_count_extension_against_brute():
    for n in range(1, 80):
        assert fix_count(THREE_ADIC_EXTENSION, n) == extension_fix_brute(n)


def test_fix_count_square_iterate_closed_form():
    squared = iterate(CIRCLE_DOUBLING, 2)
    for n in range(1, 50):
        assert fix_count(squared, n) == 4**n - 1


def test_fix_count_nested_iterates():
    nested = iterate(iterate(CIRCLE_DOUBLING, 2), 3)
    assert nested == iterate(CIRCLE_DOUBLING, 6)
    assert nested.label == "circle-doubling^6"
    for n in range(1, 20):
        assert fix_count(nested, n) == fix_count(CIRCLE_DOUBLING, 6 * n)


def test_fix_count_custom_zero_extends():
    spec = custom_orbits((1, 3))
    assert fix_count(spec, 1) == 1
    assert fix_count(spec, 2) == 7
    assert fix_count(spec, 5) == 1
    assert fix_count(spec, 100) == 7


def test_fix_count_rejects_zero():
    with pytest.raises(ValueError):
        fix_count(CIRCLE_DOUBLING, 0)


def test_fix_terms_examples():
    assert fix_terms(CIRCLE_DOUBLING, 50) == (1, ((1, 1, 1), (-1, 0, 1)))
    # 2*3**1 <= 17 < 2*3**2: one level beyond j = 0, over den = 9
    assert fix_terms(THREE_ADIC_EXTENSION, 17) == (9, (
        (9, 1, 1), (-9, 0, 1), (-6, 2, 2), (6, 0, 2), (-2, 6, 6), (2, 0, 6),
    ))
    assert fix_terms(THREE_ADIC_EXTENSION, 1) == fix_terms(THREE_ADIC_EXTENSION, 5)
    # the square of g: 4**n - 1
    assert fix_terms(iterate(CIRCLE_DOUBLING, 2), 50) == (1, ((1, 2, 1), (-1, 0, 1)))
    # f cubed reads f's form at 3*n_max = 15; the level m = 6 becomes m = 2
    den, terms = fix_terms(iterate(THREE_ADIC_EXTENSION, 3), 5)
    assert den == 9 and terms[-2:] == ((-2, 6, 2), (2, 0, 2))
    # the deepest level 2*3**J reaches n_max itself
    for n_max in (2, 6, 18, 54, 162, 486):
        den, terms = fix_terms(THREE_ADIC_EXTENSION, n_max)
        assert terms[-1] == (2, 0, n_max)
        total = sum(w * 2 ** (s * n_max // m) for w, s, m in terms if n_max % m == 0)
        assert total == den * fix_count(THREE_ADIC_EXTENSION, n_max)
    assert fix_terms(custom_orbits((1, 3)), 10) is None
    assert fix_terms(iterate(custom_orbits((1, 3)), 2), 10) is None
    with pytest.raises(ValueError):
        fix_terms(CIRCLE_DOUBLING, -1)


def test_map_spec_validation():
    with pytest.raises(ValueError):
        custom_orbits((1, -2))
    with pytest.raises(ValueError):
        iterate(CIRCLE_DOUBLING, 0)


def test_iterate_power_one_is_base():
    assert iterate(CIRCLE_DOUBLING, 1) is CIRCLE_DOUBLING


def test_entropy_constants():
    assert CIRCLE_DOUBLING.entropy_base == 2
    assert THREE_ADIC_EXTENSION.entropy_base == 2
    assert iterate(CIRCLE_DOUBLING, 3).entropy_base == 8
    assert custom_orbits((1,)).entropy_base is None


def test_tables_match_spec_values():
    tf = build_table(THREE_ADIC_EXTENSION, 6)
    tg = build_table(CIRCLE_DOUBLING, 6)
    assert tf.fix_counts == (1, 1, 7, 5, 31, 7)
    assert tf.orbit_counts == (1, 0, 2, 1, 6, 0)
    assert tg.fix_counts == (1, 3, 7, 15, 31, 63)
    assert tg.orbit_counts == (1, 1, 2, 3, 6, 9)


def test_table_against_direct_dynamics():
    table = build_table(CIRCLE_DOUBLING, 12)
    for n in range(1, 13):
        assert table.orbit_counts[n - 1] == doubling_orbit_counts_brute(n)


def test_table_inversion_roundtrip():
    for spec in (THREE_ADIC_EXTENSION, CIRCLE_DOUBLING):
        rows = list(build_table(spec, 200).rows())
        for n, fix, least, orbits in rows:
            rebuilt = sum(rows[d - 1][2] for d in divisors(n))
            assert rebuilt == fix
            assert least == n * orbits


def test_orbit_domination_small():
    tf = build_table(THREE_ADIC_EXTENSION, 300)
    tg = build_table(CIRCLE_DOUBLING, 300)
    for n in range(1, 301):
        assert tf.orbit_counts[n - 1] <= tg.orbit_counts[n - 1]


def test_killed_orbits():
    rows = list(build_table(THREE_ADIC_EXTENSION, 6).rows())
    assert rows[1][2] == rows[1][1] - rows[0][1] == 0  # least(2) = fix(2) - fix(1)
    assert rows[1][3] == 0
    assert rows[5][3] == 0


def test_custom_example_tables():
    table = build_table(custom_orbits((1, 3)), 2)
    assert table.fix_counts == (1, 7)
    other = build_table(custom_orbits((6, 1)), 2)
    assert other.fix_counts == (6, 8)


def test_table_accessors_and_rows():
    table = build_table(CIRCLE_DOUBLING, 4)
    assert list(table.rows()) == [(1, 1, 1, 1), (2, 3, 2, 1), (3, 7, 6, 2), (4, 15, 12, 3)]


def test_build_table_rejects_empty():
    with pytest.raises(ValueError):
        build_table(CIRCLE_DOUBLING, 0)


def test_build_table_prefix_consistency():
    small = build_table(CIRCLE_DOUBLING, 10)
    large = build_table(CIRCLE_DOUBLING, 20)
    again = build_table(CIRCLE_DOUBLING, 10)
    assert small == again
    assert large.fix_counts[:10] == small.fix_counts


def test_build_table_from_two_threads():
    # A fresh interpreter, so that no table built earlier in this process
    # can decide the outcome.
    code = """
import threading
from orbitkit.counting import CIRCLE_DOUBLING, build_table
results = [None, None]
def build(i):
    results[i] = build_table(CIRCLE_DOUBLING, 4000)
threads = [threading.Thread(target=build, args=(i,)) for i in range(2)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=30)
    assert not t.is_alive(), "thread did not finish"
alone = build_table(CIRCLE_DOUBLING, 4000)
assert results == [alone, alone], "thread tables differ"
"""
    src = str(Path(counting.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr


def test_build_table_inexactness_is_hard_error(monkeypatch):
    import orbitkit.counting as counting

    # 2 does not divide fix(2) - fix(1) = 1 here, which no genuine map allows.
    def fake_fix(spec, n):
        return {1: 1, 2: 2}[n]

    monkeypatch.setattr(counting, "fix_count", fake_fix)
    with pytest.raises(ExactnessError):
        counting.build_table(custom_orbits((9, 9, 9)), 2)


def test_build_table_negative_least_is_hard_error(monkeypatch):
    import orbitkit.counting as counting

    def fake_fix(spec, n):
        return {1: 5, 2: 1}[n]

    monkeypatch.setattr(counting, "fix_count", fake_fix)
    with pytest.raises(ExactnessError):
        counting.build_table(custom_orbits((8, 8, 8)), 2)


def test_orbit_count_iterate_examples():
    table = build_table(CIRCLE_DOUBLING, 10)
    assert orbit_count_iterate(table, 2, 1) == 3
    assert orbit_count_iterate(table, 2, 2) == 6
    assert orbit_count_iterate(table, 1, 5) == 6


def test_orbit_count_iterate_matches_direct_tables():
    for spec in (CIRCLE_DOUBLING, THREE_ADIC_EXTENSION):
        for k in (2, 3):
            base = build_table(spec, 40 * k)
            direct = build_table(iterate(spec, k), 40)
            for n in range(1, 41):
                assert orbit_count_iterate(base, k, n) == direct.orbit_counts[n - 1]


def test_orbit_count_iterate_range_errors():
    table = build_table(CIRCLE_DOUBLING, 10)
    with pytest.raises(ValueError):
        orbit_count_iterate(table, 2, 6)
    with pytest.raises(ValueError):
        orbit_count_iterate(table, 0, 1)
    with pytest.raises(ValueError):
        orbit_count_iterate(table, 2, 0)


def test_orbit_count_iterate_negative_is_hard_error():
    corrupt = OrbitTable(
        spec=custom_orbits((7, 7, 7)),
        fix_counts=(1, 1),
        orbit_counts=(-1, 0),
    )
    with pytest.raises(ExactnessError):
        orbit_count_iterate(corrupt, 1, 1)


def test_square_identity_examples():
    tg = build_table(CIRCLE_DOUBLING, 10)
    tf = build_table(THREE_ADIC_EXTENSION, 10)
    assert iterate_square_identity(tg, 1) == 3
    assert iterate_square_identity(tg, 2) == 6
    assert iterate_square_identity(tf, 3) == 2


def test_square_identity_matches_direct():
    for spec in (CIRCLE_DOUBLING, THREE_ADIC_EXTENSION):
        base = build_table(spec, 120)
        direct = build_table(iterate(spec, 2), 60)
        for n in range(1, 61):
            assert iterate_square_identity(base, n) == direct.orbit_counts[n - 1]


def test_square_identity_range_errors():
    table = build_table(CIRCLE_DOUBLING, 10)
    with pytest.raises(ValueError):
        iterate_square_identity(table, 6)
    with pytest.raises(ValueError):
        iterate_square_identity(table, 0)


def test_divisor_sum_inequality():
    # 3 * sum of proper-divisor fix counts <= 2 * fix count, exact integers
    for n in range(1, 400):
        proper = sum((1 << d) - 1 for d in divisors(n) if d < n)
        assert 3 * proper <= 2 * ((1 << n) - 1)
