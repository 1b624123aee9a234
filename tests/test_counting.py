import gc
import os
import subprocess
import sys
import tracemalloc
from decimal import Context, Decimal, getcontext, localcontext
from pathlib import Path

import pytest

from orbitkit import cli, counting
from orbitkit.arith import EXACT_DECIMAL, ExactnessError, divisors, mobius, ord_p
from orbitkit.counting import (
    CIRCLE_DOUBLING,
    THREE_ADIC_EXTENSION,
    MapSpec,
    build_table,
    custom_orbits,
    fix_count,
    fix_counts,
    fix_terms,
    iterate,
    iterate_square_identity,
    orbit_count_iterate,
    orbit_counts,
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


@pytest.mark.parametrize("number", [int, Decimal])
def test_fix_stream_divides_even_n_exactly(monkeypatch, number):
    # The extension's stream divides 2**n - 1 by 3**padic_factor(n) only
    # where that power of 3 exceeds 1; a division that leaves a remainder
    # at an even n is still a hard error.
    monkeypatch.setattr(counting, "padic_factor", lambda n: 0 if n % 2 else 3)
    with pytest.raises(ExactnessError, match=r"^3\*\*3 does not divide 2\*\*2 - 1$"):
        list(fix_counts(THREE_ADIC_EXTENSION, 5, number))


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


@pytest.mark.parametrize("n_max", [5, 12, 30])
def test_decimal_custom_fix_counts_match_fix_count(n_max):
    # Tables of both number types against the per-n reference.  The custom
    # data of 12 counts, zeros and a 41-digit count among them, is read past
    # its end (30), to its end (12) and short of it (5); its square reads
    # twice as far.
    specs = [THREE_ADIC_EXTENSION, CIRCLE_DOUBLING]
    specs += [iterate(spec, k) for k in (2, 3) for spec in specs]
    custom = custom_orbits((3, 0, 7, 0, 0, 10**40, 1, 0, 2, 0, 5, 4))
    specs += [custom, iterate(custom, 2)]
    for spec in specs:
        expected = [fix_count(spec, n) for n in range(1, n_max + 1)]
        for number in (int, Decimal):
            fix = list(fix_counts(spec, n_max, number))
            assert all(type(c) is number for c in fix), (spec.label, number)
            assert fix == expected, (spec.label, number)
            orbits = build_table(spec, n_max, number)
            assert all(type(c) is number for c in orbits), (spec.label, number)
            for n in range(1, n_max + 1):
                with localcontext(EXACT_DECIMAL):  # a Decimal sum must not round
                    rebuilt = sum(d * orbits[d - 1] for d in divisors(n))
                assert rebuilt == expected[n - 1], (spec.label, number, n)


def test_decimal_fix_counts_are_exact_in_the_default_context():
    # fix(300) of f has 90 digits and the custom data's fix counts 41, far
    # past the default context's 28: a standalone stream must not round them.
    for spec in (THREE_ADIC_EXTENSION, custom_orbits((3, 0, 10**40, 1))):
        ints = [str(c) for c in fix_counts(spec, 300)]
        with localcontext(Context()):
            decimals = list(fix_counts(spec, 300, Decimal))
        assert all(type(c) is Decimal for c in decimals)
        assert [str(c) for c in decimals] == ints
        assert list(fix_counts(spec, 0)) == []

        # Created in one context and read in another, the values stay exact.
        with localcontext(EXACT_DECIMAL):
            stream = fix_counts(spec, 300, Decimal)
        with localcontext(Context()):
            assert [str(c) for c in stream] == ints

        # The caller's context stays its own between two values, and after
        # the stream is dropped half-way: the stream never yields inside a
        # switched context.
        with localcontext(Context(prec=7)) as mine:
            stream = fix_counts(spec, 300, Decimal)
            assert str(next(stream)) == ints[0]
            assert getcontext() is mine
            assert str(Decimal(1) / 3) == "0.3333333"
            assert str(next(stream)) == ints[1]
            assert getcontext() is mine
            del stream
            gc.collect()
            assert getcontext() is mine
            assert str(Decimal(2) / 3) == "0.6666667"

        # A bad range or number type raises at the call, before any value.
        with pytest.raises(ValueError, match="n_max >= 0"):
            fix_counts(spec, -1)
        with pytest.raises(ValueError, match="int or Decimal"):
            fix_counts(spec, 5, float)


@pytest.mark.parametrize("number", [int, Decimal])
def test_orbit_counts_stream_the_table(number):
    # The stream and build_table share one Möbius inversion: the same counts,
    # of the same type and with the same strings, for every kind of map.
    custom = custom_orbits((3, 0, 7, 0, 0, 10**40, 1, 0, 2, 0, 5, 4))
    specs = [THREE_ADIC_EXTENSION, CIRCLE_DOUBLING, iterate(THREE_ADIC_EXTENSION, 2),
             iterate(CIRCLE_DOUBLING, 2), custom, iterate(custom, 2),
             custom_orbits([(37 * n * n + 11) % 997 for n in range(1, 401)])]
    # 210 and 2310 are the first n with four and with five distinct primes.
    for spec in specs:
        for n_max in (1, 12, 210, 400, 2310):
            stream = list(orbit_counts(spec, n_max, number))
            assert all(type(c) is number for c in stream), (spec.label, n_max)
            table = build_table(spec, n_max, number)
            assert type(table) is tuple and table == tuple(stream), (spec.label, n_max)
            assert list(map(str, stream)) == list(map(str, table)), (spec.label, n_max)
        assert list(orbit_counts(spec, 0, number)) == []


ORACLE_CUSTOM = custom_orbits((3, 0, 7, 0, 0, 10**40, 1, 0, 2, 0, 5, 4))


@pytest.mark.parametrize("spec", [
    THREE_ADIC_EXTENSION, CIRCLE_DOUBLING, iterate(THREE_ADIC_EXTENSION, 2),
    iterate(CIRCLE_DOUBLING, 2), ORACLE_CUSTOM, iterate(ORACLE_CUSTOM, 2),
    custom_orbits([(37 * n * n + 11) % 997 for n in range(1, 401)]),
], ids=["f", "g", "f2", "g2", "custom", "custom2", "custom400"])
def test_orbit_counts_match_a_mobius_oracle(spec):
    # orbits(n) = (1/n) * sum over d | n of mobius(n/d) * fix(d), from the
    # per-n fix_count, trial-division divisors and mobius: no code shared
    # with the inversion or its least-prime-factor table.  2310 is the first
    # n with five distinct primes.
    n_max = 2310
    fix = [None] + [fix_count(spec, d) for d in range(1, n_max + 1)]
    expected = []
    for n in range(1, n_max + 1):
        orbits, remainder = divmod(sum(mobius(n // d) * fix[d] for d in divisors(n)), n)
        assert remainder == 0, n
        expected.append(orbits)
    assert build_table(spec, n_max) == tuple(expected)
    assert list(orbit_counts(spec, n_max)) == expected
    strings = list(map(str, expected))
    assert list(map(str, build_table(spec, n_max, Decimal))) == strings
    assert list(map(str, orbit_counts(spec, n_max, Decimal))) == strings


@pytest.mark.parametrize("number", [int, Decimal])
@pytest.mark.parametrize("spec, n, change, message", [
    (THREE_ADIC_EXTENSION, 5, lambda c: c + 1, "5 does not divide least-period count 31"),
    (CIRCLE_DOUBLING, 30, lambda c: c * 0, "negative least-period count -33813 at n=30"),
], ids=["indivisible", "negative"])
def test_inversion_fails_at_the_smallest_bad_n(monkeypatch, spec, n, change, message, number):
    # A fix count off at n spoils least(m) at multiples m of n as well, up to
    # 295 and 300 here: build_table and the stream must both name n, the
    # smallest bad n, not the first one a descending pass would reach.
    original = counting.fix_counts

    def fix_off_at_n(fix_spec, n_max, fix_number):
        counts = list(original(fix_spec, n_max, fix_number))
        with localcontext(EXACT_DECIMAL):
            counts[n - 1] = change(counts[n - 1])
        return iter(counts)

    monkeypatch.setattr(counting, "fix_counts", fix_off_at_n)
    with pytest.raises(ExactnessError) as table_error:
        counting.build_table(spec, 300, number)
    with pytest.raises(ExactnessError) as stream_error:
        list(counting.orbit_counts(spec, 300, number))
    assert str(table_error.value) == str(stream_error.value) == message


def test_decimal_orbit_counts_leave_the_callers_context():
    # The counts of f at 300 have up to 88 digits: read in a 7-digit context
    # they stay exact, and the context stays the caller's between values.
    ints = [str(c) for c in build_table(THREE_ADIC_EXTENSION, 300)]
    with localcontext(Context(prec=7)) as mine:
        stream = orbit_counts(THREE_ADIC_EXTENSION, 300, Decimal)
        assert str(next(stream)) == ints[0]
        assert getcontext() is mine
        assert str(Decimal(1) / 3) == "0.3333333"
        assert [str(c) for c in stream] == ints[1:]
        assert getcontext() is mine

    # A bad range or number type raises at the call, before any value.
    with pytest.raises(ValueError, match="n_max >= 0"):
        orbit_counts(THREE_ADIC_EXTENSION, -1)
    with pytest.raises(ValueError, match="int or Decimal"):
        orbit_counts(THREE_ADIC_EXTENSION, 5, float)


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
    # Data that is not integral is refused at construction: not truncated to
    # the counts (2, 1), and not left to fail inside build_table or fix_count.
    with pytest.raises(TypeError):
        custom_orbits([2.5, 1])
    with pytest.raises(TypeError):
        MapSpec("custom", counts=(2.5, 1))
    with pytest.raises(TypeError):
        iterate(CIRCLE_DOUBLING, 2.0)


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
    assert list(fix_counts(THREE_ADIC_EXTENSION, 6)) == [1, 1, 7, 5, 31, 7]
    assert tf == (1, 0, 2, 1, 6, 0)
    assert list(fix_counts(CIRCLE_DOUBLING, 6)) == [1, 3, 7, 15, 31, 63]
    assert tg == (1, 1, 2, 3, 6, 9)


def test_table_against_direct_dynamics():
    table = build_table(CIRCLE_DOUBLING, 12)
    for n in range(1, 13):
        assert table[n - 1] == doubling_orbit_counts_brute(n)


def test_table_inversion_roundtrip():
    for spec in (THREE_ADIC_EXTENSION, CIRCLE_DOUBLING):
        fix = list(fix_counts(spec, 200))
        orbits = build_table(spec, 200)
        for n in range(1, 201):
            rebuilt = sum(d * orbits[d - 1] for d in divisors(n))  # least(d) = d * orbits(d)
            assert rebuilt == fix[n - 1]


def test_orbit_domination_small():
    tf = build_table(THREE_ADIC_EXTENSION, 300)
    tg = build_table(CIRCLE_DOUBLING, 300)
    for n in range(1, 301):
        assert tf[n - 1] <= tg[n - 1]


def test_killed_orbits():
    fix = list(fix_counts(THREE_ADIC_EXTENSION, 6))
    orbits = build_table(THREE_ADIC_EXTENSION, 6)
    assert 2 * orbits[1] == fix[1] - fix[0] == 0  # least(2) = fix(2) - fix(1)
    assert orbits[1] == 0
    assert orbits[5] == 0


def test_custom_example_tables():
    assert list(fix_counts(custom_orbits((1, 3)), 2)) == [1, 7]
    assert list(fix_counts(custom_orbits((6, 1)), 2)) == [6, 8]
    assert build_table(custom_orbits((1, 3)), 2) == (1, 3)
    assert build_table(custom_orbits((6, 1)), 2) == (6, 1)


def test_table_accessors_and_rows(capsys):
    table = build_table(CIRCLE_DOUBLING, 4)
    assert table == (1, 1, 2, 3) and type(table) is tuple
    # The table command's rows (n, fix, least, orbits), least = n * orbits.
    assert cli.main(["table", "--map", "g", "--max", "4"]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
    assert rows == ["n,fix_count,least_count,orbit_count",
                    "1,1,1,1", "2,3,2,1", "3,7,6,2", "4,15,12,3"]


@pytest.mark.parametrize("number", [int, Decimal])
def test_build_table_inverts_one_list_in_place(number):
    # The Möbius inversion runs in place on the list of fix counts, each
    # replaced by its least-period and then its orbit count, so at its peak
    # the build holds about one list of counts.
    tracemalloc.start()
    try:
        table = build_table(THREE_ADIC_EXTENSION, 3000, number)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * sum(sys.getsizeof(c) for c in table)


def test_build_table_rejects_empty():
    with pytest.raises(ValueError):
        build_table(CIRCLE_DOUBLING, 0)


def test_build_table_prefix_consistency():
    small = build_table(CIRCLE_DOUBLING, 10)
    large = build_table(CIRCLE_DOUBLING, 20)
    again = build_table(CIRCLE_DOUBLING, 10)
    assert small == again
    assert large[:10] == small
    assert list(fix_counts(CIRCLE_DOUBLING, 20))[:10] == list(fix_counts(CIRCLE_DOUBLING, 10))


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


def _same_error_at(monkeypatch, n, corrupt, number):
    """Run build_table and the orbit stream to n on g's fix counts with
    fix(n) corrupted; both must raise one ExactnessError message."""
    def fake_fix(spec, n_max, number):
        counts = list(fix_counts(CIRCLE_DOUBLING, n_max, number))
        with localcontext(EXACT_DECIMAL):
            counts[n - 1] = corrupt(counts[n - 1])
        return iter(counts)

    monkeypatch.setattr(counting, "fix_counts", fake_fix)
    with pytest.raises(ExactnessError) as table_error:
        counting.build_table(CIRCLE_DOUBLING, n, number)
    with pytest.raises(ExactnessError) as stream_error:
        list(counting.orbit_counts(CIRCLE_DOUBLING, n, number))
    assert str(stream_error.value) == str(table_error.value)
    return str(table_error.value)


def test_build_table_inexactness_is_hard_error(monkeypatch):
    import orbitkit.counting as counting

    # 2 does not divide fix(2) - fix(1) = 1 here, which no genuine map allows.
    def fake_fix(spec, n_max, number):
        return iter([number(1), number(2)])

    monkeypatch.setattr(counting, "fix_counts", fake_fix)
    with pytest.raises(ExactnessError):
        counting.build_table(custom_orbits((9, 9, 9)), 2)
    with pytest.raises(ExactnessError):
        list(counting.orbit_counts(custom_orbits((9, 9, 9)), 2))

    # One more point at n = 30 (three distinct primes) or n = 210 (four)
    # makes least(n) one more than a multiple of n.
    for n in (30, 210):
        for number in (int, Decimal):
            message = _same_error_at(monkeypatch, n, lambda c: c + 1, number)
            assert message.startswith(f"{n} does not divide least-period count "), message


def test_build_table_negative_least_is_hard_error(monkeypatch):
    import orbitkit.counting as counting

    def fake_fix(spec, n_max, number):
        return iter([number(5), number(1)])

    monkeypatch.setattr(counting, "fix_counts", fake_fix)
    with pytest.raises(ExactnessError):
        counting.build_table(custom_orbits((8, 8, 8)), 2)
    with pytest.raises(ExactnessError):
        list(counting.orbit_counts(custom_orbits((8, 8, 8)), 2))

    # No points fixed at n = 30 or n = 210 leaves least(n) below zero.
    for n in (30, 210):
        for number in (int, Decimal):
            message = _same_error_at(monkeypatch, n, lambda c: c * 0, number)
            assert message.startswith("negative least-period count -"), message
            assert message.endswith(f" at n={n}"), message


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
                assert orbit_count_iterate(base, k, n) == direct[n - 1]


def test_orbit_count_iterate_range_errors():
    table = build_table(CIRCLE_DOUBLING, 10)
    with pytest.raises(ValueError):
        orbit_count_iterate(table, 2, 6)
    with pytest.raises(ValueError):
        orbit_count_iterate(table, 0, 1)
    with pytest.raises(ValueError):
        orbit_count_iterate(table, 2, 0)


def test_orbit_count_iterate_negative_is_hard_error():
    with pytest.raises(ExactnessError):
        orbit_count_iterate((-1, 0), 1, 1)


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
            assert iterate_square_identity(base, n) == direct[n - 1]


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
