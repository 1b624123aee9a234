"""Acceptance suite: every criterion at its stated window and tolerance.

Each criterion asserts the ``CheckResult``s that ``verify`` returns for it,
so the checks in ``orbitkit.verify`` are the one implementation of every
criterion.  The windows are pinned through each result's ``params``: n <= 5000
for the 3-adic closed form, n and X <= 2000 for the rest, degrees 400/500
for zeta.  Each test prints one PASS line per check on success (run pytest
with -s to see them); a failed assert is the FAIL line.
"""

import gc
import tracemalloc
import weakref

import pytest

from orbitkit import asymptotics, verify
from orbitkit.arith import Dyadic, divisors
from orbitkit.asymptotics import delta_gap, ratio_series
from orbitkit.counting import (
    CIRCLE_DOUBLING,
    THREE_ADIC_EXTENSION,
    OrbitTable,
    build_table,
    fix_terms,
)


@pytest.fixture(scope="module")
def checks():
    results = {r.name: r for r in verify.run_checks(2000)}
    results["padic-closed-form"] = verify.CHECKS["padic-closed-form"](5000)
    return results


def _assert_passed(checks, number, windows):
    """Each named check passed, with content, over the stated window."""
    for name, params in windows.items():
        result = checks[name]
        label = f"criterion {number}: {name}"
        assert result.passed, f"{label} FAIL ({result.params}): {result.detail}"
        assert result.params == params, f"{label} ran over {result.params}"
        assert "vacuous" not in result.detail, f"{label} {result.detail}"
        print(f"PASS {label} ({params}) {result.detail}".rstrip())


def test_criterion_01_padic_closed_form_vs_brute_force(checks):
    _assert_passed(checks, 1, {"padic-closed-form": "n<=5000"})


def test_criterion_02_inversion_roundtrip_and_divisibility(checks):
    _assert_passed(checks, 2, {"inversion-roundtrip": "n<=2000, maps f and g"})


def test_inversion_roundtrip_reports_divisibility(monkeypatch):
    import orbitkit.counting as counting

    original = counting.fix_counts

    def fix_of_f_off_at_5(spec, n_max, number):
        # fix(5) = 32 makes least(5) = 31, which 5 does not divide
        fix = list(original(spec, n_max, number))
        if spec == THREE_ADIC_EXTENSION and n_max >= 5:
            fix[4] += 1
        return iter(fix)

    monkeypatch.setattr(counting, "fix_counts", fix_of_f_off_at_5)
    result = verify.CHECKS["inversion-roundtrip"](300)
    assert not result.passed
    assert result.detail == "ExactnessError: 5 does not divide least-period count 31"
    broken = {"inversion-roundtrip": result}
    with pytest.raises(AssertionError, match="inversion-roundtrip FAIL"):
        test_criterion_02_inversion_roundtrip_and_divisibility(broken)


def test_criterion_03_domination_and_divisor_sum_bound(checks):
    _assert_passed(checks, 3, {
        "orbit-domination": "n<=2000",
        "proper-divisor-sum-bound": "n<=2000",
    })


def test_criterion_04_iterate_double_sum_and_square_formula(checks):
    _assert_passed(checks, 4, {
        "iterate-double-sum": "n<=200, k in (2,3), bases f and g",
        "square-iterate-identity": "n<=500, bases f and g",
    })


def test_criterion_05_killed_orbits(checks):
    _assert_passed(checks, 5, {"killed-orbits": "n in (2, 6)"})


def test_criterion_06_extension_ratio_band(checks):
    _assert_passed(checks, 6, {
        "extension-ratio-band": "64<=X<=2000, band [1/3-0.02, 1+0.02]",
    })


def test_criterion_07_doubling_ratio_baseline(checks):
    _assert_passed(checks, 7, {"doubling-ratio-limit": "64<=X<=2000, |ratio-1| < 0.02"})


def test_criterion_08_merten_sandwich(checks):
    _assert_passed(checks, 8, {
        "merten-sandwich": "16<=X<=2000, 0.5*ln X - 2 <= sum <= ln X + 2",
        "merten-doubling-baseline": "16<=X<=2000, |sum - ln X| <= 2",
    })


def test_criterion_09_zeta_two_routes(checks):
    _assert_passed(checks, 9, {"zeta-two-routes": "degree 400, maps f and g"})


def test_criterion_10_lacunary_identity_and_decomposition(checks):
    _assert_passed(checks, 10, {
        "xi1-identity": "degree 500",
        "exponent-decomposition": "degree 400",
    })


def test_criterion_11_boundary_behaviour(checks):
    _assert_passed(checks, 11, {
        "boundary-zeros": "(j, r) in ((1,1), (1,2), (2,2)), terms 4",
        "boundary-decrease":
            "ray 2pi/3, radii (0.49, 0.495, 0.499, 0.4995, 0.4999), terms 10",
        "interior-agreement": "z=0.4, terms=8, degree=4000, tol=1e-06",
    })


def test_criterion_12_custom_counterexample(checks):
    _assert_passed(checks, 12, {"custom-counterexample": "n<=100"})


def test_criterion_13_fix_ratio_witnesses(checks):
    _assert_passed(checks, 13, {"fix-ratio-witnesses": "n<=200, witnesses > 2.2 and < 1.0"})


def test_criterion_14_fix_term_form(checks):
    # the term form that drives zeta_series, against the tables' fix counts
    _assert_passed(checks, 14, {
        "fix-term-form": "n<=2000 for f and g, n<=500 for k=2, n<=200 for k=3",
    })


def test_every_check_passes_at_the_acceptance_window(checks):
    assert list(checks) == list(verify.CHECKS)
    failed = [(r.name, r.detail) for r in checks.values() if not r.passed]
    assert not failed


def test_broken_check_fails_its_criterion(checks, monkeypatch):
    monkeypatch.setattr(verify, "padic_factor", lambda n: 0)
    broken = {**checks, "padic-closed-form": verify.CHECKS["padic-closed-form"](5000)}
    with pytest.raises(AssertionError, match="padic-closed-form FAIL"):
        test_criterion_01_padic_closed_form_vs_brute_force(broken)


def test_broken_term_form_fails_its_criterion(checks, monkeypatch):
    def top_level_dropped(spec, n_max):
        den, terms = fix_terms(spec, n_max)
        return den, terms[:-2]

    monkeypatch.setattr(verify, "fix_terms", top_level_dropped)
    result = verify.CHECKS["fix-term-form"](2000)
    assert result.detail == "3-adic-extension at n=1458"  # 2*3**6, the dropped level
    broken = {**checks, "fix-term-form": result}
    with pytest.raises(AssertionError, match="fix-term-form FAIL"):
        test_criterion_14_fix_term_form(broken)


class Tracked(Dyadic):
    """A Dyadic that takes weak references."""

    __slots__ = ("__weakref__",)


def tracking_last(values, alive):
    """``values`` with its last entry, which every window from a burn-in
    holds, swapped for a weakly referenced equal one."""
    last = values[-1] = Tracked(values[-1].numerator, values[-1].shift)
    alive.append(weakref.ref(last))
    return values


def test_run_checks_builds_ratio_series_per_reader(monkeypatch):
    # A ratio window lives only in the check that reads it: f's two readers
    # build f's ratios each, and g's one reader g's.
    built = []
    original = asymptotics.ratio_series

    def counted(spec, counts):
        built.append(spec.label)
        return original(spec, counts)

    monkeypatch.setattr(asymptotics, "ratio_series", counted)
    verify.run_checks(200)
    assert sorted(built) == ["3-adic-extension", "3-adic-extension", "circle-doubling"]


def test_run_checks_builds_f_and_g_once_and_keeps_none(monkeypatch):
    built, alive = [], []
    original = verify.build_table

    def recorded(spec, n_max):
        table = original(spec, n_max)
        built.append((spec, n_max))
        alive.append(weakref.ref(table))
        return table

    monkeypatch.setattr(verify, "build_table", recorded)
    results = verify.run_checks(300)
    assert all(r.passed for r in results)
    assert built.count((THREE_ADIC_EXTENSION, 300)) == 1
    assert built.count((CIRCLE_DOUBLING, 300)) == 1
    gc.collect()
    assert [ref for ref in alive if ref() is not None] == []


def test_direct_check_calls_keep_nothing_for_run_checks(monkeypatch):
    built, alive = [], []
    original_build, original_ratio = verify.build_table, asymptotics.ratio_series

    def recorded_build(spec, n_max):
        table = original_build(spec, n_max)
        built.append((spec, n_max))
        alive.append(weakref.ref(table))
        return table

    def recorded_ratio(spec, counts):
        return tracking_last(list(original_ratio(spec, counts)), alive)

    def assert_nothing_alive():
        gc.collect()
        assert [ref for ref in alive if ref() is not None] == []

    monkeypatch.setattr(verify, "build_table", recorded_build)
    monkeypatch.setattr(asymptotics, "ratio_series", recorded_ratio)
    assert verify.CHECKS["fix-term-form"](300).passed
    assert verify.CHECKS["extension-ratio-band"](300).passed
    assert_nothing_alive()
    built.clear()
    assert all(r.passed for r in verify.run_checks(300))
    assert built.count((THREE_ADIC_EXTENSION, 300)) == 1
    assert built.count((CIRCLE_DOUBLING, 300)) == 1
    assert_nothing_alive()


@pytest.mark.parametrize("max_n", [1, 6, 64, 65, 300])
def test_direct_check_calls_match_run_checks(max_n):
    # A check called on its own builds its inputs; in a run it reads the
    # run's shared ones.  Both paths give the same result.
    results = verify.run_checks(max_n)
    assert [r.name for r in results] == list(verify.CHECKS)
    for result in results:
        assert verify.CHECKS[result.name](max_n) == result


def test_run_checks_builds_ln_x_once_and_keeps_none(monkeypatch):
    built, alive = [], []
    original_log = asymptotics.log_table

    def recorded_log(n, bits):
        built.append((n, bits))
        return tracking_last(original_log(n, bits), alive)

    def assert_nothing_alive():
        gc.collect()
        assert [ref for ref in alive if ref() is not None] == []

    monkeypatch.setattr(asymptotics, "log_table", recorded_log)
    assert all(r.passed for r in verify.run_checks(300))
    assert built == [(300, asymptotics.MERTEN_PRECISION_BITS)]
    assert_nothing_alive()
    # A check called on its own builds its own table and keeps it no longer.
    built.clear()
    for name in ("merten-sandwich", "merten-doubling-baseline"):
        assert verify.CHECKS[name](300).passed
    assert built == [(300, asymptotics.MERTEN_PRECISION_BITS)] * 2
    assert_nothing_alive()


def test_run_checks_shares_lists_never_streams(monkeypatch):
    # A second reader zipping over a used-up stream would check nothing, so
    # every value the checks share must be a list, a tuple or a table of
    # tuples, never an iterator such as fix_counts' stream.
    runs, shared = [], {}

    class Recorded(verify._Shared):
        def __init__(self, max_n):
            super().__init__(max_n)
            runs.append(self)

        def __delattr__(self, name):  # a value dropped before the run ends
            shared[name] = getattr(self, name)
            super().__delattr__(name)

    monkeypatch.setattr(verify, "_Shared", Recorded)
    assert all(r.passed for r in verify.run_checks(500))
    [run] = runs
    shared.update(vars(run))
    assert shared.pop("max_n") == 500
    assert sorted(shared) == ["divisor_lists", "f", "g", "logs"]
    for key, value in shared.items():
        if isinstance(value, OrbitTable):
            value = value.orbit_counts
        assert isinstance(value, (list, tuple)), (key, type(value))


def test_run_checks_lists_divisors_once_and_drops_them(monkeypatch):
    class Divisors(list):  # a list that takes weak references
        pass

    listed, alive = [], []
    original_divisors, original_build = verify.divisors, verify.build_table

    def recorded_divisors(n):
        ds = Divisors(original_divisors(n))
        listed.append((n, weakref.ref(ds)))
        return ds

    def recorded_build(spec, n_max):
        gc.collect()
        alive.append(sum(ref() is not None for _, ref in listed))
        return original_build(spec, n_max)

    monkeypatch.setattr(verify, "divisors", recorded_divisors)
    monkeypatch.setattr(verify, "build_table", recorded_build)
    assert all(r.passed for r in verify.run_checks(300))
    assert [n for n, _ in listed] == list(range(1, 301))
    # inversion-roundtrip builds f's table while the lists are shared;
    # iterate-double-sum builds after proper-divisor-sum-bound dropped them.
    assert alive[0] == 300 and alive[-1] == 0
    # A check called on its own lists to its max, as run_checks does.
    listed.clear()
    assert verify.CHECKS["divisor-pairing"](2500).passed
    assert [n for n, _ in listed] == list(range(1, 2501))


def test_run_checks_peak_memory_is_near_what_it_shares():
    # A run holds f's and g's tables and, until their last reader, the
    # divisor lists; what a single check reads (fix counts, a ratio window)
    # is freed when it returns, so the run peaks little above the three.
    tracemalloc.start()
    try:
        shared = (build_table(THREE_ADIC_EXTENSION, 2000), build_table(CIRCLE_DOUBLING, 2000),
                  [divisors(n) for n in range(1, 2001)])
        size = tracemalloc.get_traced_memory()[0]
        del shared
        tracemalloc.stop()
        tracemalloc.start()
        verify.run_checks(2000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.55 * size, (peak, size)


def test_delta_gap_bound_reads_the_gaps_as_a_stream():
    # delta-gap-bound reads one (gap, even_bound) pair at a time from
    # delta_gap, so beside f's and g's tables it holds no list of them.
    run = verify._Shared(3000)
    tracemalloc.start()
    try:
        run.f, run.g  # the shared tables, built before the check runs
        size = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert verify.CHECKS["delta-gap-bound"](3000, run).passed
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - size <= 0.05 * size, (peak - size, size)


def test_coefficient_growth_decides_its_bound_exactly(monkeypatch):
    # c_200 = 2**190 meets |log2(c_n)/n - 1| <= 0.05 with equality, which
    # the float rate misses: abs(0.95 - 1.0) is 0.050000000000000044.
    assert abs(190 / 200 - 1.0) > 0.05
    coeffs = list(verify.zeta_series(THREE_ADIC_EXTENSION, 200))
    monkeypatch.setattr(verify, "zeta_series", lambda spec, degree: coeffs)
    coeffs[200] = 2**190
    assert verify.CHECKS["coefficient-growth"](200).passed
    coeffs[200] = 2**190 - 1
    result = verify.CHECKS["coefficient-growth"](200)
    assert not result.passed and result.detail == "rate 0.9500 at n=200", result


def test_divisor_checks_still_read_every_n(monkeypatch):
    # The shared lists and the Möbius values reach every n of each window:
    # a fault at the last n fails each check there, and f before g.
    original_divisors, original_mobius = verify.divisors, verify.mobius
    mobius_calls = []

    def divisors_without_1_at_300(n):
        ds = original_divisors(n)
        return ds[1:] if n == 300 else ds

    def recorded_mobius(d):
        mobius_calls.append(d)
        return original_mobius(d)

    monkeypatch.setattr(verify, "divisors", divisors_without_1_at_300)
    monkeypatch.setattr(verify, "mobius", recorded_mobius)
    results = {r.name: r for r in verify.run_checks(300)}
    assert mobius_calls == list(range(1, 301))
    assert results["mobius-divisor-sum"].detail == "sum over divisors of 300 is -1"
    assert results["divisor-pairing"].detail == "fails at 300"
    assert results["inversion-roundtrip"].detail == "f at n=300"

    monkeypatch.setattr(verify, "divisors", original_divisors)
    monkeypatch.setattr(verify, "mobius", lambda d: original_mobius(d) + (d == 300))
    result = verify.CHECKS["mobius-divisor-sum"](300)
    assert result.detail == "sum over divisors of 300 is 1"


def test_pi_sum_spot_values():
    # anchors the aggregate counts used across the criteria
    table_f = build_table(THREE_ADIC_EXTENSION, 6)
    table_g = build_table(CIRCLE_DOUBLING, 6)
    assert list(ratio_series(table_f.spec, table_f.orbit_counts))[-1].numerator // 6 == 10  # pi(6)
    assert list(ratio_series(table_g.spec, table_g.orbit_counts))[-1].numerator // 6 == 22
    assert list(delta_gap(table_f, table_g))[-1] == (12, 13)
