import math
import re
import tracemalloc
from fractions import Fraction

import pytest

from orbitkit import counting, zeta
from orbitkit.arith import ExactnessError
from orbitkit.cli import main
from orbitkit.counting import (
    CIRCLE_DOUBLING,
    THREE_ADIC_EXTENSION,
    build_table,
    custom_orbits,
    fix_count,
    fix_counts,
    iterate,
)
from orbitkit.zeta import (
    BoundaryPoint,
    _add_scaled,
    modulus_product,
    orbit_product_series,
    radial_scan,
    series_modulus,
    xi1_closed_form,
    xi1_direct,
    xi_from_closed_parts,
    xi_series,
    zeta_series,
)

F, G = THREE_ADIC_EXTENSION, CIRCLE_DOUBLING


@pytest.fixture(scope="module")
def tf():
    return build_table(F, 150)


@pytest.fixture(scope="module")
def tg():
    return build_table(G, 150)


def test_xi_series_examples():
    assert xi_series(F, 3) == (0, 1, Fraction(1, 2), Fraction(7, 3))
    assert xi_series(G, 2) == (0, 1, Fraction(3, 2))
    assert xi_series(F, 1) == (0, 1)


def test_xi_series_range():
    with pytest.raises(ValueError):
        xi_series(F, -1)


def test_zeta_series_examples():
    assert zeta_series(F, 5) == (1, 1, 1, 3, 4, 10)
    assert zeta_series(G, 5) == (1, 1, 2, 4, 8, 16)
    assert zeta_series(F, 0) == (1,)


def test_orbit_product_examples(tf, tg):
    assert orbit_product_series(tf, 5) == (1, 1, 1, 3, 4, 10)
    assert orbit_product_series(tg, 2) == (1, 1, 2)
    empty = build_table(custom_orbits((0, 0)), 2)
    assert orbit_product_series(empty, 2) == (1, 0, 0)


def test_orbit_product_degree_range(tf):
    # The orbit route reads its table, so its degree must lie in the table.
    for degree in (-1, 151):
        with pytest.raises(ValueError):
            orbit_product_series(tf, degree)


def test_two_routes_agree(tf, tg):
    assert zeta_series(F, 120) == orbit_product_series(tf, 120)
    assert zeta_series(G, 120) == orbit_product_series(tg, 120)


def test_doubling_zeta_closed_form():
    series = zeta_series(G, 60)
    assert series[0] == 1
    for n in range(1, 61):
        assert series[n] == 1 << (n - 1)


def test_zeta_coefficients_nonnegative_integers():
    for c in zeta_series(F, 100):
        assert type(c) is int
        assert c >= 0


def test_zeta_hard_error_on_corrupt_table(monkeypatch):
    # Custom data runs the convolution over fix_counts; no genuine orbit
    # data has these fix counts.  With F = (2, 1), 2*c_2 = 2*2 + 1 is odd.
    monkeypatch.setattr(zeta, "fix_counts", lambda spec, n_max: iter([2, 1][:n_max]))
    with pytest.raises(ExactnessError):
        zeta_series(custom_orbits((5, 5)), 2)
    monkeypatch.setattr(zeta, "fix_counts", lambda spec, n_max: iter([-2][:n_max]))  # c_1 = -2
    with pytest.raises(ExactnessError):
        zeta_series(custom_orbits((4, 4)), 1)


def _first_weight_off_by_one(spec, n_max):
    den, ((w, s, m), *rest) = counting.fix_terms(spec, n_max)
    return den, ((w + 1, s, m), *rest)


def _top_level_dropped(spec, n_max):
    den, terms = counting.fix_terms(spec, n_max)
    return den, terms[:-2]


@pytest.mark.parametrize("broken", [_first_weight_off_by_one, _top_level_dropped])
def test_broken_term_form_of_f_is_hard_error(monkeypatch, broken):
    monkeypatch.setattr(zeta, "fix_terms", broken)
    with pytest.raises(ExactnessError):
        zeta_series(F, 400)


def test_broken_term_form_of_g_fails_verify(monkeypatch, capsys):
    def broken(spec, n_max):
        if spec == CIRCLE_DOUBLING:
            return _first_weight_off_by_one(spec, n_max)
        return counting.fix_terms(spec, n_max)

    # g's den is 1, so the wrong weight still divides: only the oracle sees it
    monkeypatch.setattr(zeta, "fix_terms", broken)
    assert main(["verify", "--max", "400"]) == 2
    failed = [line for line in capsys.readouterr().out.splitlines() if ",FAIL," in line]
    assert failed == ["zeta-two-routes,FAIL,\"degree 400, maps f and g\",g series differ"]


def test_xi1_direct_examples():
    series = xi1_direct(6)
    assert series[2] == 3
    assert series[4] == Fraction(15, 2)
    assert series[6] == 7
    assert all(series[n] == 0 for n in (0, 1, 3, 5))
    with pytest.raises(ValueError):
        xi1_direct(1)


def test_xi1_closed_form_examples():
    series = xi1_closed_form(6)
    assert series[2] == 3
    assert series[3] == 0
    assert series[6] == 7
    with pytest.raises(ValueError):
        xi1_closed_form(1)


def test_alignment_enforced():
    with pytest.raises(ValueError):
        _add_scaled((1, 2), 1, (1, 2, 3))


def test_xi1_identity_moderate():
    assert xi1_direct(130) == xi1_closed_form(130)


def test_decomposition_identity():
    assert xi_series(F, 130) == xi_from_closed_parts(130)


def test_modulus_product_exact_boundary_zeros():
    for j, r in ((1, 1), (1, 2), (2, 2)):
        point = BoundaryPoint(Fraction(1, 2), Fraction(j, 3**r))
        assert modulus_product(point, max(r, 1) + 2) == 0.0


def test_modulus_product_zero_needs_enough_terms():
    # the level-2 factor vanishes only once the product includes j = 2
    point = BoundaryPoint(Fraction(1, 2), Fraction(1, 9))
    assert modulus_product(point, 1) > 0.0
    assert modulus_product(point, 2) == 0.0


def test_modulus_product_minus_half_is_formula_zero():
    # (2z)**(2*3^j) = 1 at z = -1/2, so every level vanishes there
    point = BoundaryPoint(Fraction(1, 2), Fraction(1, 2))
    assert modulus_product(point, 0) == 0.0
    assert modulus_product(point, 3) == 0.0


def test_modulus_product_pole_and_range():
    with pytest.raises(ValueError):
        modulus_product(BoundaryPoint(Fraction(1, 2), Fraction(0)), 3)
    with pytest.raises(ValueError):
        modulus_product(BoundaryPoint(Fraction(1, 4), Fraction(0)), -1)
    with pytest.raises(ValueError):
        BoundaryPoint(Fraction(3, 4), Fraction(1, 3))
    with pytest.raises(ValueError):
        BoundaryPoint(Fraction(0), Fraction(1, 3))


def test_boundary_point_to_complex():
    z = BoundaryPoint(Fraction(1, 2), Fraction(1, 2)).to_complex()
    assert abs(z - (-0.5)) < 1e-15


def test_scan_product_decreases_toward_zero():
    rows = radial_scan(Fraction(1, 3), [0.49, 0.495, 0.499, 0.4995, 0.4999], 10, 150)
    values = [row.product_modulus for row in rows]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 0.70


def test_scan_ray_pi_frozen_band():
    # values computed from the product side; the formula's zero sits at the
    # endpoint z = -1/2 itself, so interior samples stay within this band
    rows = radial_scan(Fraction(1, 2), [0.49, 0.495, 0.499, 0.4995, 0.4999], 10, 150)
    values = [row.product_modulus for row in rows]
    assert all(0.03 < v < 0.30 for v in values)
    assert values[0] == pytest.approx(0.2581938011935356, rel=1e-9)


def test_scan_deep_interior_agreement():
    row = radial_scan(Fraction(37, 100), [0.1], 10, 2000)[0]
    assert abs(row.product_modulus - row.series_modulus) <= 1e-9


def test_scan_rows_are_deterministic():
    first = radial_scan(Fraction(1, 3), [0.25, 0.4], 6, 150)
    second = radial_scan(Fraction(1, 3), [0.25, 0.4], 6, 150)
    assert first == second


def test_scan_validation():
    with pytest.raises(ValueError):
        radial_scan(Fraction(1, 3), [0.5], 6, 150)
    with pytest.raises(ValueError):
        radial_scan(Fraction(1, 3), [0.0], 6, 150)


@pytest.mark.parametrize("turns", ["1/3", "2/9", "-5/7", "1/2", "37/100"])
def test_exact_point_off_the_rim_is_its_complex_value(turns):
    # Each scan row is both routes at the exact point of its radius.
    turns = Fraction(turns)
    radii = (0.1, 0.49, 0.4999)
    for terms in (0, 10, 100):
        rows = radial_scan(turns, radii, terms, 150)
        for r, row in zip(radii, rows, strict=True):
            point = BoundaryPoint(Fraction(r), turns)
            assert row.product_modulus == modulus_product(point, terms)
            assert row.series_modulus == series_modulus(F, 150, point)


@pytest.mark.parametrize("degree", [1, 7, 150, 3000])
def test_scan_series_column_is_series_modulus(degree):
    # radial_scan scales f's coefficients once for all its radii; each row
    # must still be the very float series_modulus gives.
    radii = (0.001, 0.1, 0.25, 0.3, 0.49, 0.4999)
    for turns in ("0", "1/3", "2/9", "-5/7", "1/2", "37/100", "1/1000"):
        turns = Fraction(turns)
        rows = radial_scan(turns, radii, 6, degree)
        for r, row in zip(radii, rows, strict=True):
            point = BoundaryPoint(Fraction(r), turns)
            assert row.series_modulus == series_modulus(F, degree, point)


def test_scan_holds_no_list_of_fix_counts():
    # At degree 10000 a list of f's fix counts holds about 6 MB of ints;
    # the scan reads none: one float per degree, from the closed form.
    tracemalloc.start()
    try:
        radial_scan(Fraction(1, 3), [0.49], 10, 10000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


@pytest.mark.parametrize("spec", [F, G])
def test_scaled_fix_terms_are_the_int_quotients(spec):
    # The closed form (1 - 2**-n) * 3**-e(n) gives the very double of the
    # exact quotient F_n/2**n, then n divides it, at every n up to the
    # --degree cap of the boundary scan.
    degree = 10**4
    closed = zeta._scaled_fix_terms(spec, degree)
    exact = [fix_count(spec, n) / (1 << n) / n for n in range(1, degree + 1)]
    assert list(map(float.hex, closed)) == list(map(float.hex, exact))


def test_boundary_series_reads_no_fix_count(monkeypatch):
    point = BoundaryPoint(Fraction(49, 100), Fraction(1, 3))
    expected = [series_modulus(spec, 2000, point) for spec in (F, G)]
    scan = radial_scan(Fraction(1, 3), [0.49, 0.4999], 10, 2000)

    def no_counts(*args):
        raise AssertionError("the boundary series read the fix stream")

    monkeypatch.setattr(zeta, "fix_counts", no_counts)
    assert [series_modulus(spec, 2000, point) for spec in (F, G)] == expected
    assert radial_scan(Fraction(1, 3), [0.49, 0.4999], 10, 2000) == scan


@pytest.mark.parametrize("spec", [iterate(F, 2), iterate(G, 2), custom_orbits([1, 2, 3])])
def test_series_modulus_refuses_maps_other_than_f_and_g(spec):
    # The 2z scaling fits entropy log 2 alone; f2 at z = 0.49 overflowed
    # math.exp before it was refused.
    point = BoundaryPoint(Fraction(49, 100), Fraction(0))
    with pytest.raises(ValueError, match=f"got {re.escape(spec.label)}$"):
        series_modulus(spec, 150, point)


def test_boundary_series_refuses_a_negative_degree():
    point = BoundaryPoint(Fraction(1, 4), Fraction(1, 3))
    for spec in (F, G):
        assert series_modulus(spec, 0, point) == 1.0
        with pytest.raises(ValueError, match="degree"):
            series_modulus(spec, -1, point)
    with pytest.raises(ValueError, match="degree"):
        radial_scan(Fraction(1, 3), [0.25], 10, -1)


def test_series_modulus_matches_direct_sum():
    # doubling map at real z: exponent sum has the closed value
    # sum (2^n - 1) z^n / n = log((1-z)/(1-2z)) as the degree grows
    z = 0.3
    approx = series_modulus(G, 150, BoundaryPoint(Fraction(3, 10), Fraction(0)))
    exact = abs((1 - z) / (1 - 2 * z))
    assert approx == pytest.approx(exact, abs=1e-12)


def test_coefficient_growth_window():
    # log2 of the coefficients grows at unit rate, matching the radius of
    # convergence 1/2 of the series
    coeffs = zeta_series(F, 400)
    for n in range(200, 401):
        assert abs(math.log2(coeffs[n]) / n - 1.0) <= 0.05, f"n={n}"


def test_fix_ratio_witnesses():
    fix = list(fix_counts(F, 150))
    ratios = [Fraction(fix[n], fix[n - 1]) for n in range(1, 150)]
    assert any(r > Fraction(11, 5) for r in ratios)
    assert any(r < 1 for r in ratios)
