import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import pytest

import orbitkit
from orbitkit import cli
from orbitkit.asymptotics import merten_series, ratio_series
from orbitkit.cli import main
from orbitkit.counting import (
    CIRCLE_DOUBLING,
    THREE_ADIC_EXTENSION,
    build_table,
    custom_orbits,
    fix_counts,
    iterate,
)
from orbitkit.output import format_fraction, write_table


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_table_extension(capsys):
    code, out, _ = run_cli(capsys, "table", "--map", "f", "--max", "6")
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["n", "fix_count", "least_count", "orbit_count"]
    assert rows[0] == ["1", "1", "1", "1"]
    assert rows[-1] == ["6", "7", "0", "0"]
    assert any(line.startswith("# map=3-adic-extension") for line in out.splitlines())


def test_table_doubling_single_row(capsys):
    code, out, _ = run_cli(capsys, "table", "--map", "g", "--max", "1")
    assert code == 0
    _, rows = csv_rows(out)
    assert rows == [["1", "1", "1", "1"]]


def test_table_rejects_empty_range(capsys):
    code, _, err = run_cli(capsys, "table", "--map", "f", "--max", "0")
    assert code == 1
    assert "error" in err


def test_table_iterate_maps(capsys):
    code, out, _ = run_cli(capsys, "table", "--map", "g2", "--max", "3")
    assert code == 0
    _, rows = csv_rows(out)
    assert [r[1] for r in rows] == ["3", "15", "63"]  # 4^n - 1


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    capsys.readouterr()


def test_unknown_map_is_validation_error(capsys):
    code, _, err = run_cli(capsys, "table", "--map", "/no/such/file", "--max", "3")
    assert code == 1
    assert "cannot read orbit file" in err


def test_custom_orbit_file(tmp_path, capsys):
    path = tmp_path / "orbits.txt"
    path.write_text("1\n3\n0\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "table", "--map", str(path), "--max", "4")
    assert code == 0
    _, rows = csv_rows(out)
    assert [r[1] for r in rows] == ["1", "7", "1", "7"]


def test_custom_orbit_file_count_beyond_4300_digits(tmp_path, capsys):
    count = "7" * 5000
    path = tmp_path / "orbits.txt"
    path.write_text(count + "\n", encoding="utf-8")
    limit = sys.get_int_max_str_digits()
    code, out, _ = run_cli(capsys, "table", "--map", str(path), "--max", "1")
    assert code == 0
    _, rows = csv_rows(out)
    assert rows == [["1", count, count, count]]
    assert sys.get_int_max_str_digits() == limit


def test_custom_orbit_file_bad_content(tmp_path, capsys):
    # int() alone would read "1_0" as 10 and the Arabic-Indic digit three as 3.
    path = tmp_path / "orbits.txt"
    for line in ("nope", "1_0", "\u0663", "1.0", "0x1"):
        path.write_text(f"1\n{line}\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "table", "--map", str(path), "--max", "2")
        assert (code, out) == (1, ""), line
        assert err == f"orbitkit: error: {path}:2: not a decimal integer: {line!r}\n"
    path.write_bytes(b"1\n\xff\n")
    code, out, err = run_cli(capsys, "table", "--map", str(path), "--max", "2")
    assert (code, out) == (1, "")
    assert err.startswith(f"orbitkit: error: cannot read orbit file {str(path)!r}: ")
    assert "decode" in err


def test_custom_orbit_file_blank_line(tmp_path, capsys):
    path = tmp_path / "orbits.txt"
    path.write_text("1\n\n3\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "table", "--map", str(path), "--max", "3")
    assert code == 1
    assert out == ""
    assert f"{path}:2: blank line" in err


@pytest.mark.parametrize("argv", [
    ("pnt", "--map", "g2", "--max", "8000"),
    ("pnt", "--map", "f2", "--max", "100"),
    ("merten", "--map", "g2", "--max", "8000"),
])
def test_map_specific_formulas_refuse_other_maps(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("orbitkit: error: ") and "only" in err


def test_custom_orbit_file_refused_by_pnt_and_merten(tmp_path, capsys):
    path = tmp_path / "orbits.txt"
    path.write_text("1\n3\n0\n", encoding="utf-8")
    for command in ("pnt", "merten"):
        code, _, err = run_cli(capsys, command, "--map", str(path), "--max", "3")
        assert code == 1
        assert "entropy log 2" in err


def test_pnt_final_ratio(capsys):
    code, out, _ = run_cli(
        capsys, "pnt", "--map", "f", "--max", "6", "--burn-in", "1"
    )
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["X", "pi", "ratio", "ratio_decimal", "running_min", "running_max"]
    assert rows[-1][0] == "6"
    assert rows[-1][2] == "15/32"
    assert rows[-1][3] == "0.468750000000"
    assert rows[-1][4] == "1/4"
    assert rows[-1][5] == "25/32"


def test_pnt_default_burn_in_needs_room(capsys):
    code, out, err = run_cli(capsys, "pnt", "--map", "f", "--max", "6")
    assert (code, out) == (1, "")
    assert err == ("orbitkit: error: --burn-in must be at least 1 and below --max, "
                   "got --burn-in 64 and --max 6\n")


def test_pnt_checks_burn_in_before_building(capsys, monkeypatch):
    def no_build(*args):
        raise AssertionError("pnt built a table for a rejected --burn-in")

    monkeypatch.setattr(cli, "build_table", no_build)
    for burn_in in ("100", "0"):
        code, out, err = run_cli(capsys, "pnt", "--map", "f", "--max", "100", "--burn-in", burn_in)
        assert (code, out) == (1, "")
        assert err == ("orbitkit: error: --burn-in must be at least 1 and below --max, "
                       f"got --burn-in {burn_in} and --max 100\n")


def test_pnt_burn_in_range(capsys):
    for burn_in in ("0", "-3", "6"):
        code, out, err = run_cli(capsys, "pnt", "--map", "f", "--max", "6", "--burn-in", burn_in)
        assert (code, out) == (1, "")
        assert err.startswith("orbitkit: error: --burn-in must be at least 1 and below --max")
    code, out, _ = run_cli(capsys, "pnt", "--map", "f", "--max", "6", "--burn-in", "5")
    assert code == 0
    assert [row[0] for row in csv_rows(out)[1]] == ["5", "6"]


def test_pnt_running_extrema(capsys):
    # f's ratios from X = 3 are 9/16, 1/2, 25/32, 15/32.
    code, out, _ = run_cli(capsys, "pnt", "--map", "f", "--max", "6", "--burn-in", "3")
    assert code == 0
    assert [(row[2], row[4], row[5]) for row in csv_rows(out)[1]] == [
        ("9/16", "9/16", "9/16"),
        ("1/2", "1/2", "9/16"),
        ("25/32", "1/2", "25/32"),
        ("15/32", "15/32", "25/32"),
    ]


def test_merten_values(capsys):
    code, out, _ = run_cli(capsys, "merten", "--map", "g", "--max", "3")
    assert code == 0
    _, rows = csv_rows(out)
    assert [r[1] for r in rows] == ["1/2", "3/4", "1/1"]
    assert rows[0][4] == ""  # normalized undefined at X = 1


def test_oversized_precision_is_refused_at_once():
    argv = ("pnt", "--map", "f", "--max", "100", "--digits", "50000000")
    result = subprocess.run([sys.executable, "-m", "orbitkit.cli", *argv],
                            env=subprocess_env(), capture_output=True, text=True,
                            timeout=10)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == "orbitkit: error: --digits must lie in 1..1000, got 50000000\n"


def subprocess_env():
    """The environment of a fresh interpreter that imports this orbitkit."""
    src = str(Path(orbitkit.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


FOOTPRINT_SCRIPT = """
import contextlib, io, json, sys
sys.modules["mpmath"] = None  # blocked: importing it raises ImportError
from orbitkit.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    print(json.dumps([code, "orbitkit.verify" in sys.modules]))
"""


def test_commands_run_without_mpmath_and_only_verify_loads_the_check_suite():
    commands = [["--version"], ["table", "--map", "f", "--max", "50"],
                ["pnt", "--map", "f", "--max", "100", "--format", "json"],
                ["zeta", "coeffs", "--map", "f", "--degree", "50"],
                ["zeta", "xi1-check", "--degree", "50"],
                ["zeta", "boundary", "--angle", "1/3", "--radii", "0.1,0.49", "--degree", "100"],
                ["merten", "--map", "f", "--max", "20"], ["verify", "--max", "30"]]
    result = subprocess.run([sys.executable, "-c", FOOTPRINT_SCRIPT, json.dumps(commands)],
                            env=subprocess_env(), capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    seen = [json.loads(line) for line in result.stdout.splitlines()]
    # Every command succeeds with mpmath blocked; only verify loads the suite.
    assert seen == [[0, False]] * (len(commands) - 1) + [[0, True]]


def test_importing_the_cli_loads_neither_dataclasses_nor_json():
    # Every command pays for what importing the CLI loads.
    code = ("import sys, orbitkit.cli; print([m for m in ('dataclasses', 'inspect', 'json', "
            "'orbitkit.verify') if m in sys.modules])")
    result = subprocess.run([sys.executable, "-S", "-c", code], env=subprocess_env(),
                            capture_output=True, text=True, timeout=30)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


@pytest.mark.parametrize("digits", ["0", "1001"])
def test_digits_range(capsys, digits):
    code, out, err = run_cli(capsys, "verify", "--max", "3", "--digits", digits)
    assert code == 1
    assert out == ""
    assert err == f"orbitkit: error: --digits must lie in 1..1000, got {digits}\n"


def test_zeta_coeffs(capsys):
    code, out, _ = run_cli(capsys, "zeta", "coeffs", "--map", "f", "--degree", "5")
    assert code == 0
    _, rows = csv_rows(out)
    assert [r[1] for r in rows] == ["1", "1", "1", "3", "4", "10"]


def test_zeta_xi1_check_passes(capsys):
    code, out, _ = run_cli(capsys, "zeta", "xi1-check", "--degree", "100")
    assert code == 0
    _, rows = csv_rows(out)
    assert rows == [["100", "PASS"]]


@pytest.mark.parametrize("degree", ["1", "5001"])
def test_zeta_xi1_check_degree_range(capsys, degree):
    code, out, err = run_cli(capsys, "zeta", "xi1-check", "--degree", degree)
    assert code == 1
    assert out == ""
    assert err == f"orbitkit: error: --degree must lie in 2..5000, got {degree}\n"


def test_zeta_boundary_scan(capsys):
    code, out, _ = run_cli(
        capsys,
        "zeta", "boundary",
        "--angle", "1/3",
        "--radii", "0.49,0.499,0.4999",
        "--terms", "10",
        "--degree", "200",
    )
    assert code == 0
    _, rows = csv_rows(out)
    moduli = [float(r[3]) for r in rows]
    assert moduli[0] > moduli[1] > moduli[2]
    assert rows[0][1] == "1" and rows[0][2] == "3"


def test_zeta_boundary_negative_angle_as_separate_word(capsys):
    tail = ("--radii", "0.1,0.49", "--terms", "3", "--degree", "50")
    code, joined, _ = run_cli(capsys, "zeta", "boundary", "--angle=-5/7", *tail)
    assert code == 0
    code, separate, err = run_cli(capsys, "zeta", "boundary", "--angle", "-5/7", *tail)
    assert (code, err) == (0, "")
    assert separate == joined


def test_zeta_boundary_angle_digits_are_bounded_before_any_work(capsys):
    tail = ("--radii", "0.1", "--terms", "2", "--degree", "20")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "zeta", "boundary", "--angle", "1e999999999", *tail)
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err == ("orbitkit: error: --angle must be a rational like 1/3 or 0.25, with at "
                   "most 100 digits and no exponent, got '1e999999999'\n")
    for angle, status in (("1/" + "3" * 99, 0), ("1/" + "3" * 100, 1), ("2.5E-1", 1),
                          ("0.25", 0)):
        assert run_cli(capsys, "zeta", "boundary", "--angle", angle, *tail)[0] == status


def test_zeta_boundary_validation(capsys):
    code, _, err = run_cli(
        capsys, "zeta", "boundary", "--angle", "1/3", "--radii", "0.6"
    )
    assert code == 1
    code, _, err = run_cli(
        capsys, "zeta", "boundary", "--angle", "nope", "--radii", "0.1"
    )
    assert code == 1
    code, out, err = run_cli(
        capsys, "zeta", "boundary", "--angle", "1/3", "--radii", "0.1", "--terms", "650"
    )
    assert code == 1
    assert out == ""
    assert err == "orbitkit: error: --terms must lie in 0..100, got 650\n"


BOUNDARY_TAIL = ("--terms", "2", "--degree", "20")


def assert_boundary_refused(capsys, angle, radii, option, value):
    code, out, err = run_cli(capsys, "zeta", "boundary", "--angle", angle, "--radii", radii,
                             *BOUNDARY_TAIL)
    assert (code, out) == (1, "")
    assert err.startswith(f"orbitkit: error: {option} must be ")
    assert err.endswith(f", got {value!r}\n")


def test_zeta_boundary_refuses_an_underscore_in_the_angle(capsys):
    # Fraction() alone reads 1_0/3 as 10/3.
    assert_boundary_refused(capsys, "1_0/3", "0.1", "--angle", "1_0/3")


def test_zeta_boundary_refuses_non_ascii_digits_in_the_angle(capsys):
    assert_boundary_refused(capsys, "\u0663/7", "0.1", "--angle", "\u0663/7")  # Arabic-Indic 3


def test_zeta_boundary_refuses_an_underscore_in_the_radii(capsys):
    # float() alone reads " 0.4_9" as 0.49.
    assert_boundary_refused(capsys, "1/3", " 0.4_9", "--radii", " 0.4_9")


def test_zeta_boundary_refuses_non_ascii_digits_in_the_radii(capsys):
    assert_boundary_refused(capsys, "1/3", "\u0660.\u0664", "--radii", "\u0660.\u0664")


def test_zeta_boundary_refuses_an_empty_radius(capsys):
    for radii in ("0.4,,0.3,", "0.4,", ",0.4", "", " "):
        assert_boundary_refused(capsys, "1/3", radii, "--radii", radii)


def test_zeta_boundary_radii_keep_spaces_and_exponents(capsys):
    code, spaced, _ = run_cli(capsys, "zeta", "boundary", "--angle", "1/3",
                              "--radii", " 0.49, 4.99e-1 ", *BOUNDARY_TAIL)
    assert code == 0
    code, plain, _ = run_cli(capsys, "zeta", "boundary", "--angle", "1/3",
                             "--radii", "0.49,0.499", *BOUNDARY_TAIL)
    assert (code, spaced) == (0, plain)


def test_json_output(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--map", "g", "--max", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["map"] == "circle-doubling"
    assert payload["rows"][1] == {
        "n": "2",
        "fix_count": "3",
        "least_count": "2",
        "orbit_count": "1",
    }


def test_output_to_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out, _ = run_cli(
        capsys, "table", "--map", "g", "--max", "2", "--output", str(target)
    )
    assert code == 0
    assert out == ""
    assert "n,fix_count" in target.read_text(encoding="utf-8")


def test_output_to_missing_directory_is_io_error(tmp_path, capsys):
    target = tmp_path / "missing" / "out.csv"
    code, out, err = run_cli(
        capsys, "table", "--map", "g", "--max", "2", "--output", str(target)
    )
    assert code == 1
    assert out == ""
    assert err.startswith("orbitkit: i/o error: ") and "Traceback" not in err
    assert not target.parent.exists()


def test_write_table_writes_csv_rows_as_it_pulls_them(monkeypatch):
    monkeypatch.setattr(sys, "stdout", io.StringIO())
    written_before_pull = []

    def rows():
        for n in range(3):
            written_before_pull.append(sys.stdout.tell())
            yield str(n), str(n * n)

    write_table("csv", None, {"command": "squares"}, ("n", "square"), rows())
    first, second, third = written_before_pull
    assert 0 < first < second < third
    assert sys.stdout.getvalue() == "# command=squares\nn,square\n0,0\n1,1\n2,4\n"


def test_write_table_writes_json_rows_as_it_pulls_them(monkeypatch):
    monkeypatch.setattr(sys, "stdout", io.StringIO())
    written_before_pull = []

    def rows():
        for n in range(3):
            written_before_pull.append(sys.stdout.tell())
            yield str(n), str(n * n)

    write_table("json", None, {"command": "squares"}, ("n", "square"), rows())
    first, second, third = written_before_pull
    assert 0 < first < second < third
    assert json.loads(sys.stdout.getvalue()) == {
        "meta": {"command": "squares"},
        "rows": [{"n": str(n), "square": str(n * n)} for n in range(3)],
    }


def test_byte_identical_reruns(capsys):
    _, first, _ = run_cli(capsys, "merten", "--map", "f", "--max", "10")
    _, second, _ = run_cli(capsys, "merten", "--map", "f", "--max", "10")
    assert first == second


def test_verify_small_window_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max", "32")
    assert code == 0
    _, rows = csv_rows(out)
    assert rows and all(row[1] == "PASS" for row in rows)
    vacuous = [row for row in rows if "vacuous" in row[3]]
    assert vacuous  # small window leaves some checks without content


def test_verify_digits_flag_accepted(capsys):
    code, _, _ = run_cli(capsys, "verify", "--max", "8", "--digits", "6")
    assert code == 0


def test_verify_fault_injection_fails(monkeypatch, capsys):
    import orbitkit.verify as verify

    monkeypatch.setattr(verify, "padic_factor", lambda n: 0)
    code, out, _ = run_cli(capsys, "verify", "--max", "16")
    assert code == 2
    _, rows = csv_rows(out)
    assert any(row[1] == "FAIL" for row in rows)


def test_verify_list_names_the_checks_in_order(capsys):
    import orbitkit.verify as verify

    code, out, _ = run_cli(capsys, "verify", "--list")
    assert code == 0
    assert "# checks=28" in out.splitlines()
    assert csv_rows(out) == (["check"], [[name] for name in verify.CHECKS])


def test_verify_list_honours_format_and_output(tmp_path, capsys):
    import orbitkit.verify as verify

    path = tmp_path / "names.json"
    code, out, _ = run_cli(capsys, "verify", "--list", "--format", "json", "--output", str(path))
    assert code == 0 and out == ""
    data = json.loads(path.read_text(encoding="utf-8"))
    assert data["meta"]["command"] == "verify --list"
    assert [row["check"] for row in data["rows"]] == list(verify.CHECKS)


def test_verify_list_and_only_are_exclusive(capsys):
    code, out, err = run_cli(capsys, "verify", "--list", "--only", "merten-sandwich")
    assert code == 1 and out == ""
    assert "not allowed with argument" in err


def test_verify_only_runs_one_check(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max", "300")
    full = dict((row[0], row) for row in csv_rows(out)[1])
    for name in ("merten-sandwich", "zeta-two-routes", "padic-abs-range"):
        code, out, _ = run_cli(capsys, "verify", "--only", name, "--max", "300")
        assert code == 0
        assert "# checks=1" in out.splitlines()
        assert csv_rows(out)[1] == [full[name]]


def test_verify_only_exits_2_on_a_failing_check(monkeypatch, capsys):
    import orbitkit.verify as verify

    monkeypatch.setattr(verify, "padic_factor", lambda n: 0)
    code, out, _ = run_cli(capsys, "verify", "--only", "padic-closed-form", "--max", "16")
    assert code == 2
    assert csv_rows(out)[1] == [["padic-closed-form", "FAIL", "n<=16", "mismatch at n=2"]]


def test_verify_only_refuses_an_unknown_name(capsys):
    code, out, err = run_cli(capsys, "verify", "--only", "no-such-check")
    assert code == 1 and out == ""
    assert err == ("orbitkit: error: unknown check 'no-such-check'; "
                   "verify --list names the checks\n")


def test_verify_exactness_error_is_a_fail_row(monkeypatch, capsys):
    import orbitkit.counting as counting
    import orbitkit.zeta as zeta

    def top_level_of_f_dropped(spec, n_max):
        den, terms = counting.fix_terms(spec, n_max)
        return (den, terms[:-2]) if spec == counting.THREE_ADIC_EXTENSION else (den, terms)

    monkeypatch.setattr(zeta, "fix_terms", top_level_of_f_dropped)
    code, out, _ = run_cli(capsys, "verify", "--max", "400")
    assert code == 2
    _, rows = csv_rows(out)
    assert len(rows) == 28
    error = "ExactnessError: zeta coefficient at degree 162 is not an integer"
    assert [row for row in rows if row[1] == "FAIL"] == [
        ["zeta-two-routes", "FAIL", "", error],
        ["coefficient-growth", "FAIL", "", error],
    ]


# Custom data for the decimal-route oracles: zeros, small counts and counts
# of a few hundred digits.
ORACLE_ORBITS = [0, 0, 5] + [(37 * n * n + 11) % 997 * 10 ** (n % 7 * 60) for n in range(300)]


def unlimited_str(value):
    """str(value) past CPython's 4300-digit cap, which the CLI lifts too."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("name", ["f", "g", "f2", "g2", "<orbits>"])
def test_table_columns_match_str_of_int(capsys, tmp_path, name):
    spec = {"f": THREE_ADIC_EXTENSION, "g": CIRCLE_DOUBLING,
            "f2": iterate(THREE_ADIC_EXTENSION, 2), "g2": iterate(CIRCLE_DOUBLING, 2),
            "<orbits>": custom_orbits(ORACLE_ORBITS)}[name]
    path = tmp_path / "orbits.txt"
    path.write_text("".join(f"{c}\n" for c in ORACLE_ORBITS), encoding="utf-8")
    code, out, _ = run_cli(capsys, "table", "--map", str(path) if name == "<orbits>" else name,
                           "--max", "2000")
    assert code == 0
    _, rows = csv_rows(out)
    fix, orbits = list(fix_counts(spec, 2000)), build_table(spec, 2000).orbit_counts
    assert rows == [[str(n), str(fix[n - 1]), str(n * orbits[n - 1]), str(orbits[n - 1])]
                    for n in range(1, 2001)]


def test_table_g2_row_8000_is_4_to_the_8000_minus_1(tmp_path, capsys):
    target = tmp_path / "g2.csv"
    code, _, _ = run_cli(capsys, "table", "--map", "g2", "--max", "8000",
                         "--output", str(target))
    assert code == 0
    with open(target, "rb") as handle:
        handle.seek(-30000, os.SEEK_END)
        last = handle.read().decode("ascii").splitlines()[-1]
    n, fix, _, _ = last.split(",")
    assert (n, fix) == ("8000", unlimited_str(4**8000 - 1))


@pytest.mark.parametrize("spec, name, burn_in", [
    (THREE_ADIC_EXTENSION, "f", "1"), (THREE_ADIC_EXTENSION, "f", "64"),
    (CIRCLE_DOUBLING, "g", "1"), (CIRCLE_DOUBLING, "g", "64"),
])
def test_pnt_columns_match_str_and_format_fraction(capsys, spec, name, burn_in):
    code, out, _ = run_cli(capsys, "pnt", "--map", name, "--max", "2000", "--burn-in", burn_in)
    assert code == 0
    _, rows = csv_rows(out)
    table = build_table(spec, 2000)
    first = int(burn_in)
    pi = list(accumulate(table.orbit_counts))  # pi(X) = pi[X - 1]
    # The running extrema against min and max of Fraction prefixes.
    ratios = [Fraction(X * pi[X - 1], 2 ** (X + 1)) for X in range(first, 2001)]
    lows, highs = accumulate(ratios, min), accumulate(ratios, max)
    assert [(X, pi, ratio, lo, hi) for X, pi, ratio, _, lo, hi in rows] == [
        (str(X), str(pi[X - 1]), format_fraction(ratio), format_fraction(lo),
         format_fraction(hi))
        for X, ratio, lo, hi in zip(range(first, 2001), ratios, lows, highs)
    ]
    # The library's exact ratios are the same values.
    assert list(ratio_series(spec, table.orbit_counts))[first - 1:] == ratios


@pytest.mark.parametrize("command", ["table", "pnt", "merten"])
def test_table_commands_build_through_cli_build_table(monkeypatch, capsys, command):
    # The benchmark times the sieve where cli binds build_table; a command
    # that reached it another way would time as 0 there.  table builds one
    # Decimal table there and renders from it; pnt and merten build none:
    # their series read the int orbit stream and they render the Decimal one.
    calls = []

    def recording(spec, n_max, number=int):
        calls.append((spec, n_max, number))
        return build_table(spec, n_max, number)

    monkeypatch.setattr(cli, "build_table", recording)
    code, _, _ = run_cli(capsys, command, "--map", "f", "--max", "100")
    assert code == 0
    assert calls == ([(THREE_ADIC_EXTENSION, 100, Decimal)] if command == "table" else [])


def test_table_holds_one_list_of_counts():
    # The fix column streams beside the Decimal orbit table, so the command
    # peaks near the size of that table alone; a second list of Decimal
    # counts would double it.
    spec = iterate(CIRCLE_DOUBLING, 2)
    tracemalloc.start()
    try:
        table = build_table(spec, 3000, Decimal)
        size = tracemalloc.get_traced_memory()[0]
        del table
        tracemalloc.stop()
        tracemalloc.start()
        assert main(["table", "--map", "g2", "--max", "3000", "--output", os.devnull]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * size, (peak, size)


@pytest.mark.parametrize("command", ["pnt", "merten"])
def test_series_commands_hold_no_orbit_table(command):
    # pnt and merten compute their series from the int orbit stream and
    # render from the Decimal one, reading each as they go, so neither holds
    # a list of big numbers: each peaks near the size of f's int table at
    # --max 5000, which neither builds.
    tracemalloc.start()
    try:
        table = build_table(THREE_ADIC_EXTENSION, 5000)
        size = tracemalloc.get_traced_memory()[0]
        del table
        tracemalloc.stop()
        tracemalloc.start()
        assert main([command, "--map", "f", "--max", "5000", "--output", os.devnull]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * size, (peak, size)


PEAK_RSS_SCRIPT = """
import resource, sys
from collections import deque
from decimal import Decimal
from orbitkit.counting import THREE_ADIC_EXTENSION as f, build_table, orbit_counts
if sys.argv[1] == "streams":
    deque(zip(orbit_counts(f, 10**4), orbit_counts(f, 10**4, Decimal)), maxlen=0)
else:
    build_table(f, 10**4, Decimal)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""

# Linux carries the peak RSS of the process that forks into the child's, so
# the children start from a fresh small interpreter, not from this one.
LAUNCH_SCRIPT = """
import subprocess, sys
for what in ("streams", "table"):
    child = subprocess.run([sys.executable, "-c", sys.argv[1], what],
                           capture_output=True, text=True)
    sys.stderr.write(child.stderr)
    child.check_returncode()
    print(child.stdout.strip())
"""


def test_orbit_streams_peak_below_the_decimal_table():
    # pnt and merten read f's int and Decimal orbit streams side by side;
    # table builds the Decimal table.  The streams keep each fix count they
    # need once and grow no sum in place, so they peak lower in RSS than the
    # table: about 18 against 21 MB on CPython 3.11.  Sums grown in place
    # fragment the heap: a forward sieve over them peaked at 23 MB.
    pytest.importorskip("resource")
    result = subprocess.run([sys.executable, "-c", LAUNCH_SCRIPT, PEAK_RSS_SCRIPT],
                            env=subprocess_env(), capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    streams, table = map(int, result.stdout.split())
    assert streams < table, (streams, table)


@pytest.mark.parametrize("spec, name", [(THREE_ADIC_EXTENSION, "f"), (CIRCLE_DOUBLING, "g")])
def test_merten_sum_matches_format_fraction(capsys, spec, name):
    code, out, _ = run_cli(capsys, "merten", "--map", name, "--max", "2000")
    assert code == 0
    _, rows = csv_rows(out)
    sums = merten_series(spec, build_table(spec, 2000).orbit_counts)
    assert [(row[0], row[1]) for row in rows] == [
        (str(X), format_fraction(total)) for X, total in enumerate(sums, start=1)
    ]


# Orbit counts of the pinned custom-data zeta case, written to a file per run.
PINNED_ORBITS = [(37 * n * n + 11) % 997 for n in range(1, 201)]

PINNED_OUTPUTS = [
    (("verify", "--max", "100"),
     "c5abe16c6bcfebfb833eb7433430060f52ae345525c64e8f80b7f7981c491ca8"),
    (("verify", "--max", "2000"),
     "f99173af0c6916ff669ff1f61f1bb154dadc6798f42f18ab56e96559d2b104bd"),
    (("verify", "--max", "5000"),
     "cbded098befa26f2a566f4418556a177353250ba89c2e9102d11aca177f05e8b"),
    (("zeta", "coeffs", "--map", "f", "--degree", "500"),
     "a9b612ca435dd39016a3bffd9fd385fb5ae3f7d17eb2d823cff49bcdd7f877cc"),
    (("zeta", "coeffs", "--map", "f", "--degree", "500", "--format", "json"),
     "5fb8cc431800eb43ca651f0d955d0f59269bb12d6697eaf0e18fffaf4fac2846"),
    (("zeta", "xi1-check", "--degree", "500"),
     "ef046bc40ef1743bb78c1f7c27c5a9982f743a20062e4138f92babde9fd9489b"),
    (("table", "--map", "f", "--max", "300"),
     "8fb301b49bf055bfe39874c2c741326a6c9a98bd48a7d556cd4c36968d870231"),
    (("pnt", "--map", "f", "--max", "300"),
     "12c609257c3a5c7f3390002afda28663138be4ad282a62664d58e9cf0c39451b"),
    (("merten", "--map", "g", "--max", "300", "--format", "json"),
     "a5f9e36d9e09e9c2a89d0b681f822f2b703eb746ed9f83066f0a187c2884bc5a"),
    (("pnt", "--map", "g", "--max", "300", "--burn-in", "1"),
     "93bf7388cb850a4989d184913ec456c96325a36e31dba83efd2a05f25df7a778"),
    (("merten", "--map", "f", "--max", "1"),
     "a1f3326d4e51d89f44d87ff612cc6d76c1c8e7e7f4fa75fc56083cb62f5878da"),
    (("zeta", "boundary", "--angle", "1/3", "--radii", "0.49,0.499", "--terms", "6",
      "--degree", "300"),
     "241dcc5252c94605853ebdcda679fb6f3397b7078c4ad33fbdf4aef13b0072c2"),
    (("zeta", "boundary", "--angle", "2/9", "--radii", "0.1,0.49,0.499", "--terms", "6",
      "--degree", "300"),
     "f3d2c7592724645a0e4631d43c9d624a3f3cb8948eaf721644b4b70e8f08c729"),
    (("zeta", "boundary", "--angle", "-5/7", "--radii", "0.1,0.49,0.499", "--terms", "6",
      "--degree", "300"),
     "99606ad6d342b193bc92382669829bb48e9acd33a010c9e9ce400a24f9b0b587"),
    (("zeta", "coeffs", "--map", "f", "--degree", "5000"),
     "f8399e08eb4048f1404895e64752408adde7c3ae90e21e34a9d63e93a88e7698"),
    (("zeta", "coeffs", "--map", "g", "--degree", "5000"),
     "9b84e4bd3c56cd9c6292d80bbc5b1906b254ae65773bc275e3abc244ecd6db07"),
    (("zeta", "coeffs", "--map", "g2", "--degree", "5000"),
     "980390fba419877142f09a1bb6402fd1763b37f35f8d0cbbd531cebc71adb1a9"),
    (("table", "--map", "f2", "--max", "300"),
     "a8e59e6230e8f9035a3c7eef4cc56a5c12535cadc56ece81955df6dd38f915bf"),
    (("table", "--map", "g2", "--max", "300"),
     "fcd814c5ab4bf9da1dd701fb57f4ef5ebf1c97ba8f6d468e54d5d6c02b4e8d71"),
    (("zeta", "coeffs", "--map", "f2", "--degree", "1500"),
     "32770745f5772dc0029638252b6eb0229875cf49f5691cb5992e0de6656b12c8"),
    (("zeta", "coeffs", "--map", "<orbits>", "--degree", "2000"),
     "533c3739f8c14e57c05ef52c820d7c6f578d14f3aea4a848f5db768ce20d2219"),
]


def _pinned_id(value):
    return value[-1] if isinstance(value, tuple) else None


def _assert_pinned_output(capsys, tmp_path, argv, sha256):
    path = tmp_path / "orbits.txt"
    path.write_text("".join(f"{c}\n" for c in PINNED_ORBITS), encoding="utf-8")
    code, out, _ = run_cli(capsys, *(str(path) if a == "<orbits>" else a for a in argv))
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256


@pytest.mark.parametrize("argv, sha256", PINNED_OUTPUTS, ids=_pinned_id)
def test_verify_output_bytes_pinned(capsys, tmp_path, argv, sha256):
    _assert_pinned_output(capsys, tmp_path, argv, sha256)


@pytest.mark.parametrize("argv, sha256", [
    case for case in PINNED_OUTPUTS if case[0][:2] in (("zeta", "coeffs"), ("zeta", "boundary"))
], ids=_pinned_id)
def test_zeta_commands_print_pinned_bytes_without_an_orbit_table(
        monkeypatch, capsys, tmp_path, argv, sha256):
    # The zeta series and the scan read fix counts only: no orbit table.
    def no_table(*args, **kwargs):
        raise AssertionError("a zeta command built an orbit table")

    monkeypatch.setattr(cli, "build_table", no_table)
    _assert_pinned_output(capsys, tmp_path, argv, sha256)


DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"


def output_rows(out):
    """The data rows of a CSV or JSON table."""
    if out.startswith("{"):
        return len(json.loads(out)["rows"])
    return len(csv_rows(out)[1])


@pytest.mark.parametrize("command", json.loads(DIGESTS.read_text(encoding="utf-8")))
def test_benchmark_digests_hold(capsys, command):
    # The benchmark compares these outputs with the digests it pins; a byte
    # that drifts at --max 10000 or --degree 10000 fails here first.
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))[command]
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == pinned["sha256"]
    assert output_rows(out) == pinned["rows"]


@pytest.mark.parametrize("argv, sha256", [
    (("merten", "--map", "g", "--max", "64", "--digits", "100"),
     "b8facadac438c34f8b22cbf5a4e4c5e549b632a1fafb1bd8faeb48da67ae5b2a"),
    (("merten", "--map", "f", "--max", "300", "--digits", "40", "--format", "json"),
     "cb8364be76ba7acc70afd76148e577ced98c7c31739aa6bb9db2907bdb94c133"),
])
def test_merten_real_columns_are_rounded_to_doubles(capsys, argv, sha256):
    # ln X and sum/ln X are computed to 64 bits, then printed rounded to the
    # nearest double: at 100 digits the exact values would print other digits.
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256


def test_merten_ignores_a_stale_precision_setting(monkeypatch, capsys):
    # ORBITKIT_PRECISION_BITS no longer exists; a setting left in the
    # environment changes no byte.
    argv = ("merten", "--map", "g", "--max", "64", "--digits", "100")
    monkeypatch.delenv("ORBITKIT_PRECISION_BITS", raising=False)
    unset = run_cli(capsys, *argv)
    monkeypatch.setenv("ORBITKIT_PRECISION_BITS", "200")
    assert run_cli(capsys, *argv) == unset
    assert unset[0] == 0 and "# precision_bits=64" in unset[1].splitlines()
