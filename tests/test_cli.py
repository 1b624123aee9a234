import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import orbitkit
from orbitkit.cli import main
from orbitkit.output import write_table


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
    path = tmp_path / "orbits.txt"
    path.write_text("1\nnope\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "table", "--map", str(path), "--max", "2")
    assert code == 1
    assert "not an integer" in err


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
    code, _, err = run_cli(capsys, "pnt", "--map", "f", "--max", "6")
    assert code == 1
    assert "burn_in" in err


def test_merten_values(capsys):
    code, out, _ = run_cli(capsys, "merten", "--map", "g", "--max", "3")
    assert code == 0
    _, rows = csv_rows(out)
    assert [r[1] for r in rows] == ["1/2", "3/4", "1/1"]
    assert rows[0][4] == ""  # normalized undefined at X = 1


def test_merten_precision_env(monkeypatch, capsys):
    monkeypatch.setenv("ORBITKIT_PRECISION_BITS", "80")
    code, out, _ = run_cli(capsys, "merten", "--map", "f", "--max", "3")
    assert code == 0
    assert "# precision_bits=80" in out.splitlines()


def test_bad_precision_env(monkeypatch, capsys):
    monkeypatch.setenv("ORBITKIT_PRECISION_BITS", "abc")
    code, _, err = run_cli(capsys, "merten", "--map", "f", "--max", "3")
    assert code == 1
    monkeypatch.setenv("ORBITKIT_PRECISION_BITS", "50")
    code, _, err = run_cli(capsys, "merten", "--map", "f", "--max", "3")
    assert code == 1
    assert err == "orbitkit: error: ORBITKIT_PRECISION_BITS must lie in 60..10000, got 50\n"
    monkeypatch.setenv("ORBITKIT_PRECISION_BITS", "10000")
    code, _, _ = run_cli(capsys, "merten", "--map", "f", "--max", "3")
    assert code == 0


@pytest.mark.parametrize("argv, env, message", [
    (("pnt", "--map", "f", "--max", "100", "--digits", "50000000"), {},
     "--digits must lie in 1..1000, got 50000000"),
    (("merten", "--map", "f", "--max", "20"), {"ORBITKIT_PRECISION_BITS": "100000000"},
     "ORBITKIT_PRECISION_BITS must lie in 60..10000, got 100000000"),
])
def test_oversized_precision_is_refused_at_once(argv, env, message):
    src = str(Path(orbitkit.__file__).resolve().parents[1])
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-m", "orbitkit.cli", *argv], env=env,
                            capture_output=True, text=True, timeout=10)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == f"orbitkit: error: {message}\n"


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


# Orbit counts of the pinned custom-data zeta case, written to a file per run.
PINNED_ORBITS = [(37 * n * n + 11) % 997 for n in range(1, 201)]


@pytest.mark.parametrize("argv, sha256", [
    (("verify", "--max", "100"),
     "c5abe16c6bcfebfb833eb7433430060f52ae345525c64e8f80b7f7981c491ca8"),
    (("verify", "--max", "2000"),
     "f99173af0c6916ff669ff1f61f1bb154dadc6798f42f18ab56e96559d2b104bd"),
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
], ids=lambda value: value[-1] if isinstance(value, tuple) else None)
def test_verify_output_bytes_pinned(capsys, tmp_path, argv, sha256):
    path = tmp_path / "orbits.txt"
    path.write_text("".join(f"{c}\n" for c in PINNED_ORBITS), encoding="utf-8")
    code, out, _ = run_cli(capsys, *(str(path) if a == "<orbits>" else a for a in argv))
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256
