"""Command-line front end.

Every computation is exposed as a reproducible table on stdout (or a file)
in CSV or JSON.  Subcommands:

    table    fix/least/orbit counts up to a bound
    pnt      orbit-counting function with its normalized ratio
    merten   weighted orbit sums against ln X
    zeta     series coefficients, the lacunary-identity check, boundary scans
    verify   the full invariant suite, one PASS/FAIL line per check
             (--list names the checks, --only NAME runs one)

Exit status: 0 on success, 1 on a validation error, 2 on a verification
failure.  ``pnt`` reads the exact ratios from ``--burn-in`` twice, once as
floats for its cluster report and once for the rows, tracking their
running extrema as it renders them.  ``merten`` builds one ln X table,
rounds sum/ln X per row with ``merten_normalized``, both to 64
significant bits, and prints each rounded to the nearest double.

The big integers of ``table``, ``pnt`` and ``merten`` are rendered from
exact ``Decimal`` twins of the int counts and sums, built beside them in
``EXACT_DECIMAL``, in which every command runs: their strings take time
linear in the digits, where ``str`` of an int takes quadratic time.
``table`` holds one list of big counts: the Decimal orbit counts of
``build_table``, zipped with the stream of Decimal fix counts, which it
reads once.  ``pnt`` and ``merten`` hold no orbit table: their series read
streams of int orbit counts, and they render from the stream of Decimal
orbit counts.  ``zeta boundary`` reads the stream of fix counts into one
float per degree and holds none.

A command loads only what it runs: the check suite, ``orbitkit.verify``,
is loaded only by ``verify``, and ``json`` only by JSON output.
"""

from __future__ import annotations

import argparse
import re
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import islice
from typing import TYPE_CHECKING, Iterator

from . import __version__
from .arith import EXACT_DECIMAL, Dyadic
from .asymptotics import (
    DEFAULT_BURN_IN,
    MERTEN_PRECISION_BITS,
    MERTEN_SLACK,
    RATIO_BAND,
    cluster_ratios,
    log_table,
    merten_normalized,
    merten_series,
    ratio_series,
)
from .counting import (
    CIRCLE_DOUBLING,
    THREE_ADIC_EXTENSION,
    MapSpec,
    build_table,
    custom_orbits,
    fix_counts,
    iterate,
    orbit_counts,
)
from .output import (
    format_dyadic,
    format_fraction,
    format_fraction_decimal,
    format_real,
    write_table,
)
from .zeta import radial_scan, xi1_closed_form, xi1_direct, zeta_series

if TYPE_CHECKING:
    from .verify import CheckResult

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2

_ANGLE_DIGITS = 100
_DECIMAL_COUNT = re.compile(r"[+-]?[0-9]+")

_NAMED_MAPS = {
    "f": THREE_ADIC_EXTENSION,
    "g": CIRCLE_DOUBLING,
    "f2": iterate(THREE_ADIC_EXTENSION, 2),
    "g2": iterate(CIRCLE_DOUBLING, 2),
}


def _check_range(option: str, value: int, low: int, high: int) -> None:
    if not low <= value <= high:
        raise ValueError(f"{option} must lie in {low}..{high}, got {value}")


def _plain_ascii(text: str) -> bool:
    """No underscore and no non-ASCII character: int(), float() and
    Fraction() alone would also take "1_0" and digits such as "٣"."""
    return text.isascii() and "_" not in text


def _resolve_map(name: str) -> MapSpec:
    """A named map, or a path to a one-column file of orbit counts."""
    if name in _NAMED_MAPS:
        return _NAMED_MAPS[name]
    try:
        with open(name, "r", encoding="utf-8") as handle:
            lines = [line.strip() for line in handle]
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read orbit file {name!r}: {exc}") from exc
    counts = []
    for i, line in enumerate(lines, start=1):
        if not line:
            raise ValueError(f"{name}:{i}: blank line")
        # int() alone would also take "1_0" and non-ASCII digits such as "٣".
        if not _DECIMAL_COUNT.fullmatch(line):
            raise ValueError(f"{name}:{i}: not a decimal integer: {line!r}")
        value = int(line)
        if value < 0:
            raise ValueError(f"{name}:{i}: orbit counts must be non-negative")
        counts.append(value)
    if not counts:
        raise ValueError(f"orbit file {name!r} is empty")
    return custom_orbits(counts)


def _add_output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--digits", type=int, default=12,
                        help="decimal places for real-valued columns, 1..1000 (default 12)")
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="write to a file instead of stdout")


def _add_map_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--map", required=True, metavar="MAP",
        help="f, g, f2, g2, or a path to a one-column orbit-count file",
    )


def _cmd_table(args: argparse.Namespace) -> int:
    _check_range("--max", args.max, 1, 10**4)
    spec = _resolve_map(args.map)
    table = build_table(spec, args.max, Decimal)
    meta = {"command": "table", "map": spec.label, "max": args.max}
    if spec.entropy_base is not None:
        meta["entropy"] = f"log({spec.entropy_base})"
    # The products are exact: every command runs in EXACT_DECIMAL.  The fix
    # counts stream beside the table, so only its orbit counts are held.
    rows = (
        (str(n), str(fix), str(n * orbits), str(orbits))
        for n, (fix, orbits) in enumerate(
            zip(fix_counts(spec, args.max, Decimal), table.orbit_counts), start=1)
    )
    write_table(args.format, args.output, meta,
                ("n", "fix_count", "least_count", "orbit_count"), rows)
    return EXIT_OK


def _cmd_pnt(args: argparse.Namespace) -> int:
    _check_range("--max", args.max, 1, 10**4)
    spec = _resolve_map(args.map)
    first = args.burn_in
    # Checked before any count is read; a map that ratio_series refuses
    # (entropy other than log 2) gets that refusal, as it always has.
    if spec.entropy_base == 2 and not 1 <= first < args.max:
        raise ValueError(f"--burn-in must be at least 1 and below --max, "
                         f"got --burn-in {first} and --max {args.max}")
    # One ratio stream for the clusters, as floats, and one for the rows.
    ratios = ratio_series(spec, orbit_counts(spec, args.max))
    clusters = cluster_ratios([float(r) for r in islice(ratios, first - 1, None)])
    meta = {
        "command": "pnt",
        "map": spec.label,
        "max": args.max,
        "burn_in": first,
        "digits": args.digits,
        "band": f"[{', '.join(map(format_fraction, RATIO_BAND))}]",
        "ratio_clusters": "; ".join(f"{mean:.4f} x{count}" for mean, count in clusters),
    }
    write_table(args.format, args.output, meta,
                ("X", "pi", "ratio", "ratio_decimal", "running_min", "running_max"),
                _pnt_rows(ratio_series(spec, orbit_counts(spec, args.max)), first,
                          orbit_counts(spec, args.max, Decimal), args.digits))
    return EXIT_OK


def _pnt_rows(ratios: Iterator[Dyadic], first: int, orbit_stream: Iterator[Decimal],
              digits: int):
    """pnt's rows for X = first..n_max, from the ratios and the Decimal
    orbit counts of X = 1..n_max.  pi is the running sum of the orbit
    counts, and the ratio X*pi/2**(X+1) is rendered from it and a doubled
    power of two.  A running extremum is rendered once, at the X that
    reaches it, and repeated until another X passes it."""
    pi, power = sum(islice(orbit_stream, first - 1), Decimal(0)), Decimal(2) ** first
    low = high = None
    for X, (ratio, orbits) in enumerate(
            zip(islice(ratios, first - 1, None), orbit_stream, strict=True), start=first):
        pi += orbits
        power += power  # 2**(X+1)
        text = format_dyadic(ratio, X * pi, power)
        if low is None or ratio < low:
            low, running_min = ratio, text
        if high is None or ratio > high:
            high, running_max = ratio, text
        yield (str(X), str(pi), text, format_fraction_decimal(ratio, digits),
               running_min, running_max)


def _cmd_merten(args: argparse.Namespace) -> int:
    _check_range("--max", args.max, 1, 10**4)
    spec = _resolve_map(args.map)
    sums = merten_series(spec, orbit_counts(spec, args.max))
    meta = {
        "command": "merten",
        "map": spec.label,
        "max": args.max,
        "digits": args.digits,
        "precision_bits": MERTEN_PRECISION_BITS,
        "slack": str(MERTEN_SLACK),
    }
    write_table(args.format, args.output, meta,
                ("X", "sum", "sum_decimal", "log_x", "normalized"),
                _merten_rows(sums, log_table(args.max, MERTEN_PRECISION_BITS),
                             orbit_counts(spec, args.max, Decimal), args.digits))
    return EXIT_OK


def _merten_rows(sums: Iterator[Dyadic], logs: list[Dyadic],
                 orbit_stream: Iterator[Decimal], digits: int):
    """merten's rows.  The sum N_X/2**X is rendered from the Decimal
    numerator N_X = 2*N_(X-1) + orbits(X) and a doubled power of two."""
    numerator, power = Decimal(0), Decimal(1)
    for X, (total, log_x, orbits) in enumerate(zip(sums, logs, orbit_stream, strict=True),
                                                start=1):
        numerator += numerator + orbits
        power += power  # 2**X
        yield (
            str(X),
            format_dyadic(total, numerator, power),
            format_fraction_decimal(total, digits),
            # Each rounded to the nearest double: past about 17 significant
            # digits the printed digits come from the double, not from ln X.
            format_real(float(log_x), digits),
            format_real(float(merten_normalized(total, log_x)), digits) if X > 1 else "",
        )


def _cmd_zeta_coeffs(args: argparse.Namespace) -> int:
    _check_range("--degree", args.degree, 0, 5000)
    spec = _resolve_map(args.map)
    coeffs = zeta_series(spec, args.degree)
    meta = {"command": "zeta coeffs", "map": spec.label, "degree": args.degree}
    rows = ((str(n), str(c)) for n, c in enumerate(coeffs))
    write_table(args.format, args.output, meta, ("n", "coefficient"), rows)
    return EXIT_OK


def _cmd_zeta_xi1_check(args: argparse.Namespace) -> int:
    _check_range("--degree", args.degree, 2, 5000)
    direct = xi1_direct(args.degree)
    closed = xi1_closed_form(args.degree)
    verified = direct == closed
    meta = {"command": "zeta xi1-check", "degree": args.degree}
    rows = [(str(args.degree), "PASS" if verified else "FAIL")]
    write_table(args.format, args.output, meta, ("degree_verified", "status"), rows)
    return EXIT_OK if verified else EXIT_VERIFY


def _parse_angle(text: str) -> Fraction:
    """--angle as an exact fraction of a turn: NUM/DEN or a decimal.

    The digits are checked before ``Fraction`` sees them: an exponent lets
    a short argument ("1e999999999") stand for an integer of any size, and
    every row prints the angle's numerator and denominator.
    """
    if (_plain_ascii(text) and "e" not in text.lower()
            and sum(c.isdigit() for c in text) <= _ANGLE_DIGITS):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"--angle must be a rational like 1/3 or 0.25, with at most "
                     f"{_ANGLE_DIGITS} digits and no exponent, got {text!r}")


def _cmd_zeta_boundary(args: argparse.Namespace) -> int:
    turns = _parse_angle(args.angle)
    refusal = f"--radii must be comma-separated reals, got {args.radii!r}"
    if not _plain_ascii(args.radii):
        raise ValueError(refusal)
    try:
        # float() strips the spaces around an entry and refuses an empty one.
        radii = [float(part) for part in args.radii.split(",")]
    except ValueError as exc:
        raise ValueError(refusal) from exc
    # Past 100 levels no printed digit changes; near 650, 2*3**j leaves float range.
    _check_range("--terms", args.terms, 0, 100)
    _check_range("--degree", args.degree, 1, 10**4)
    # The boundary product is the 3-adic extension's, so the scan reads f.
    scan = radial_scan(turns, radii, args.terms, args.degree)
    digits = args.digits
    meta = {
        "command": "zeta boundary",
        "map": THREE_ADIC_EXTENSION.label,
        "angle_turns": format_fraction(turns),
        "terms": args.terms,
        "degree": args.degree,
        "digits": digits,
    }
    angle_num, angle_den = str(turns.numerator), str(turns.denominator)
    terms, degree = str(args.terms), str(args.degree)
    rows = (
        (
            format_real(row.radius, digits),
            angle_num,
            angle_den,
            format_real(row.product_modulus, digits),
            format_real(row.series_modulus, digits),
            terms,
            degree,
        )
        for row in scan
    )
    write_table(args.format, args.output, meta,
                ("radius", "angle_num", "angle_den", "product_modulus",
                 "series_modulus", "terms", "degree"),
                rows)
    return EXIT_OK


def _check_suite():
    """The ``verify`` module, imported on its first use, so that no other
    command compiles the check suite."""
    from . import verify

    return verify


def run_checks(max_n: int, only: "str | None" = None) -> list[CheckResult]:
    """``verify.run_checks``, or a one-item list of the check named ``only``."""
    suite = _check_suite()
    if only is None:
        return suite.run_checks(max_n)
    if only not in suite.CHECKS:
        raise ValueError(f"unknown check {only!r}; verify --list names the checks")
    return [suite.CHECKS[only](max_n)]


def _cmd_verify(args: argparse.Namespace) -> int:
    _check_range("--max", args.max, 1, 10**4)
    if args.list:
        names = list(_check_suite().CHECKS)
        write_table(args.format, args.output,
                    {"command": "verify --list", "checks": len(names), "version": __version__},
                    ("check",), [(name,) for name in names])
        return EXIT_OK
    results = run_checks(args.max, args.only)
    meta = {"command": "verify", "max": args.max,
            "checks": len(results), "version": __version__}
    rows = [
        (r.name, "PASS" if r.passed else "FAIL", r.params, r.detail)
        for r in results
    ]
    write_table(args.format, args.output, meta,
                ("check", "status", "params", "detail"), rows)
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitkit",
        description="Exact orbit counting and zeta-function data for the "
                    "circle-doubling map and its 3-adic isometric extension.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="fix/least/orbit counts")
    _add_map_option(p_table)
    p_table.add_argument("--max", type=int, required=True)
    _add_output_options(p_table)
    p_table.set_defaults(func=_cmd_table)

    p_pnt = sub.add_parser("pnt", help="orbit-counting function and ratio")
    _add_map_option(p_pnt)
    p_pnt.add_argument("--max", type=int, required=True)
    p_pnt.add_argument("--burn-in", dest="burn_in", type=int, default=DEFAULT_BURN_IN)
    _add_output_options(p_pnt)
    p_pnt.set_defaults(func=_cmd_pnt)

    p_merten = sub.add_parser("merten", help="weighted orbit sums vs ln X")
    _add_map_option(p_merten)
    p_merten.add_argument("--max", type=int, required=True)
    _add_output_options(p_merten)
    p_merten.set_defaults(func=_cmd_merten)

    p_zeta = sub.add_parser("zeta", help="zeta series and boundary data")
    zeta_sub = p_zeta.add_subparsers(dest="zeta_command", required=True)

    p_coeffs = zeta_sub.add_parser("coeffs", help="exact series coefficients")
    _add_map_option(p_coeffs)
    p_coeffs.add_argument("--degree", type=int, required=True)
    _add_output_options(p_coeffs)
    p_coeffs.set_defaults(func=_cmd_zeta_coeffs)

    p_xi1 = zeta_sub.add_parser("xi1-check", help="lacunary-series identity check")
    p_xi1.add_argument("--degree", type=int, required=True)
    _add_output_options(p_xi1)
    p_xi1.set_defaults(func=_cmd_zeta_xi1_check)

    p_boundary = zeta_sub.add_parser("boundary", help="radial |zeta| scan")
    # argparse reads an argument that starts with "-" as an option unless it
    # matches this negative-number pattern; the default one knows no "-N/D",
    # so "--angle -5/7" would lose its value.
    p_boundary._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")
    p_boundary.add_argument("--angle", required=True,
                            help="angle as a fraction of a full turn, e.g. 1/3")
    p_boundary.add_argument("--radii", required=True,
                            help="comma-separated radii in (0, 1/2)")
    p_boundary.add_argument("--terms", type=int, default=10,
                            help="product levels, 0..100 (default 10)")
    p_boundary.add_argument("--degree", type=int, default=2000,
                            help="series truncation for the series column (default 2000)")
    _add_output_options(p_boundary)
    p_boundary.set_defaults(func=_cmd_zeta_boundary)

    p_verify = sub.add_parser("verify", help="run the invariant suite")
    p_verify.add_argument("--max", type=int, default=500)
    pick = p_verify.add_mutually_exclusive_group()
    pick.add_argument("--list", action="store_true", help="list the check names in order")
    pick.add_argument("--only", metavar="NAME", help="run the one named check")
    _add_output_options(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; our contract reserves 2 for
        # verification failures, so fold usage problems into status 1.
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    # Counts outgrow CPython's 4300-digit cap on str(int)/int(str) well
    # inside the accepted ranges (g2 at --max 8000, large orbit files).
    digit_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        # Every subcommand takes --digits; bound it before any work is done.
        _check_range("--digits", args.digits, 1, 1000)
        with localcontext(EXACT_DECIMAL):
            return args.func(args)
    except ValueError as exc:
        print(f"orbitkit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"orbitkit: i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
