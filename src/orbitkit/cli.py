"""Command-line front end.

Every computation is exposed as a reproducible table on stdout (or a file)
in CSV or JSON.  Subcommands:

    table    fix/least/orbit counts up to a bound
    pnt      orbit-counting function with its normalized ratio
    merten   weighted orbit sums against ln X
    zeta     series coefficients, the lacunary-identity check, boundary scans
    verify   the full invariant suite, one PASS/FAIL line per check

Exit status: 0 on success, 1 on a validation error, 2 on a verification
failure.  The environment variable ORBITKIT_PRECISION_BITS (default 64,
range 60..10000) sets the working precision for real-valued columns.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction

from . import __version__
from .asymptotics import (
    DEFAULT_BURN_IN,
    DEFAULT_PRECISION_BITS,
    MERTEN_SLACK,
    RATIO_BAND,
    RatioPoint,
    cluster_ratios,
    merten_series,
    ratio_series,
)
from .counting import (
    CIRCLE_DOUBLING,
    THREE_ADIC_EXTENSION,
    MapSpec,
    build_table,
    custom_orbits,
    iterate,
)
from .output import format_fraction, format_fraction_decimal, format_real, write_table
from .verify import run_checks
from .zeta import radial_scan, xi1_closed_form, xi1_direct, zeta_series

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2

_NAMED_MAPS = {
    "f": THREE_ADIC_EXTENSION,
    "g": CIRCLE_DOUBLING,
    "f2": iterate(THREE_ADIC_EXTENSION, 2),
    "g2": iterate(CIRCLE_DOUBLING, 2),
}


def _precision_bits() -> int:
    raw = os.environ.get("ORBITKIT_PRECISION_BITS", "")
    if not raw:
        return DEFAULT_PRECISION_BITS
    try:
        bits = int(raw)
    except ValueError as exc:
        raise ValueError(f"ORBITKIT_PRECISION_BITS must be an integer, got {raw!r}") from exc
    _check_range("ORBITKIT_PRECISION_BITS", bits, 60, 10**4)
    return bits


def _check_range(option: str, value: int, low: int, high: int) -> None:
    if not low <= value <= high:
        raise ValueError(f"{option} must lie in {low}..{high}, got {value}")


def _resolve_map(name: str) -> MapSpec:
    """A named map, or a path to a one-column file of orbit counts."""
    if name in _NAMED_MAPS:
        return _NAMED_MAPS[name]
    try:
        with open(name, "r", encoding="utf-8") as handle:
            lines = [line.strip() for line in handle]
    except OSError as exc:
        raise ValueError(f"cannot read orbit file {name!r}: {exc}") from exc
    counts = []
    for i, line in enumerate(lines, start=1):
        if not line:
            raise ValueError(f"{name}:{i}: blank line")
        try:
            value = int(line)
        except ValueError as exc:
            raise ValueError(f"{name}:{i}: not an integer: {line!r}") from exc
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
    table = build_table(spec, args.max)
    meta = {"command": "table", "map": spec.label, "max": args.max}
    if spec.entropy_base is not None:
        meta["entropy"] = f"log({spec.entropy_base})"
    rows = (
        (str(n), str(fix), str(least), str(orbits))
        for n, fix, least, orbits in table.rows()
    )
    write_table(args.format, args.output, meta,
                ("n", "fix_count", "least_count", "orbit_count"), rows)
    return EXIT_OK


def _cmd_pnt(args: argparse.Namespace) -> int:
    _check_range("--max", args.max, 1, 10**4)
    spec = _resolve_map(args.map)
    table = build_table(spec, args.max)
    points = ratio_series(table, args.burn_in)
    clusters = cluster_ratios([p.ratio for p in points])
    meta = {
        "command": "pnt",
        "map": spec.label,
        "max": args.max,
        "burn_in": args.burn_in,
        "digits": args.digits,
        "band": f"[{', '.join(map(format_fraction, RATIO_BAND))}]",
        "ratio_clusters": "; ".join(f"{mean:.4f} x{count}" for mean, count in clusters),
    }
    write_table(args.format, args.output, meta,
                ("X", "pi", "ratio", "ratio_decimal", "running_min", "running_max"),
                _pnt_rows(points, args.digits))
    return EXIT_OK


def _pnt_rows(points: list[RatioPoint], digits: int):
    """pnt's rows; a running extremum is rendered only at the X that reaches it."""
    for p in points:
        ratio = format_fraction(p.ratio)
        if p.running_min == p.ratio:
            running_min = ratio
        if p.running_max == p.ratio:
            running_max = ratio
        yield (str(p.X), str(p.pi), ratio, format_fraction_decimal(p.ratio, digits),
               running_min, running_max)


def _cmd_merten(args: argparse.Namespace) -> int:
    _check_range("--max", args.max, 1, 10**4)
    spec = _resolve_map(args.map)
    bits = _precision_bits()
    table = build_table(spec, args.max)
    points = merten_series(table, bits)
    digits = args.digits
    meta = {
        "command": "merten",
        "map": spec.label,
        "max": args.max,
        "digits": digits,
        "precision_bits": bits,
        "slack": str(MERTEN_SLACK),
    }
    rows = (
        (
            str(p.X),
            format_fraction(p.sum),
            format_fraction_decimal(p.sum, digits),
            format_real(p.log_x, digits),
            "" if p.normalized is None else format_real(p.normalized, digits),
        )
        for p in points
    )
    write_table(args.format, args.output, meta,
                ("X", "sum", "sum_decimal", "log_x", "normalized"), rows)
    return EXIT_OK


def _cmd_zeta_coeffs(args: argparse.Namespace) -> int:
    _check_range("--degree", args.degree, 0, 5000)
    spec = _resolve_map(args.map)
    table = build_table(spec, max(args.degree, 1))
    coeffs = zeta_series(table, args.degree)
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


def _cmd_zeta_boundary(args: argparse.Namespace) -> int:
    try:
        turns = Fraction(args.angle)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"--angle must be a rational like 1/3, got {args.angle!r}") from exc
    try:
        radii = [float(part) for part in args.radii.split(",") if part]
    except ValueError as exc:
        raise ValueError(f"--radii must be comma-separated reals, got {args.radii!r}") from exc
    if not radii:
        raise ValueError("--radii must list at least one radius")
    # Past 100 levels no printed digit changes; near 650, 2*3**j leaves float range.
    _check_range("--terms", args.terms, 0, 100)
    _check_range("--degree", args.degree, 1, 10**4)
    # The boundary product is the 3-adic extension's, so the scan reads f's table.
    table = build_table(THREE_ADIC_EXTENSION, args.degree)
    scan = radial_scan(table, turns, radii, args.terms)
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


def _cmd_verify(args: argparse.Namespace) -> int:
    _check_range("--max", args.max, 1, 10**4)
    results = run_checks(args.max)
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
