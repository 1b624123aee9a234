"""Correctness checks for orbitkit CLI output, independent of orbitkit.

Each check takes the bytes a command wrote to stdout and returns the number
of output rows it verified, or raises ``Mismatch``.  Where a closed form
exists the check recomputes the expected values here, from first
principles, rather than trusting any orbitkit code:

* ``g2`` fix counts are 4**n - 1;
* ``f`` fix counts are 2**n - 1 with every factor 3 divided out (brute
  force division, not the 3-adic closed form);
* least-period counts sum over divisors to the fix counts, and each is n
  times the orbit count;
* a custom table returns the input counts in its orbit column;
* ``g`` zeta coefficients are 2**(n-1);
* other zeta coefficients must equal the Euler product over closed orbits,
  evaluated modulo a prime with NumPy;
* ``xi1-check`` prints PASS and ``verify`` passes every check.

``pnt``, ``merten`` and ``zeta boundary`` have no closed form; their output
is compared with the SHA-256 digest of the seed commit's output, stored in
``digests.json``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

DIGESTS_PATH = Path(__file__).with_name("digests.json")

# Largest prime below 2**31: residues times residues fit in int64.
PRIME = 2147483647

Check = Callable[[bytes], int]


class Mismatch(Exception):
    """The output differs from the expected value."""


@contextmanager
def unlimited_int_digits():
    # Outputs may legitimately hold integers longer than CPython's default
    # 4300-digit str<->int limit; lift it only while checking.
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def parse_csv(data: bytes) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """Split orbitkit CSV into '# key=value' metadata, header and rows."""
    text = data.decode("ascii")
    meta: dict[str, str] = {}
    body = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        else:
            body.append(line)
    records = list(csv.reader(body))
    if not records:
        raise Mismatch("no header row")
    return meta, records[0], records[1:]


def verdict(check: Check, data: bytes) -> int:
    """Rows verified by ``check``; output too malformed to parse is a Mismatch."""
    try:
        return check(data)
    except (ValueError, IndexError, csv.Error) as exc:
        raise Mismatch(f"malformed output: {exc}") from None


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


def _header(header: list[str], expected: Sequence[str]) -> None:
    _expect(header == list(expected), f"header {header} != {list(expected)}")


# ----- closed forms ---------------------------------------------------------


def fix_g2(n: int) -> int:
    return (1 << (2 * n)) - 1


def fix_f(n: int) -> int:
    m = (1 << n) - 1
    while m % 3 == 0:
        m //= 3
    return m


def fix_f2(n: int) -> int:
    return fix_f(2 * n)


def orbits_from_fix(fix: Sequence[int]) -> list[int]:
    """Orbit counts from fix counts by sieving out divisor sums."""
    least = list(fix)
    for d in range(1, len(least) + 1):
        for m in range(2 * d, len(least) + 1, d):
            least[m - 1] -= least[d - 1]
    orbits = []
    for n, value in enumerate(least, start=1):
        _expect(value >= 0 and value % n == 0, f"bad least count at n={n}")
        orbits.append(value // n)
    return orbits


# ----- table ----------------------------------------------------------------


def table_check(n_max: int, fix: "Callable[[int], int] | None" = None,
                orbits: "Sequence[int] | None" = None) -> Check:
    """Check a ``table`` run against a fix closed form or input orbit counts."""

    def check(data: bytes) -> int:
        with unlimited_int_digits():
            _, header, rows = parse_csv(data)
            _header(header, ("n", "fix_count", "least_count", "orbit_count"))
            _expect(len(rows) == n_max, f"{len(rows)} rows, expected {n_max}")
            values = [[int(field) for field in row] for row in rows]
        divisor_sums = [0] * (n_max + 1)
        for n, fix_n, least_n, orbit_n in values:
            _expect(least_n == n * orbit_n, f"least != n*orbits at n={n}")
            for m in range(n, n_max + 1, n):
                divisor_sums[m] += least_n
        for i, (n, fix_n, _, orbit_n) in enumerate(values, start=1):
            _expect(n == i, f"row {i} has n={n}")
            _expect(divisor_sums[n] == fix_n, f"divisor sum != fix at n={n}")
            if fix is not None:
                _expect(fix_n == fix(n), f"fix count wrong at n={n}")
            if orbits is not None:
                given = orbits[n - 1] if n <= len(orbits) else 0
                _expect(orbit_n == given, f"orbit count != input at n={n}")
        return n_max

    return check


# ----- zeta -----------------------------------------------------------------


def _zeta_rows(data: bytes, degree: int) -> list[int]:
    with unlimited_int_digits():
        _, header, rows = parse_csv(data)
        _header(header, ("n", "coefficient"))
        _expect(len(rows) == degree + 1, f"{len(rows)} rows, expected {degree + 1}")
        for i, row in enumerate(rows):
            _expect(row[0] == str(i), f"row {i} has n={row[0]}")
        return [int(row[1]) for row in rows]


def euler_product_mod(orbits: Sequence[int], degree: int, p: int = PRIME) -> np.ndarray:
    """prod_n (1 - z**n)**(-orbits(n)) mod p, up to z**degree.

    (1 - u)**(-a) = sum_k C(a-1+k, k) u**k, and C(a-1+k, k) mod p depends
    only on a mod p while k < p.
    """
    coeffs = np.zeros(degree + 1, dtype=np.int64)
    coeffs[0] = 1
    for n in range(1, degree + 1):
        a = orbits[n - 1] % p if n <= len(orbits) else 0
        if a == 0:
            continue
        new = coeffs.copy()
        binom = 1
        for k in range(1, degree // n + 1):
            binom = binom * ((a - 1 + k) % p) % p * pow(k, -1, p) % p
            shift = n * k
            new[shift:] = (new[shift:] + binom * coeffs[: degree + 1 - shift]) % p
        coeffs = new
    return coeffs


def zeta_doubling_check(degree: int) -> Check:
    def check(data: bytes) -> int:
        coeffs = _zeta_rows(data, degree)
        for n, c in enumerate(coeffs):
            _expect(c == (1 if n == 0 else 1 << (n - 1)), f"coefficient wrong at n={n}")
        return degree + 1

    return check


def zeta_product_check(degree: int, orbits: Sequence[int]) -> Check:
    def check(data: bytes) -> int:
        coeffs = _zeta_rows(data, degree)
        expected = euler_product_mod(orbits, degree)
        for n, c in enumerate(coeffs):
            _expect(c >= 0 and c % PRIME == int(expected[n]),
                    f"coefficient != Euler product (mod {PRIME}) at n={n}")
        return degree + 1

    return check


# ----- status outputs -------------------------------------------------------


def xi1_check(degree: int) -> Check:
    def check(data: bytes) -> int:
        _, header, rows = parse_csv(data)
        _header(header, ("degree_verified", "status"))
        _expect(rows == [[str(degree), "PASS"]], f"rows {rows}")
        return 1

    return check


def verify_check(data: bytes) -> int:
    meta, header, rows = parse_csv(data)
    _header(header, ("check", "status", "params", "detail"))
    _expect(len(rows) >= 1 and str(len(rows)) == meta.get("checks"),
            f"{len(rows)} rows, meta says {meta.get('checks')} checks")
    failed = [row[0] for row in rows if row[1] != "PASS"]
    _expect(not failed, f"checks not passed: {failed}")
    return len(rows)


# ----- seed digests ---------------------------------------------------------


def digest_check(argv: Sequence[str]) -> Check:
    """Byte-identity with the seed output of the same command line."""
    key = " ".join(argv)

    def check(data: bytes) -> int:
        try:
            entry = json.loads(DIGESTS_PATH.read_text())[key]
        except (OSError, KeyError):
            raise Mismatch(f"no seed digest recorded for {key!r}") from None
        digest = hashlib.sha256(data).hexdigest()
        _expect(digest == entry["sha256"], f"sha256 {digest[:16]}... differs from seed")
        return entry["rows"]

    return check


def tamper(data: bytes) -> bytes:
    """Corrupt the last data row: PASS becomes FAIL, else its last digit moves."""
    lines = data.split(b"\n")
    for i in range(len(lines) - 1, -1, -1):
        line = lines[i]
        if line.startswith(b"#") or not any(48 <= c <= 57 for c in line):
            continue
        if b"PASS" in line:
            lines[i] = line.replace(b"PASS", b"FAIL")
        else:
            j = max(k for k, c in enumerate(line) if 48 <= c <= 57)
            digit = (line[j] - 48 + 1) % 10
            lines[i] = line[:j] + bytes([48 + digit]) + line[j + 1:]
        return b"\n".join(lines)
    raise ValueError("no data row to tamper with")
