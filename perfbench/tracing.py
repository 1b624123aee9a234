"""In-process traced run of orbitkit commands, with per-layer spans.

The tracer wraps each layer's public functions at the place where the
calling module binds them (``orbitkit.cli.build_table``,
``orbitkit.counting.divisors``, ``orbitkit.zeta.log_one_minus``, ...), so
orbitkit itself is unchanged.  Every wrapped call records a span (name,
start, end, parent); spans stay in memory until ``Tracer.dump``.  A span's
layer is the part of its name before the first dot, and a layer's self
time is the time its spans cover minus the time covered by their direct
children.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from types import ModuleType
from typing import Any, Callable

# (module, attribute bound there, span name).  Modules are given relative to
# the ``orbitkit`` package.  verify reaches asymptotics and zeta.series_modulus
# through module attributes, so those are wrapped on their own module.
BINDINGS = (
    ("cli", "main", "cli.main"),
    ("cli", "build_table", "counting.build_table"),
    ("cli", "custom_orbits", "counting.custom_orbits"),
    ("cli", "ratio_series", "asymptotics.ratio_series"),
    ("cli", "merten_series", "asymptotics.merten_series"),
    ("cli", "cluster_ratios", "asymptotics.cluster_ratios"),
    ("cli", "format_fraction", "output.format_fraction"),
    ("cli", "format_fraction_decimal", "output.format_fraction_decimal"),
    ("cli", "format_real", "output.format_real"),
    ("cli", "write_table", "output.write_table"),
    ("cli", "run_checks", "verify.run_checks"),
    ("cli", "zeta_series", "zeta.zeta_series"),
    ("cli", "xi1_direct", "zeta.xi1_direct"),
    ("cli", "xi1_closed_form", "zeta.xi1_closed_form"),
    ("cli", "radial_scan", "zeta.radial_scan"),
    ("counting", "divisors", "arith.divisors"),
    ("counting", "mobius", "arith.mobius"),
    ("counting", "ord_p", "arith.ord_p"),
    ("verify", "divisors", "arith.divisors"),
    ("verify", "mobius", "arith.mobius"),
    ("verify", "ord_p", "arith.ord_p"),
    ("verify", "padic_abs", "arith.padic_abs"),
    ("verify", "build_table", "counting.build_table"),
    ("verify", "padic_factor", "counting.padic_factor"),
    ("verify", "orbit_count_iterate", "counting.orbit_count_iterate"),
    ("verify", "iterate_square_identity", "counting.iterate_square_identity"),
    ("verify", "zeta_series", "zeta.zeta_series"),
    ("verify", "orbit_product_series", "zeta.orbit_product_series"),
    ("verify", "xi1_direct", "zeta.xi1_direct"),
    ("verify", "xi1_closed_form", "zeta.xi1_closed_form"),
    ("verify", "xi_from_closed_parts", "zeta.xi_from_closed_parts"),
    ("verify", "xi_series", "zeta.xi_series"),
    ("verify", "modulus_product", "zeta.modulus_product"),
    ("asymptotics", "ratio_series", "asymptotics.ratio_series"),
    ("asymptotics", "merten_series", "asymptotics.merten_series"),
    ("asymptotics", "delta_gap", "asymptotics.delta_gap"),
    ("asymptotics", "cluster_ratios", "asymptotics.cluster_ratios"),
    ("zeta", "series_modulus", "zeta.series_modulus"),
    ("zeta", "ord_p", "arith.ord_p"),
    ("zeta", "log_one_minus", "series.log_one_minus"),
)

# PowerSeries methods; the class is shared, so these are wrapped on it.
SERIES_METHODS = ("__init__", "__getitem__", "__eq__", "__add__", "__sub__",
                  "__neg__", "__mul__", "__rmul__", "truncate", "exp", "log")

# Per-layer metrics, name -> unit.  Times are seconds summed over a pass.
LAYER_METRICS = {
    "cli.self_s": "s",
    "output.format_s": "s",
    "output.write_table_s": "s",
    "output.bytes": "bytes",
    "output.rows": "count",
    "counting.build_table_s": "s",
    "arith.self_s": "s",
    "arith.calls": "count",
    "asymptotics.ratio_series_s": "s",
    "asymptotics.merten_series_s": "s",
    "asymptotics.delta_gap_s": "s",
    "asymptotics.delta_gap_calls": "count",
    "zeta.zeta_series_s": "s",
    "zeta.xi1_closed_form_s": "s",
    "zeta.radial_scan_s": "s",
    "zeta.orbit_product_series_s": "s",
    "zeta.mul_ops": "count",
    "zeta.coeff_bits": "count",
    "series.self_s": "s",
    "verify.run_checks_s": "s",
    "verify.self_s": "s",
    "verify.checks": "count",
    "verify.checks_failed": "count",
    "trace.overhead_frac": "ratio",
}


def _count_result(counts: dict[str, int], name: str, args: tuple, kwargs: dict,
                  result: Any) -> None:
    """Counts read off a wrapped call's arguments and result."""
    if name == "verify.run_checks":
        counts["verify.checks"] += len(result)
        counts["verify.checks_failed"] += sum(not r.passed for r in result)
    elif name == "zeta.zeta_series":
        degree = args[1] if len(args) > 1 else kwargs["degree"]
        # The recurrence multiplies F_k by c_(n-k) for 1 <= k <= n <= degree.
        counts["zeta.mul_ops"] += degree * (degree + 1) // 2
        coeffs = getattr(result, "coeffs", result)
        counts["zeta.coeff_bits"] += sum(int(c).bit_length() for c in coeffs)


class Tracer:
    """Span recorder that patches orbitkit's call sites while active."""

    def __init__(self) -> None:
        # Each span is [name, start, end, parent index or -1].
        self.spans: list[list[Any]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.unbound: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            _count_result(counts, name, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner: Any, attr: str, name: str) -> None:
        original = owner.__dict__.get(attr)
        if original is None:
            # A later refactor may move a binding; report it, do not fail.
            self.unbound.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original))

    def install(self, modules: dict[str, ModuleType]) -> None:
        """Wrap every binding in ``BINDINGS`` and the PowerSeries methods."""
        for module, attr, name in BINDINGS:
            self._patch(modules[module], attr, name)
        series_class = getattr(modules["series"], "PowerSeries", None)
        if series_class is not None:
            for method in SERIES_METHODS:
                self._patch(series_class, method, f"series.{method}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans (without trace overhead)."""
        inclusive: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _), children in zip(self.spans, child_time):
            layer = name.split(".", 1)[0]
            inclusive[name] += end - start
            self_time[layer] += end - start - children
            calls[layer] += 1
            calls[name] += 1
        format_s = sum(t for n, t in inclusive.items() if n.startswith("output.format_"))
        metrics = {
            "cli.self_s": self_time["cli"],
            "output.format_s": format_s,
            "output.write_table_s": inclusive["output.write_table"],
            "counting.build_table_s": inclusive["counting.build_table"],
            "arith.self_s": self_time["arith"],
            "arith.calls": calls["arith"],
            "asymptotics.ratio_series_s": inclusive["asymptotics.ratio_series"],
            "asymptotics.merten_series_s": inclusive["asymptotics.merten_series"],
            "asymptotics.delta_gap_s": inclusive["asymptotics.delta_gap"],
            "asymptotics.delta_gap_calls": calls["asymptotics.delta_gap"],
            "zeta.zeta_series_s": inclusive["zeta.zeta_series"],
            "zeta.xi1_closed_form_s": inclusive["zeta.xi1_closed_form"],
            "zeta.radial_scan_s": inclusive["zeta.radial_scan"],
            "zeta.orbit_product_series_s": inclusive["zeta.orbit_product_series"],
            "series.self_s": self_time["series"],
            "verify.run_checks_s": inclusive["verify.run_checks"],
            "verify.self_s": self_time["verify"],
        }
        for name in ("zeta.mul_ops", "zeta.coeff_bits", "verify.checks",
                     "verify.checks_failed"):
            metrics[name] = self.counts[name]
        return metrics

    def dump(self, path: Path) -> None:
        """Write every span as [name, start, end, parent] JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="ascii") as handle:
            json.dump({"spans": self.spans, "unbound": self.unbound}, handle,
                      separators=(",", ":"))
