"""Every name a module exports must exist: a stale ``__all__`` entry only
shows up on a star import, which no other test makes.  The same holds for
the call sites that the benchmark's tracer wraps by name."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import orbitkit

MODULES = ["orbitkit"] + [
    f"orbitkit.{info.name}" for info in pkgutil.iter_modules(orbitkit.__path__)
]

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def _traced_bindings():
    """``BINDINGS`` of perfbench/tracing.py, read from its source, not run."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["BINDINGS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no BINDINGS")


def test_traced_call_sites_are_bound():
    # The tracer only reports a binding it cannot find; its smoke test needs
    # NumPy, so without this a renamed call site would pass unnoticed.
    unbound = [f"{module}.{attr}" for module, attr, _ in _traced_bindings()
               if attr not in vars(importlib.import_module(f"orbitkit.{module}"))]
    assert unbound == []
