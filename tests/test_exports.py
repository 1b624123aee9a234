"""Every name a module exports must exist: a stale ``__all__`` entry only
shows up on a star import, which no other test makes."""

import importlib
import pkgutil

import pytest

import orbitkit

MODULES = ["orbitkit"] + [
    f"orbitkit.{info.name}" for info in pkgutil.iter_modules(orbitkit.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
