from __future__ import annotations

import importlib
import pkgutil

import pytest

import tokenweave

MODULES = ["tokenweave"] + [
    f"tokenweave.{m.name}" for m in pkgutil.iter_modules(tokenweave.__path__) if m.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # A stale `__all__` entry, left behind by a deletion, fails both checks.
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    exec(f"from {name} import *", {})
