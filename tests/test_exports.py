from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

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


def _unused_imports(source: str) -> list[str]:
    """Module-level imported names that the module neither uses nor lists in `__all__`."""
    tree = ast.parse(source)
    imported = [
        (alias.asname or alias.name).partition(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {
        elt.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for elt in getattr(node.value, "elts", ())
        if isinstance(elt, ast.Constant)
    }
    return [name for name in imported if name not in used]


# The package's modules, named by file, and the test modules, named under tests/.
_SOURCES = [(p, p.name) for p in sorted(Path(tokenweave.__file__).parent.glob("*.py"))] + [
    (p, f"tests/{p.name}") for p in sorted(Path(__file__).parent.glob("*.py"))
]


@pytest.mark.parametrize("path", [p for p, _ in _SOURCES], ids=[name for _, name in _SOURCES])
def test_no_unused_module_level_import(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_check_sees_each_kind_of_name():
    source = "import a.b\nimport c as d\nfrom e import f, g\nfrom h import i\n__all__ = ['i']\nd.x(g)\n"
    assert _unused_imports(source) == ["a", "f"]
