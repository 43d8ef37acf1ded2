"""Import hygiene: no module keeps an import it never uses, and every name a
module exports in ``__all__`` exists."""

import ast
import importlib
from pathlib import Path

import pytest

import dqdv_gp

PACKAGE_DIR = Path(dqdv_gp.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py"))


def _tree(name):
    return ast.parse((PACKAGE_DIR / f"{name}.py").read_text(encoding="utf-8"))


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


@pytest.mark.parametrize("name", [m for m in MODULES if m != "__init__"])
def test_no_unused_top_level_import(name):
    tree = _tree(name)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(imported - used - set(_exported(tree))) == []


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module("dqdv_gp" if name == "__init__" else f"dqdv_gp.{name}")
    missing = [n for n in _exported(_tree(name)) if not hasattr(module, n)]
    assert missing == []
