"""Import hygiene: no module keeps an import it never uses, every name a
module exports in ``__all__`` exists, and only the SG comparator loads
``scipy.signal``."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dqdv_gp
from dqdv_gp.ingest import write_log
from dqdv_gp.synth import generate_log, plating_spec

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


def _heavy_modules_after(code):
    """The scipy.signal and scipy.stats modules that a fresh interpreter has
    loaded after running ``code``; tier-1 itself loads both, so the check
    needs a process of its own."""
    script = code + (
        "\nimport sys\n"
        "print(sorted({'scipy.signal', 'scipy.stats'} & set(sys.modules)))"
    )
    paths = [str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True, timeout=300)
    return proc.stdout.splitlines()[-1]


def test_importing_the_cli_loads_no_scipy_signal():
    assert _heavy_modules_after("import dqdv_gp.cli") == "[]"


@pytest.mark.parametrize("flags, loaded", [
    ([], "[]"),
    (["--baseline"], "['scipy.signal', 'scipy.stats']"),
])
def test_only_the_sg_comparator_loads_scipy_signal(tmp_path, flags, loaded):
    log = tmp_path / "log.csv"
    write_log(generate_log(plating_spec(n_samples=100, seed=1)), log)
    argv = ["analyze", str(log), "--out", str(tmp_path / "out"), *flags]
    code = f"from dqdv_gp.cli import main\nassert main({argv!r}) == 0"
    assert _heavy_modules_after(code) == loaded


def _docstrings(tree):
    nodes = [tree] + [n for n in ast.walk(tree) if isinstance(
        n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    return {id(n.body[0].value) for n in nodes
            if n.body and isinstance(n.body[0], ast.Expr)
            and isinstance(n.body[0].value, ast.Constant)
            and isinstance(n.body[0].value.value, str)}


def test_gp_core_names_no_kernel_shape_parameter():
    # kernel.PARAMS is the one owner of the parameter order, bounds and
    # starts; gp_core reads it and names no parameter of the RQ shape
    tree = _tree("gp_core")
    docs = _docstrings(tree)
    words = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            words.append(node.id)
        elif isinstance(node, ast.Attribute):
            words.append(node.attr)
        elif isinstance(node, (ast.keyword, ast.arg)):
            words.append(node.arg or "")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in docs:
            words.append(node.value)
    assert [w for w in words if "length_scale" in w or "alpha" in w] == []
