"""The names that the benchmark in ``perfbench/`` patches or calls resolve.

``perfbench/tracer.py`` replaces module globals by name, and the
``fleet_analyze`` workload wraps ``cli.analyze_curve``; a renamed or deleted
name breaks the benchmark, not the library, so it is checked here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from dqdv_gp import cli, pipeline
from dqdv_gp.ingest import write_log
from dqdv_gp.synth import generate_log, plating_spec

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _patched_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(mod, attr) for mod, attr, _, _ in tracer.PATCHES] + [("cli", "analyze_curve")]


@pytest.mark.parametrize("mod, attr", _patched_names(), ids=lambda x: x)
def test_benchmark_hook_resolves(mod, attr):
    assert callable(getattr(importlib.import_module(f"dqdv_gp.{mod}"), attr))


def test_analyze_calls_hooks_through_module_globals(tmp_path, monkeypatch):
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "analyze_curve", counted("analyze_curve", cli.analyze_curve))
    monkeypatch.setattr(pipeline, "fit", counted("fit", pipeline.fit))
    path = tmp_path / "log.csv"
    write_log(generate_log(plating_spec(n_cycles=2, n_samples=80, seed=1)), path)
    assert cli.main(["analyze", str(path), "--out", str(tmp_path / "out")]) == 0
    assert calls == ["analyze_curve", "fit"] * 2
