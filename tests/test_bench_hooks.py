"""The names that the benchmark in ``perfbench/`` patches or calls resolve.

``perfbench/tracer.py`` replaces module globals by name, and the
``fleet_analyze`` workload wraps ``cli.analyze_curve``; a renamed or deleted
name breaks the benchmark, not the library, so it is checked here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from dqdv_gp import cli, ingest, metrics, pipeline
from dqdv_gp.ingest import write_log
from dqdv_gp.synth import generate_log, plating_spec

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_patches():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(mod, attr) for mod, attr, _, _ in tracer.PATCHES]


def _patched_names():
    return _tracer_patches() + [("cli", "analyze_curve")]


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


def test_every_patch_records_calls(tmp_path, monkeypatch):
    """Each wrapper the tracer installs sees at least one call.

    ``analyze --baseline`` drives every layer through the names the tracer
    patches, except ``ingest.parse_log``: ``analyze`` reaches the parser
    through ``cli.parse_log``, and the long-history workload calls it on the
    ``ingest`` module, so that path runs too.  A patch on a name that no
    caller looks up any more would time nothing and fail here.
    """
    calls = {}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] = calls.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    patches = _tracer_patches()
    for mod, attr in patches:
        module = importlib.import_module(f"dqdv_gp.{mod}")
        monkeypatch.setattr(module, attr, counted((mod, attr), getattr(module, attr)))

    path = tmp_path / "log.csv"
    write_log(generate_log(plating_spec(n_cycles=2, n_samples=80, seed=1)), path)
    argv = ["analyze", str(path), "--out", str(tmp_path / "out"),
            "--baseline", "--capacity", "0.045"]
    assert cli.main(argv) == 0
    curves = pipeline.log_to_curves(ingest.parse_log(path))
    metrics.degradation_rate(metrics.throughput_series(curves))

    assert [key for key in patches if not calls.get(key)] == []
