"""Fast tests of the benchmark: tiny workloads pass their checks, and each
check fails when handed a corrupted output.

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import inputs
import truth
import workloads
from dqdv_gp import cli, synth

BENCH = Path(__file__).resolve().parents[1]


def _one_round(name, tmp_path, seed=3):
    manifest = inputs.generate(name, seed, tmp_path, tiny=True)
    workload = workloads.WORKLOADS[name](manifest, tmp_path)
    item = manifest["rounds"][0][0]
    done = workload.run(item, "t")
    return workload, item, done


def test_truth_cross_check_catches_a_faulty_generator(monkeypatch):
    for plating in (True, False):
        truth.cross_check(truth.Cell(plating=plating))
    true_dqdv = synth.true_dqdv
    monkeypatch.setattr(synth, "true_dqdv", lambda spec, v: 1.001 * true_dqdv(spec, v))
    with pytest.raises(truth.TruthMismatch):
        truth.cross_check(truth.Cell(plating=True))


def test_fleet_flipped_verdict_and_bad_hash_fail(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "analyze_curve", cli.analyze_curve)  # restored after
    workload, item, done = _one_round("fleet_analyze", tmp_path)
    rec = workload.evidence(item, "t", done)
    assert item["plating"] and rec.units == item["n_cycles"] == len(rec.latencies)
    assert rec.failed == 0

    report = next((tmp_path / "fleet" / "t").glob("*_report.json"))
    good = json.loads(report.read_text())

    flipped = json.loads(json.dumps(good))
    flipped["cycles"][0]["verdict"] = "NoPlating"
    report.write_text(json.dumps(flipped))
    assert workload.evidence(item, "t", done).failed == 1

    bad_hash = json.loads(json.dumps(good))
    bad_hash["input"]["sha256"] = "0" * 64
    report.write_text(json.dumps(bad_hash))
    assert workload.evidence(item, "t", done).failed == item["n_cycles"]


def test_montecarlo_shifted_band_and_flipped_verdict_fail(tmp_path):
    workload, item, done = _one_round("montecarlo_paired", tmp_path)
    rec = workload.evidence(item, "t", done)
    assert rec.failed == 0 and rec.gp_win
    n = checks.MIN_POOLED_UNITS

    post = done["post"]
    width = post.upper - post.lower
    shifted = dataclasses.replace(post, lower=post.lower + width, upper=post.upper + width)
    rec = workload.evidence(item, "t", {**done, "post": shifted})
    assert checks.run_failures(n, n * rec.covered, n * rec.points)
    assert not checks.run_failures(n - 1, rec.covered, rec.points)  # too few to judge

    flipped = dataclasses.replace(done["report"], verdict="NoPlating")
    assert workload.evidence(item, "t", {**done, "report": flipped}).failed == 1
    assert checks.run_failures(n, 95, 100, gp_wins=35, seeds=n)
    assert not checks.run_failures(n, 95, 100, gp_wins=36, seeds=n)


def test_history_wrong_fade_rate_fails(tmp_path):
    workload, item, done = _one_round("history_ingest", tmp_path)
    assert workload.evidence(item, "t", done).failed == 0
    wrong = {**item, "fade": 2 * item["fade"]}
    reasons = workload.evidence(wrong, "t", done).failures[0]
    assert any("degradation rate" in r for r in reasons)
    short = {**done, "curves": done["curves"][:-1]}
    assert workload.evidence(item, "t", short).failed == 1


def test_history_log_has_one_cc_segment_per_cycle():
    cell = truth.Cell(plating=False, fade=0.01)
    t, i, v, cycle = inputs.history_log(cell, truth.synth_spec(cell, 5, 200, 3))
    assert np.all(np.diff(t) > 0)
    assert {-truth.CAPACITY_AH, 0.0} <= set(i.tolist())  # discharge and rest rows
    from dqdv_gp.ingest import ChargeLog, extract_cc_charge

    segs = extract_cc_charge(ChargeLog(t=t, i=i, v=v, cycle=cycle))
    assert [s.cycle for s in segs] == [1, 2, 3]
    assert all(len(s.t) == 200 for s in segs)
    cc = segs[1]
    inputs._check_charge(cell, 2, cc.t, cc.i)
    with pytest.raises(ValueError):  # a generator that faded by another rate
        inputs._check_charge(truth.Cell(plating=False, fade=0.02), 2, cc.t, cc.i)


@pytest.mark.parametrize("workload, trace, kind", [
    ("history_ingest", 0, "end_to_end"),
    ("fleet_analyze", 1, "per_layer"),
])
def test_command_prints_the_result_line(workload, trace, kind):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "2", "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=170, check=True)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(res["metrics"]) == {m["name"] for m in spec[kind]}
    units = {m["name"]: m["unit"] for m in spec[kind]}
    assert all(m["unit"] == units[name] for name, m in res["metrics"].items())


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "history_ingest", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0 and out.stdout == ""
