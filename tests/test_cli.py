"""CLI surface: artifact layout, JSON schema, exit codes, determinism."""

import json
from pathlib import Path

import numpy as np
import pytest

from dqdv_gp.cli import main
from dqdv_gp.ingest import ChargeLog, write_log
from dqdv_gp.synth import generate_log, plating_spec


@pytest.fixture(autouse=True)
def _in_tmp_path(tmp_path, monkeypatch):
    # a run without --out writes to ./dqdv_out; keep it out of the checkout
    monkeypatch.chdir(tmp_path)


def _run_synth(tmp_path, *extra):
    out = tmp_path / "synth"
    rc = main(["synth", "--out", str(out), "--seed", "3", *extra])
    assert rc == 0
    return out / "log.csv"


def test_synth_writes_log_and_sidecar(tmp_path):
    log = _run_synth(tmp_path)
    assert log.exists()
    sidecar = json.loads((log.parent / "spec.json").read_text())
    assert sidecar["spec"]["plating_bump"]["center"] == 4.08
    assert sidecar["config"]["seed"] == 3


def test_analyze_end_to_end(tmp_path):
    log = _run_synth(tmp_path)
    out = tmp_path / "report"
    rc = main(["analyze", str(log), "--out", str(out), "--baseline"])
    assert rc == 0

    doc = json.loads((out / "log_report.json").read_text())
    assert doc["input"]["path"] == str(log)
    assert len(doc["input"]["sha256"]) == 64
    assert doc["unassessable"] == []
    (cyc,) = doc["cycles"]
    assert set(cyc) == {"cycle", "verdict", "threshold_v", "peaks", "hyperparams", "grid"}
    assert set(cyc["hyperparams"]) == {"length_scale", "signal_std", "noise_std", "alpha"}
    assert cyc["verdict"] == "Plating"
    peak = max(cyc["peaks"], key=lambda p: p["magnitude"])
    assert abs(peak["v_peak"] - 4.08) < 0.02

    assert (out / "log_cycle1_qv.csv").exists()
    assert (out / "log_cycle1_dqdv_gp.csv").exists()
    assert (out / "log_cycle1_dqdv_sg.csv").exists()
    header = (out / "log_cycle1_dqdv_gp.csv").read_text().splitlines()[0]
    assert header == "voltage_v,mean,lower,upper"


def test_analyze_baseline_scenario_is_clean(tmp_path):
    log = _run_synth(tmp_path, "--scenario", "baseline")
    out = tmp_path / "report"
    assert main(["analyze", str(log), "--out", str(out)]) == 0
    doc = json.loads((out / "log_report.json").read_text())
    assert doc["cycles"][0]["verdict"] == "NoPlating"


def test_analyze_multi_cycle_throughput(tmp_path):
    log = _run_synth(tmp_path, "--n-cycles", "4", "--fade-rate", "0.02",
                     "--n-samples", "150")
    out = tmp_path / "report"
    assert main(["analyze", str(log), "--out", str(out)]) == 0
    doc = json.loads((out / "log_report.json").read_text())
    assert len(doc["cycles"]) == 4
    assert doc["throughput"]["normalized"][0] == 1.0
    assert doc["throughput"]["rate_pct_per_cycle"] == pytest.approx(2.0, abs=0.1)
    assert (out / "log_throughput.csv").exists()


def test_analyze_unassessable_exit_code(tmp_path):
    # cutting the window below the 4.0 V threshold leaves nothing to classify
    log = _run_synth(tmp_path)
    out = tmp_path / "report"
    rc = main(["analyze", str(log), "--out", str(out), "--vmax", "3.9"])
    assert rc == 2
    doc = json.loads((out / "log_report.json").read_text())
    assert doc["cycles"] == []
    assert doc["unassessable"][0]["cycle"] == 1


def test_analyze_missing_file_is_error(tmp_path):
    assert main(["analyze", str(tmp_path / "nope.csv")]) == 1


@pytest.mark.parametrize("capacity, n_warnings", [("0.01", 2), ("0.045", 0)])
def test_analyze_warns_on_over_capacity_cycles(tmp_path, capsys, capacity, n_warnings):
    # each synthetic cycle takes in the default 0.045 Ah
    log = _run_synth(tmp_path, "--n-cycles", "2", "--n-samples", "100")
    capsys.readouterr()
    out = tmp_path / "report"
    assert main(["analyze", str(log), "--out", str(out), "--capacity", capacity]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert lines == [
        f"warning: {log}: cycle {c}: CC charge above 1.5 x --capacity"
        for c in range(1, n_warnings + 1)
    ]


def test_analyze_malformed_header_is_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    assert main(["analyze", str(bad)]) == 1


def _cut_cycle_2_log(tmp_path):
    # a 3-cycle log whose cycle 2 stops after 12 samples, all below 2.9 V
    log = generate_log(plating_spec(n_cycles=3, n_samples=100, seed=2))
    first = int(np.argmax(log.cycle == 2))
    keep = (log.cycle != 2) | (np.arange(len(log)) < first + 12)
    path = tmp_path / "cut.csv"
    write_log(ChargeLog(t=log.t[keep], i=log.i[keep], v=log.v[keep],
                        cycle=log.cycle[keep]), path)
    return path


def test_analyze_bad_input_does_not_stop_the_others(tmp_path, capsys):
    bad = _cut_cycle_2_log(tmp_path)
    good = _run_synth(tmp_path, "--n-samples", "100")
    out = tmp_path / "report"
    rc = main(["analyze", str(bad), str(good), "--out", str(out), "--vmin", "2.9"])
    assert rc == 1
    assert f"error: {bad}: TooFewPoints:" in capsys.readouterr().err
    assert not (out / "cut_report.json").exists()
    doc = json.loads((out / "log_report.json").read_text())
    assert doc["cycles"][0]["verdict"] == "Plating"


def test_analyze_reads_on_past_a_cycle_label_beyond_int64(tmp_path):
    good = _run_synth(tmp_path, "--n-samples", "100")
    header, *rows = good.read_text().splitlines()
    wide = tmp_path / "wide.csv"
    wide.write_text("\n".join([header, "0,0.1,3.0,99999999999999999999", *rows, ""]))
    out = tmp_path / "report"
    assert main(["analyze", str(wide), str(good), "--out", str(out)]) == 0
    assert json.loads((out / "wide_report.json").read_text())["cycles"][0]["cycle"] == 1
    assert json.loads((out / "log_report.json").read_text())["cycles"][0]["cycle"] == 1


def test_analyze_failed_input_outranks_unassessable(tmp_path):
    bad = _cut_cycle_2_log(tmp_path)
    good = _run_synth(tmp_path, "--n-samples", "100")
    out = tmp_path / "report"
    rc = main(["analyze", str(bad), str(good), "--out", str(out),
               "--vmin", "2.9", "--vmax", "3.9"])
    assert rc == 1
    doc = json.loads((out / "log_report.json").read_text())
    assert doc["unassessable"][0]["cycle"] == 1


def test_analyze_determinism(tmp_path):
    log = _run_synth(tmp_path)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["analyze", str(log), "--out", str(out1)]) == 0
    assert main(["analyze", str(log), "--out", str(out2)]) == 0
    a = (out1 / "log_report.json").read_bytes()
    b = (out2 / "log_report.json").read_bytes()
    assert a == b


def test_analyze_report_ignores_seed_env(tmp_path, monkeypatch):
    # analyze draws no random number, so the seed must not reach its report
    monkeypatch.delenv("DQDV_GP_SEED", raising=False)
    log = _run_synth(tmp_path, "--n-samples", "100")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["analyze", str(log), "--out", str(out1)]) == 0
    monkeypatch.setenv("DQDV_GP_SEED", "5")
    assert main(["analyze", str(log), "--out", str(out2)]) == 0
    a = (out1 / "log_report.json").read_bytes()
    assert a == (out2 / "log_report.json").read_bytes()
    # every analyze flag but --out and the inputs, plus the subcommand
    assert set(json.loads(a)["config"]) == {
        "command", "vmin", "vmax", "max_points", "cc_tol", "grid_n",
        "level", "threshold_v", "baseline", "capacity",
    }


def test_report_does_not_depend_on_the_other_inputs(tmp_path):
    log = _run_synth(tmp_path, "--n-samples", "100")
    other = tmp_path / "other.csv"
    other.write_bytes(log.read_bytes())
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["analyze", str(log), "--out", str(out1)]) == 0
    assert main(["analyze", str(log), str(other), "--out", str(out2)]) == 0
    assert (out1 / "log_report.json").read_bytes() == (out2 / "log_report.json").read_bytes()


@pytest.mark.parametrize("argv, code", [
    (["analyze", "s.csv", "--grid-n", "abc"], 1),
    (["synth", "--no-such-flag"], 1),
    ([], 1),
    (["--help"], 0),
    (["analyze", "--help"], 0),
], ids=["bad-int", "unknown-flag", "no-command", "help", "subcommand-help"])
def test_usage_exit_codes(capsys, argv, code):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert (captured.out if code == 0 else captured.err).startswith("usage: ")
    assert not any(Path().iterdir())


def test_seed_env_is_ignored(tmp_path, monkeypatch):
    # the seed comes from --seed alone; a stray variable cannot crash a run
    monkeypatch.setenv("DQDV_GP_SEED", "abc")
    out = tmp_path / "synth"
    assert main(["synth", "--out", str(out)]) == 0
    sidecar = json.loads((out / "spec.json").read_text())
    assert sidecar["config"]["seed"] == 0


def test_bench_smoke(tmp_path):
    out = tmp_path / "bench"
    rc = main(["bench", "--out", str(out), "--n-seeds", "3", "--n-samples", "120"])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())["summary"]
    assert summary["n_seeds"] == 3
    assert 0.0 <= summary["coverage_mean"] <= 1.0
    lines = (out / "bench.csv").read_text().splitlines()
    assert lines[0].startswith("seed,gp_rmse,sg_rmse")
    assert lines[0].endswith(",alpha")
    assert len(lines) == 4


def test_bench_invalid_spec_is_error(tmp_path, capsys):
    assert main(["bench", "--out", str(tmp_path / "bench"), "--n-samples", "5"]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: InvalidSpec: ")


@pytest.mark.parametrize("flags", [
    ["bench", "--n-seeds", "0"],
    ["bench", "--n-seeds", "-2"],
    ["analyze", "--level", "1.5"],
    ["analyze", "--grid-n", "3"],
    ["analyze", "--baseline", "--grid-n", "7"],
    ["bench", "--grid-n", "7"],
    ["analyze", "--max-points", "0"],
    ["analyze", "x/log.csv", "y/log.csv"],
    ["synth", "--n-samples", "5"],
    ["bench", "--n-samples", "5"],
    ["synth", "--n-cycles", "3", "--fade-rate", "0.6"],
], ids=["n-seeds-0", "n-seeds-negative", "level", "grid-n", "sg-window", "bench-sg-window",
        "max-points", "same-stem", "synth-spec", "bench-spec", "synth-fade"])
def test_bad_option_is_rejected_before_any_output(tmp_path, capsys, flags):
    log = _run_synth(tmp_path, "--n-samples", "100")
    capsys.readouterr()
    out = tmp_path / "out"
    command, *rest = flags
    inputs = [str(log)] if command == "analyze" else []
    assert main([command, *inputs, *rest, "--out", str(out)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ")
    assert not out.exists()
