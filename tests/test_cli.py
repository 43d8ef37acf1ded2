"""CLI surface: artifact layout, JSON schema, exit codes, determinism."""

import gzip
import json
from pathlib import Path

import numpy as np
import pytest

from dqdv_gp import cli
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
    assert set(cyc) == {"cycle", "verdict", "threshold_v", "peaks", "hyperparams", "grid",
                        "fit_start", "over_capacity"}
    assert cyc["fit_start"] == "cold"
    assert doc["input"]["rejected_rows"] == []
    assert set(cyc["hyperparams"]) == {"length_scale", "signal_std", "noise_std", "alpha"}
    assert cyc["verdict"] == "Plating"
    peak = max(cyc["peaks"], key=lambda p: p["magnitude"])
    assert abs(peak["v_peak"] - 4.08) < 0.02

    assert (out / "log_cycle1_qv.csv").exists()
    assert (out / "log_cycle1_dqdv_gp.csv").exists()
    assert (out / "log_cycle1_dqdv_sg.csv").exists()
    header = (out / "log_cycle1_dqdv_gp.csv").read_text().splitlines()[0]
    assert header == "voltage_v,mean,lower,upper"
    # the comparator is read on the GP's grid
    def voltages(method):
        rows = (out / f"log_cycle1_dqdv_{method}.csv").read_text().splitlines()[1:]
        return [row.split(",")[0] for row in rows]

    assert voltages("sg") == voltages("gp")


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


def test_report_keeps_rejected_rows_and_over_capacity_flags(tmp_path):
    # cycle 2 fades to half of cycle 1's 0.045 Ah; --capacity 0.02 flags
    # only cycle 1 (above 1.5 x 0.02 Ah)
    log = _run_synth(tmp_path, "--n-cycles", "2", "--n-samples", "100",
                     "--fade-rate", "0.5")
    header, *rows = log.read_text().splitlines()
    rows[2] = "nan,0.1,3.0,1"
    rows.insert(6, "not,a,row,1")
    bad = tmp_path / "bad_rows.csv"
    bad.write_text("\n".join([header, *rows, ""]))
    out = tmp_path / "report"
    assert main(["analyze", str(bad), "--out", str(out), "--capacity", "0.02"]) == 0
    doc = json.loads((out / "bad_rows_report.json").read_text())
    assert doc["input"]["rejected_rows"] == [3, 7]
    assert [c["over_capacity"] for c in doc["cycles"]] == [True, False]


def test_analyze_starts_each_fit_from_the_previous_cycle(tmp_path, monkeypatch):
    seen = []
    analyze_curve = cli.analyze_curve

    def recorded(*args, **kwargs):
        model, post, report = analyze_curve(*args, **kwargs)
        seen.append((kwargs.get("start"), model.hp))
        return model, post, report

    monkeypatch.setattr(cli, "analyze_curve", recorded)
    log = _run_synth(tmp_path, "--n-cycles", "3", "--n-samples", "150")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["analyze", str(log), "--out", str(out1)]) == 0
    starts, hps = zip(*seen)
    assert starts == (None, hps[0], hps[1])
    doc = json.loads((out1 / "log_report.json").read_text())
    assert [c["fit_start"] for c in doc["cycles"]] == ["cold", "warm", "warm"]
    # warm refits keep identical runs byte-identical
    assert main(["analyze", str(log), "--out", str(out2)]) == 0
    assert (out1 / "log_report.json").read_bytes() == (out2 / "log_report.json").read_bytes()


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


def test_analyze_reports_a_short_cycle_between_good_ones_as_unassessable(tmp_path):
    out = tmp_path / "report"
    assert main(["analyze", str(_cut_cycle_2_log(tmp_path)), "--out", str(out)]) == 2
    doc = json.loads((out / "cut_report.json").read_text())
    assert [(c["cycle"], c["verdict"]) for c in doc["cycles"]] == [(1, "Plating"), (3, "Plating")]
    (entry,) = doc["unassessable"]
    assert entry["cycle"] == 2
    assert entry["reason"].startswith("grid ends at 2.")


def _with_cv_taper(log, n=29):
    # after each CC run, n samples at 4.2 V with a decaying current, timed
    # inside the gap before the next row, so every CC row keeps its time
    cols = [log.t, log.i, log.v, log.cycle]
    ends = [e for e in np.flatnonzero(log.i > 0) + 1 if e == len(log) or log.i[e] == 0]
    for e in reversed(ends):
        gap = log.t[e] - log.t[e - 1] if e < len(log) else 60.0
        k = np.arange(1, n + 1)
        taper = [log.t[e - 1] + gap * k / (n + 1), log.i[e - 1] * 0.9**k,
                 np.full(n, 4.2), np.full(n, log.cycle[e - 1])]
        cols = [np.insert(col, e, part) for col, part in zip(cols, taper)]
    return ChargeLog(*cols)


def test_analyze_ignores_a_cv_taper_after_each_cc_run(tmp_path):
    log = generate_log(plating_spec(n_cycles=3, n_samples=200, seed=2))
    outs = []
    for name, charge in (("plain", log), ("taper", _with_cv_taper(log))):
        (tmp_path / name).mkdir()
        path = tmp_path / name / "log.csv"
        write_log(charge, path)
        outs.append(tmp_path / name / "report")
        assert main(["analyze", str(path), "--out", str(outs[-1])]) == 0
    names = sorted(p.name for p in outs[0].iterdir()
                   if p.name.endswith(("_qv.csv", "_dqdv_gp.csv")))
    assert len(names) == 6
    for name in names:
        assert (outs[1] / name).read_bytes() == (outs[0] / name).read_bytes()


def test_analyze_keeps_negative_and_huge_cycle_labels(tmp_path):
    log = generate_log(plating_spec(n_cycles=3, n_samples=100, seed=2))
    labels = np.array([0, -5, 2, 2**62])[log.cycle]
    path = tmp_path / "log.csv"
    write_log(ChargeLog(t=log.t, i=log.i, v=log.v, cycle=labels), path)
    out = tmp_path / "report"
    assert main(["analyze", str(path), "--out", str(out)]) == 0
    doc = json.loads((out / "log_report.json").read_text())
    assert [c["cycle"] for c in doc["cycles"]] == [-5, 2, 2**62]
    assert (out / "log_cycle-5_qv.csv").exists()
    assert (out / f"log_cycle{2**62}_dqdv_gp.csv").exists()


def _truncated_gz(data):
    return "cut.csv.gz", gzip.compress(data)[: len(data) // 8]


def _corrupt_gz(data):
    packed = bytearray(gzip.compress(data))
    packed[len(packed) // 2] ^= 0x55
    return "corrupt.csv.gz", bytes(packed)


def _not_utf8(data):
    header, rest = data.split(b"\n", 1)
    return "latin1.csv", header + b"\n0,0.1,3.0\xe9\n" + rest


WIDE = b"x" * 200_000  # a field over csv's field size limit of 131,072 characters


def _wide_header(data):
    header, rest = data.split(b"\n", 1)
    return "wide_header.csv", header + b"," + WIDE + b"\n" + rest


def _wide_field(data):
    # the rejected row sends the body to the row loop, which reads the wide field
    header, first, rest = data.split(b"\n", 2)
    rows = [header + b",note", b"0,abc,3.0", first + b"," + WIDE, rest]
    return "wide_field.csv", b"\n".join(rows)


def _positive_discharge(data):
    # two cycles whose voltage falls while the current stays positive
    header, *rows = data.decode().splitlines()
    t, i, v, _ = zip(*(row.split(",") for row in rows))
    body = [",".join(f) for c in "12" for f in zip(t, i, v[::-1], [c] * len(t))]
    return "discharge.csv", "\n".join([header, *body, ""]).encode()


def _negative_current(data):
    # the charge logged with a discharge's sign of current
    header, *rows = data.decode().splitlines()
    body = [f"{t},-{i},{v},{c}" for t, i, v, c in (row.split(",") for row in rows)]
    return "negative.csv", "\n".join([header, *body, ""]).encode()


def _paused(data):
    # a 3-sample rest splits the charge into two CC runs, both labelled cycle 1
    header, *rows = data.decode().splitlines()
    for k in range(50, 53):
        t, _, v, c = rows[k].split(",")
        rows[k] = f"{t},0.0,{v},{c}"
    return "paused.csv", "\n".join([header, *rows, ""]).encode()


@pytest.mark.parametrize("damage, error", [
    (_truncated_gz, "EOFError"), (_corrupt_gz, "error"), (_not_utf8, "UnicodeDecodeError"),
    (_wide_header, "Error"), (_wide_field, "Error"),
    (_positive_discharge, "TooFewPoints"), (_negative_current, "NoChargeSegments"),
    (_paused, "RepeatedCycle")])
def test_analyze_unreadable_input_does_not_stop_the_others(tmp_path, capsys, damage, error):
    good = _run_synth(tmp_path, "--n-samples", "100")
    name, data = damage(good.read_bytes())
    bad = tmp_path / name
    bad.write_bytes(data)
    out = tmp_path / "report"
    assert main(["analyze", str(bad), str(good), "--out", str(out)]) == 1
    assert f"error: {bad}: {error}: " in capsys.readouterr().err
    assert json.loads((out / "log_report.json").read_text())["cycles"][0]["cycle"] == 1
    # the bad input wrote nothing
    assert all(p.name.startswith("log_") for p in out.iterdir())


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
        "command", "vmin", "vmax", "max_points", "cc_tol",
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
    (["analyze", "s.csv", "--max-points", "abc"], 1),
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
    # every bench flag but --out, plus the subcommand
    config = json.loads((out / "summary.json").read_text())["config"]
    assert set(config) == {"command", "scenario", "noise_std", "n_samples", "seed", "n_seeds"}


def test_bench_invalid_spec_is_error(tmp_path, capsys):
    assert main(["bench", "--out", str(tmp_path / "bench"), "--n-samples", "5"]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: InvalidSpec: ")


@pytest.mark.parametrize("flags", [
    ["bench", "--n-seeds", "0"],
    ["bench", "--n-seeds", "-2"],
    ["analyze", "--level", "1.5"],
    ["analyze", "--max-points", "0"],
    ["analyze", "x/log.csv", "y/log.csv"],
    ["synth", "--n-samples", "5"],
    ["bench", "--n-samples", "5"],
    ["synth", "--seed", "-1"],
    ["bench", "--seed", "-1"],
    ["synth", "--n-cycles", "3", "--fade-rate", "0.6"],
    ["analyze", "--threshold-v", "nan"],
    ["analyze", "--capacity", "nan"],
    ["analyze", "--capacity", "-1"],
    ["analyze", "--capacity", "0"],
    ["analyze", "--cc-tol", "nan"],
    ["analyze", "--cc-tol", "-0.5"],
    ["analyze", "--vmin", "nan"],
    ["analyze", "--vmax", "nan"],
    ["analyze", "--vmax", "inf"],
    ["analyze", "--vmin", "4.2", "--vmax", "3.0"],
    ["analyze", "--vmin", "3.5", "--vmax", "3.5"],
    ["synth", "--capacity", "nan"],
    ["synth", "--capacity", "inf"],
    ["synth", "--noise-std", "inf"],
    ["synth", "--noise-std", "nan"],
    ["bench", "--noise-std", "inf"],
    ["bench", "--noise-std", "nan"],
], ids=["n-seeds-0", "n-seeds-negative", "level",
        "max-points", "same-stem", "synth-spec", "bench-spec", "synth-seed-negative",
        "bench-seed-negative", "synth-fade",
        "threshold-v-nan", "capacity-nan", "capacity-negative", "capacity-0", "cc-tol-nan",
        "cc-tol-negative", "vmin-nan", "vmax-nan", "vmax-inf", "vmin-above-vmax",
        "vmin-equals-vmax", "synth-capacity-nan", "synth-capacity-inf", "synth-noise-inf",
        "synth-noise-nan", "bench-noise-inf", "bench-noise-nan"])
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
