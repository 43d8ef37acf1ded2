"""The three workloads and the closed loop that drives them.

Each workload splits a unit of work into ``run`` (the program's calls, and
nothing else, between two clock readings) and ``evidence`` (the checks of
what ``run`` produced, outside the timed region).  One client sends the next
call only after the last one returned.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from truth import V_RANGE, Cell


@dataclass
class Record:
    """What one execution of a round item did."""

    units: int                       # units attempted
    cycles: int                      # charge cycles processed
    seconds: float                   # wall time of the program's calls
    latencies: list                  # one per unit
    failures: list = field(default_factory=list)   # one reason list per unit
    rmse_rel: list = field(default_factory=list)   # one per dQ/dV curve checked
    covered: int = 0
    points: int = 0
    gp_win: bool | None = None
    bytes_written: int = 0

    @property
    def failed(self):
        return sum(bool(f) for f in self.failures)


def _cell(item):
    return Cell(plating=item["plating"], fade=item["fade"])


class FleetAnalyze:
    """``dqdv-gp analyze --baseline`` through ``cli.main``, one call per cell log.

    The unit is a cycle.  ``cmd_analyze`` calls ``analyze_curve`` once per
    cycle, so one clock reading at each of those calls splits the call's
    wall time into cycles: parsing and segmentation go to the first cycle,
    the throughput series and report to the last.
    """

    def __init__(self, manifest, run_dir):
        from dqdv_gp import cli

        self.cli = cli
        self.inputs = Path(run_dir) / "inputs"
        self.out = Path(run_dir) / "fleet"
        self.max_points = manifest["max_points"]
        self.capacity = manifest["capacity"]
        self.marks = []
        analyze_curve = cli.analyze_curve

        def marked(*args, **kwargs):
            self.marks.append(time.perf_counter())
            return analyze_curve(*args, **kwargs)

        cli.analyze_curve = marked

    def units(self, item):
        return item["n_cycles"]

    def run(self, item, tag):
        argv = [
            "analyze", str(self.inputs / item["path"]), "--out", str(self.out / tag),
            "--baseline", "--max-points", str(self.max_points),
            "--capacity", repr(self.capacity),
        ]
        self.marks.clear()
        t0 = time.perf_counter()
        code = self.cli.main(argv)
        t1 = time.perf_counter()
        return {"code": code, "bounds": [t0] + self.marks[1:] + [t1]}

    def first_curve(self, item):
        from dqdv_gp import ingest, pipeline

        log = ingest.parse_log(self.inputs / item["path"])
        return pipeline.log_to_curves(log, max_points=self.max_points)[0]

    def evidence(self, item, tag, done):
        n = item["n_cycles"]
        bounds = done["bounds"]
        rec = Record(units=n, cycles=n, seconds=bounds[-1] - bounds[0],
                     latencies=list(np.diff(bounds)))
        out = self.out / tag
        path = self.inputs / item["path"]
        stem = path.name.removesuffix(".csv")
        report = out / f"{stem}_report.json"
        if done["code"] != 0 or not report.exists():
            rec.failures = [[f"analyze exited {done['code']}"]] * n
            return rec
        doc = json.loads(report.read_text())
        sha = hashlib.sha256(path.read_bytes()).hexdigest()
        common = checks.report_failures(doc, sha, n)
        cell = _cell(item)
        rec.failures = [list(common) for _ in range(n)]
        for j, cyc in enumerate(doc["cycles"][:n]):
            rec.failures[j] += checks.verdict_failures(cell, cyc)
            band = np.loadtxt(out / f"{stem}_cycle{cyc['cycle']}_dqdv_gp.csv",
                              delimiter=",", skiprows=1)
            grid, mean, lower, upper = band.T
            rel, cov, pts = checks.band_stats(
                grid, mean, cell.dqdv(grid, cyc["cycle"]), lower, upper)
            rec.rmse_rel.append(rel)
            rec.covered += cov
            rec.points += pts
        rec.bytes_written = sum(f.stat().st_size for f in out.iterdir())
        return rec


class MontecarloPaired:
    """One 300-sample cycle per independent seed through the calls that
    ``pipeline.paired_trial`` makes; the benchmark holds the posterior."""

    def __init__(self, manifest, run_dir):
        from dqdv_gp import baseline, pipeline
        from dqdv_gp.ingest import ChargeLog

        self.baseline, self.pipeline = baseline, pipeline
        self.capacity = manifest["capacity"]
        with np.load(Path(run_dir) / "inputs" / "cycles.npz") as data:
            self.logs = {}
            for rnd in manifest["rounds"]:
                for item in rnd:
                    t, i, v = (data[f"{item['key']}_{f}"] for f in ("t", "i", "v"))
                    self.logs[item["key"]] = ChargeLog(
                        t=t, i=i, v=v, cycle=np.ones(len(t), dtype=int))

    def units(self, item):
        return 1

    def run(self, item, tag):
        t0 = time.perf_counter()
        curves = self.pipeline.log_to_curves(
            self.logs[item["key"]], vmin=V_RANGE[0], vmax=V_RANGE[1],
            capacity_ah=self.capacity)
        _, post, report = self.pipeline.analyze_curve(curves[0])
        sg = self.baseline.fd_dqdv(curves[0], self.baseline.SgConfig())
        t1 = time.perf_counter()
        return {"seconds": t1 - t0, "post": post, "report": report, "sg": sg}

    def first_curve(self, item):
        return self.pipeline.log_to_curves(self.logs[item["key"]])[0]

    def evidence(self, item, tag, done):
        cell = _cell(item)
        post = done["post"]
        rec = Record(units=1, cycles=1, seconds=done["seconds"], latencies=[done["seconds"]])
        rec.failures = [checks.verdict_failures(cell, done["report"].to_dict())]
        rel, rec.covered, rec.points = checks.band_stats(
            post.grid, post.mean, cell.dqdv(post.grid), post.lower, post.upper)
        rec.rmse_rel = [rel]
        sg_grid, sg = done["sg"]
        sg_rel, _, _ = checks.band_stats(sg_grid, sg, cell.dqdv(sg_grid))
        # relative RMSEs share the truth's RMS over matched grids, so this
        # orders the absolute RMSEs as pipeline.paired_trial does
        rec.gp_win = rel < sg_rel
        return rec


class HistoryIngest:
    """``ingest.parse_log`` on a gzipped long-history log, then segmentation,
    cleaning and the charge-throughput fade cross-check.  The unit is a log."""

    def __init__(self, manifest, run_dir):
        from dqdv_gp import baseline, ingest, metrics, pipeline

        self.baseline, self.ingest, self.metrics, self.pipeline = (
            baseline, ingest, metrics, pipeline)
        self.inputs = Path(run_dir) / "inputs"
        self.capacity = manifest["capacity"]

    def units(self, item):
        return 1

    def run(self, item, tag):
        t0 = time.perf_counter()
        log = self.ingest.parse_log(self.inputs / item["path"])
        curves = self.pipeline.log_to_curves(log, capacity_ah=self.capacity)
        series = self.metrics.throughput_series(curves)
        rate = self.metrics.degradation_rate(series)
        t1 = time.perf_counter()
        return {"seconds": t1 - t0, "curves": curves, "rate": rate}

    def first_curve(self, item):
        return None  # no GP fit on this workload

    def evidence(self, item, tag, done):
        cell = _cell(item)
        curves = sorted(done["curves"], key=lambda c: c.cycle)
        rec = Record(units=1, cycles=len(curves), seconds=done["seconds"],
                     latencies=[done["seconds"]])
        rec.failures = [checks.history_failures(
            cell, item["samples"], item["n_cycles"], [float(c.q[-1]) for c in curves],
            done["rate"])]
        # the only dQ/dV here is SG+FD on the cleaned curves: it shows an
        # ingest change that degrades Q(V)
        rels = []
        for c in curves:
            grid, dqdv = self.baseline.fd_dqdv(c)
            rels.append(checks.band_stats(grid, dqdv, cell.dqdv(grid, c.cycle))[0])
        rec.rmse_rel = [statistics.median(rels)]
        return rec


WORKLOADS = {
    "fleet_analyze": FleetAnalyze,
    "montecarlo_paired": MontecarloPaired,
    "history_ingest": HistoryIngest,
}


def drive(workload, rounds, seconds, min_units, tracer=None):
    """Whole rounds until ``seconds`` have passed and ``min_units`` are done.

    With a tracer, every item runs untraced and then traced on the same
    input; returns (untraced records, traced records, traced wall times).
    """
    plain, traced, traced_s = [], [], []
    start = time.perf_counter()
    r = units = 0
    while r == 0 or time.perf_counter() - start < seconds or units < min_units:
        for k, item in enumerate(rounds[r % len(rounds)]):
            tag = f"r{r}_{k}"
            plain.append(workload.evidence(item, tag, workload.run(item, tag)))
            units += workload.units(item)
            if tracer is not None:
                tracer.begin(tag)
                done = workload.run(item, tag + "_traced")
                traced_s.append(tracer.end())
                traced.append(workload.evidence(item, tag + "_traced", done))
        r += 1
    return plain, traced, traced_s
