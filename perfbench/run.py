"""dqdv-gp benchmark: one workload per run, closed loop, checked against truth.

    python3 perfbench/run.py --workload fleet_analyze --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``.  ``--workload all`` runs every workload in turn.
See perfbench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"

SETUP_PROBES = 3     # fresh interpreters timed per run for setup_s
MIN_UNITS = checks.MIN_POOLED_UNITS  # so that p75 has ten units beyond it
TAIL_PCT = 75
WORKLOAD_NAMES = ("fleet_analyze", "montecarlo_paired", "history_ingest")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(HERE), env.get("PYTHONPATH")) if p)
    return env


def _blas_threads():
    """OpenBLAS threads in use; the benchmark leaves the program's default."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(dll, sym):
                fn = getattr(dll, sym)
                fn.restype = ctypes.c_int
                return fn()
    return 0


def setup_seconds():
    """Median time for a fresh interpreter to import ``dqdv_gp.cli`` and exit."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import dqdv_gp.cli"], env=_env(),
                       check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def worker(args):
    """Runs in a fresh interpreter: loads the inputs, drives the workload,
    checks the outputs and prints its figures as one JSON line."""
    import numpy as np

    import tracer as tracing
    import workloads

    run_dir = Path(args.worker)
    manifest = json.loads((run_dir / "manifest.json").read_text())
    workload = workloads.WORKLOADS[manifest["workload"]](manifest, run_dir)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    min_units = 0 if args.trace else (2 if args.tiny else MIN_UNITS)
    plain, traced, traced_s = workloads.drive(
        workload, manifest["rounds"], args.seconds, min_units, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    records = plain + traced
    attempted = sum(r.units for r in records)
    reasons = [r for rec in records for unit in rec.failures for r in unit]
    covered = sum(r.covered for r in records)
    points = sum(r.points for r in records)
    wins = [r.gp_win for r in records if r.gp_win is not None]
    run_fail = checks.run_failures(attempted, covered, points, sum(wins), len(wins))
    latencies = [x for rec in plain for x in rec.latencies]
    busy = sum(r.seconds for r in plain)
    result = {
        "attempted": attempted,
        "failed": sum(r.failed for r in records),
        "reasons": sorted(set(reasons)) + run_fail,
        "run_ok": not run_fail,
        "units": len(latencies),
        "coverage": covered / points if points else None,
        "gp_win_fraction": sum(wins) / len(wins) if wins else None,
        "blas_threads": _blas_threads(),
        "metrics": {
            "cycles_per_s": (sum(r.cycles for r in plain) / busy, "1/s"),
            "unit_latency_p50_s": (statistics.median(latencies), "s"),
            "unit_latency_tail_s": (float(np.percentile(latencies, TAIL_PCT)), "s"),
            "dqdv_rmse_rel": (statistics.median(x for r in records for x in r.rmse_rel),
                              "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        },
    }
    if tracer is not None:
        per_layer = tracing.layer_metrics(tracer.spans)
        untraced_s = sum(r.seconds for r in plain)
        per_layer["trace.overhead_pct"] = (
            100.0 * (sum(traced_s) - untraced_s) / untraced_s, "%")
        per_layer["cli.bytes_written"] = (
            statistics.mean(r.bytes_written for r in traced), "bytes")
        per_layer["gp_core.fit.peak_alloc_mb"] = (fit_peak_alloc_mb(workload, manifest), "MB")
        result["metrics"] = per_layer
        tracer.dump(run_dir / "spans.json")
    print(json.dumps(result))


def fit_peak_alloc_mb(workload, manifest):
    """Peak traced allocation of one fit on the workload's first curve,
    measured after the traced loop so that tracemalloc slows no span."""
    import tracemalloc

    from dqdv_gp import gp_core

    curve = workload.first_curve(manifest["rounds"][0][0])
    if curve is None:
        return 0.0
    tracemalloc.start()
    try:
        gp_core.fit(gp_core.TrainingSet(xs=curve.v, ys=curve.q))
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def run_workload(name, args):
    """Generate inputs, time set-up, run the worker; returns the result line."""
    import inputs
    import truth

    for plating in (True, False):
        truth.cross_check(truth.Cell(plating=plating))
    run_dir = HERE / "out" / f"{name}_seed{args.seed}_trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs.generate(name, args.seed, run_dir, tiny=args.tiny)
    setup_s = None if args.trace else setup_seconds()

    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", str(run_dir),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, env=_env(), stdout=subprocess.PIPE, text=True, timeout=150)
    for sub in ("inputs", "fleet"):
        shutil.rmtree(run_dir / sub, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"the {name} worker exited {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    (run_dir / "result.json").write_text(json.dumps(res, indent=1))

    metrics = res["metrics"]
    if setup_s is not None:
        metrics = {"setup_s": (setup_s, "s"), **metrics}
    for key in ("units", "coverage", "gp_win_fraction", "blas_threads"):
        print(f"{name}: {key} = {res[key]}")
    for reason in res["reasons"]:
        print(f"{name}: FAILED {reason}")
    for metric, (value, unit) in metrics.items():
        print(f"{name}: {metric} = {value:.6g} {unit}")
    return {
        "correct": res["run_ok"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small inputs, for the tests")
    p.add_argument("--worker", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "dqdv_gp" / "__init__.py").is_file():
        print(f"error: no dqdv_gp sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.worker:
        worker(args)
        return 0

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args) for name in names}
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
