"""Command-line surface: ``analyze``, ``synth``, and ``bench`` subcommands.

Every report embeds the full run configuration and a content hash of its
inputs, so identical runs reproduce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import baseline, detect, metrics, synth
from .derivative import DEFAULT_LEVEL, check_level
from .errors import DqdvGpError, GridDoesNotReachThreshold, RepeatedCycle
from .ingest import (
    CC_TOL_DEFAULT,
    MAX_POINTS_DEFAULT,
    MIN_POINTS,
    MIN_SEGMENT_SAMPLES,
    OVER_CAPACITY_FACTOR,
    READ_ERRORS,
    V_MAX_DEFAULT,
    V_MIN_DEFAULT,
    parse_log,
    write_csv,
    write_log,
)
from .pipeline import analyze_curve, log_to_curves, paired_trial

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNASSESSABLE = 2


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dqdv-gp",
        description="GP-based dQ/dV analysis and lithium-plating detection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="analyze charging logs and write reports")
    pa.add_argument("inputs", nargs="+", help="charging-log CSV files (.csv or .csv.gz)")
    pa.add_argument("--out", default="dqdv_out", help="output directory")
    pa.add_argument("--vmin", type=float, default=V_MIN_DEFAULT)
    pa.add_argument("--vmax", type=float, default=V_MAX_DEFAULT)
    pa.add_argument("--max-points", type=int, default=MAX_POINTS_DEFAULT)
    pa.add_argument("--cc-tol", type=float, default=CC_TOL_DEFAULT)
    pa.add_argument("--level", type=float, default=DEFAULT_LEVEL)
    pa.add_argument("--threshold-v", type=float, default=detect.THRESHOLD_V_DEFAULT)
    pa.add_argument("--baseline", action="store_true",
                    help="also emit SG+finite-difference dQ/dV curves")
    pa.add_argument("--capacity", type=float, default=None,
                    help="nominal cell capacity in Ah (over-capacity warning)")

    # the synthetic cell's flags, which _make_spec reads
    cell = argparse.ArgumentParser(add_help=False)
    cell.add_argument("--scenario", choices=["plating", "baseline"], default="plating")
    cell.add_argument("--noise-std", type=float, default=synth.SynthSpec.noise_std)
    cell.add_argument("--n-samples", type=int, default=synth.SynthSpec.n_samples)
    cell.add_argument("--seed", type=int, default=0)

    ps = sub.add_parser("synth", parents=[cell], help="generate synthetic charging logs")
    ps.add_argument("--out", default="synth_out")
    ps.add_argument("--capacity", type=float, default=synth.SynthSpec.capacity)
    ps.add_argument("--n-cycles", type=int, default=synth.SynthSpec.n_cycles)
    ps.add_argument("--fade-rate", type=float, default=synth.SynthSpec.fade_rate)

    pb = sub.add_parser("bench", parents=[cell],
                        help="paired GP-vs-SG benchmark on synthetic data")
    pb.add_argument("--out", default="bench_out")
    pb.add_argument("--n-seeds", type=int, default=20)
    return parser


def _config_dict(args):
    # --out and the run's other inputs are not part of one input's analysis;
    # leaving them out keeps its report byte-identical.  _write_json sorts keys
    return {k: v for k, v in vars(args).items() if k not in ("out", "inputs")}


def _stem(path):
    """The name that keys an input's output files."""
    return Path(path).name.removesuffix(".gz").removesuffix(".csv")


def _check_options(args):
    """Raise ValueError for an option value that would fail a run part-way
    through or silently corrupt its results."""
    if args.command == "analyze":
        stems = [_stem(path) for path in args.inputs]
        clashes = sorted({stem for stem in stems if stems.count(stem) > 1})
        if clashes:
            raise ValueError(f"inputs would overwrite each other's outputs: {clashes}")
        check_level(args.level)
        if args.max_points < MIN_POINTS:
            raise ValueError(f"--max-points must be at least {MIN_POINTS}, got {args.max_points}")
        for name in ("vmin", "vmax", "cc_tol", "threshold_v", "capacity"):
            value = getattr(args, name)
            if value is not None and not np.isfinite(value):
                raise ValueError(f"--{name.replace('_', '-')} must be finite, got {value}")
        if not args.vmin < args.vmax:
            raise ValueError(f"--vmin must be below --vmax, got {args.vmin} and {args.vmax}")
        if args.cc_tol < 0:
            raise ValueError(f"--cc-tol must be at least 0, got {args.cc_tol}")
        if args.capacity is not None and args.capacity <= 0:
            raise ValueError(f"--capacity must be positive, got {args.capacity}")
    if args.command == "bench" and args.n_seeds < 1:
        raise ValueError(f"--n-seeds must be at least 1, got {args.n_seeds}")


def _make_spec(args):
    """The scenario's spec with every field that ``args`` has a flag for;
    the others keep their ``SynthSpec`` defaults.  Raises InvalidSpec."""
    factory = synth.plating_spec if args.scenario == "plating" else synth.baseline_spec
    fields = {f.name for f in dataclasses.fields(synth.SynthSpec)}
    return factory(**{k: v for k, v in vars(args).items() if k in fields})


def cmd_analyze(args, out, spec) -> int:
    """Analyze every input in turn (``spec`` is None).  An input that fails is
    reported on stderr and skipped; the exit code is EXIT_ERROR if any input
    failed, else EXIT_UNASSESSABLE if any cycle could not be assessed."""
    config = _config_dict(args)
    failed = unassessable = False
    for path in args.inputs:
        try:
            unassessable |= _analyze_input(path, args, out, config)
        except (DqdvGpError, *READ_ERRORS) as exc:
            print(f"error: {path}: {type(exc).__name__}: {exc}", file=sys.stderr)
            failed = True
    if failed:
        return EXIT_ERROR
    return EXIT_UNASSESSABLE if unassessable else EXIT_OK


def _charged_labels(log):
    """The cycle labels of the log's rows with charging current, in order of
    first appearance; none when the log has no cycle column."""
    if log.cycle is None:
        return []
    labels, first = np.unique(log.cycle[log.i > 0], return_index=True)
    return [int(label) for label in labels[np.argsort(first)]]


def _analyze_input(path, args, out, config) -> bool:
    """Write the curves and the report of one input; True if some cycle in it
    could not be assessed."""
    stem = _stem(path)
    log = parse_log(path)
    curves = log_to_curves(
        log,
        cc_tol=args.cc_tol,
        vmin=args.vmin,
        vmax=args.vmax,
        max_points=args.max_points,
        capacity_ah=args.capacity,
    )
    # two runs under one label would write the same files and throughput point
    seen = set()
    for curve in curves:
        if curve.cycle in seen:
            raise RepeatedCycle(
                f"cycle {curve.cycle} has more than one constant-current charge run")
        seen.add(curve.cycle)

    cycle_reports = []
    # a label whose charge rows form no run long enough has no curve, as
    # when rows of two labels alternate; it is listed, not dropped
    unassessable = [
        {"cycle": label,
         "reason": f"no constant-current charge run of {MIN_SEGMENT_SAMPLES} or more samples"}
        for label in _charged_labels(log) if label not in seen
    ]
    assessed = []
    # each cycle's fit starts from the last optimum fitted in this input
    start = None
    for curve in curves:
        if curve.over_capacity:
            print(f"warning: {path}: cycle {curve.cycle}: CC charge above "
                  f"{OVER_CAPACITY_FACTOR} x --capacity", file=sys.stderr)
        tag = f"{stem}_cycle{curve.cycle}"
        write_csv(out / f"{tag}_qv.csv", ["voltage_v", "charge_ah"], curve.v, curve.q)
        try:
            model, post, report = analyze_curve(
                curve,
                level=args.level,
                threshold_v=args.threshold_v,
                start=start,
            )
        except GridDoesNotReachThreshold as exc:
            unassessable.append({"cycle": curve.cycle, "reason": str(exc)})
            continue
        start = model.hp
        assessed.append(curve)

        write_csv(out / f"{tag}_dqdv_gp.csv", ["voltage_v", "mean", "lower", "upper"],
                  post.grid, post.mean, post.lower, post.upper)

        if args.baseline:
            grid, dqdv = baseline.fd_dqdv(curve)
            write_csv(out / f"{tag}_dqdv_sg.csv", ["voltage_v", "mean", "method"],
                      grid, dqdv, ["sg_fd"] * len(grid))

        cycle_reports.append({
            **report.to_dict(),
            "hyperparams": model.hp.to_dict(),
            "fit_start": model.fit_start,
            "over_capacity": curve.over_capacity,
        })

    doc = {
        "config": config,
        "input": {
            "path": str(path),
            "sha256": _sha256(path),
            "rejected_rows": list(log.rejected_rows),
        },
        "cycles": cycle_reports,
        "unassessable": unassessable,
    }

    # an unassessed cycle can be a fragment, whose charge is no throughput
    if len(assessed) >= 2:
        series = metrics.throughput_series(assessed)
        doc["throughput"] = {
            "cycles": [int(c) for c in series.cycles],
            "normalized": [float(x) for x in series.normalized],
            "rate_pct_per_cycle": metrics.degradation_rate(series),
        }
        write_csv(out / f"{stem}_throughput.csv", ["cycle", "normalized_throughput"],
                  series.cycles, series.normalized)

    _write_json(out / f"{stem}_report.json", doc)
    return bool(unassessable)


def cmd_synth(args, out, spec) -> int:
    log = synth.generate_log(spec)
    write_log(log, out / "log.csv")
    _write_json(out / "spec.json", {"config": _config_dict(args), "spec": spec.to_dict()})
    return EXIT_OK


def cmd_bench(args, out, spec) -> int:
    rows = [paired_trial(spec, seed=args.seed + k) for k in range(args.n_seeds)]
    fields = list(rows[0])
    write_csv(out / "bench.csv", fields, *([r[k] for r in rows] for k in fields))

    gp_wins = sum(r["gp_rmse"] < r["sg_rmse"] for r in rows)
    summary = {
        "n_seeds": args.n_seeds,
        "gp_rmse_median": float(np.median([r["gp_rmse"] for r in rows])),
        "sg_rmse_median": float(np.median([r["sg_rmse"] for r in rows])),
        "gp_win_fraction": gp_wins / args.n_seeds,
        "coverage_mean": float(np.mean([r["coverage"] for r in rows])),
    }
    _write_json(out / "summary.json", {"config": _config_dict(args), "summary": summary})
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the help (status 0) or a usage error
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    try:
        _check_options(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    handler = {"analyze": cmd_analyze, "synth": cmd_synth, "bench": cmd_bench}[args.command]
    try:
        # building the spec checks it; --out is made only after every check
        spec = None if args.command == "analyze" else _make_spec(args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return handler(args, out, spec)
    except (DqdvGpError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
