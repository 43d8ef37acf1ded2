"""Checks of the program's outputs against the benchmark's truth.

Unit checks return a list of failure reasons (empty when the unit passed).
Run checks are properties the method must have over a whole run; the
README gives the reasoning behind each tolerance.
"""

from __future__ import annotations

import numpy as np

from truth import interior

PEAK_TOL_V = 0.02          # best plating peak within this of the generated bump
COVERAGE_RANGE = (0.90, 0.99)  # pooled interior coverage of the 95% band
GP_WIN_MIN = 0.90          # share of montecarlo seeds where GP beats SG+FD
FINAL_Q_TOL_STEPS = 0.5    # final CC charge within this many sample steps of truth
RATE_TOL_PCT = 0.01        # degradation rate within this of 100 * fade, %/cycle
MIN_POOLED_UNITS = 40      # units a run needs before its pooled shares are judged


def verdict_failures(cell, cycle_report):
    """``cycle_report`` is a ``PlatingReport.to_dict()``."""
    verdict = cycle_report["verdict"]
    if not cell.plating:
        return [] if verdict == "NoPlating" else [f"verdict {verdict} on a no-plating cell"]
    if verdict != "Plating":
        return [f"verdict {verdict} on a plating cell"]
    best = max(cycle_report["peaks"], key=lambda p: p["magnitude"])
    err = abs(best["v_peak"] - cell.bump_v)
    return [] if err <= PEAK_TOL_V else [f"best peak {err:.3f} V from the plating bump"]


def report_failures(doc, sha256, n_cycles):
    """Report-level faults of one ``analyze`` report; each fails every cycle."""
    out = []
    if doc["input"]["sha256"] != sha256:
        out.append("report input hash differs from the file's SHA-256")
    found = len(doc["cycles"]) + len(doc["unassessable"])
    if found != n_cycles:
        out.append(f"report has {found} cycles, log has {n_cycles}")
    return out


def band_stats(grid, mean, truth, lower=None, upper=None):
    """Interior (relative RMSE, points covered by the band, interior points)."""
    m = interior(grid)
    rmse = np.sqrt(np.mean((mean[m] - truth[m]) ** 2))
    rel = float(rmse / np.sqrt(np.mean(truth[m] ** 2)))
    if lower is None:
        return rel, 0, 0
    covered = int(np.sum((truth[m] >= lower[m]) & (truth[m] <= upper[m])))
    return rel, covered, int(np.sum(m))


def history_failures(cell, samples, n_cycles, final_q, rate_pct):
    """``final_q`` holds each curve's final charge in cycle order."""
    if len(final_q) != n_cycles:
        return [f"{len(final_q)} curves from a log of {n_cycles} cycles"]
    out = []
    for c, q in enumerate(final_q, start=1):
        want = cell.capacity * cell.fade_factor(c)
        tol = FINAL_Q_TOL_STEPS * want / (samples - 1)
        if abs(q - want) > tol:
            out.append(f"cycle {c} final charge {q:.6g} Ah, expected {want:.6g} Ah")
    if abs(rate_pct - 100.0 * cell.fade) > RATE_TOL_PCT:
        out.append(f"degradation rate {rate_pct:.4f} %/cycle, generated {100 * cell.fade:.4f}")
    return out


def run_failures(units, covered, points, gp_wins=0, seeds=0):
    """Run-level properties: band calibration and, on montecarlo, GP vs SG+FD.

    Both are shares pooled over the run, so they are judged only on runs of
    at least MIN_POOLED_UNITS units (tiny runs skip them).
    """
    if units < MIN_POOLED_UNITS:
        return []
    out = []
    if points:
        cov = covered / points
        if not COVERAGE_RANGE[0] <= cov <= COVERAGE_RANGE[1]:
            out.append(f"pooled 95% band coverage {cov:.3f} outside {COVERAGE_RANGE}")
    if seeds and gp_wins / seeds < GP_WIN_MIN:
        out.append(f"GP beat SG+FD on {gp_wins}/{seeds} seeds, below {GP_WIN_MIN}")
    return out
