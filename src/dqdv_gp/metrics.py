"""Charge-throughput series and degradation-rate metrics, plus the
verdict-vs-rate concordance table."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detect import VERDICT_PLATING
from .errors import LabelMismatch
from .ingest import QVCurve

__all__ = ["ThroughputSeries", "throughput_series", "degradation_rate", "concordance"]


@dataclass(frozen=True)
class ThroughputSeries:
    """Total CC-charge throughput per cycle, normalized by the first cycle."""

    cycles: np.ndarray
    throughput: np.ndarray
    normalized: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "cycles", np.asarray(self.cycles, dtype=int))
        object.__setattr__(self, "throughput", np.asarray(self.throughput, dtype=float))
        object.__setattr__(self, "normalized", np.asarray(self.normalized, dtype=float))


def throughput_series(curves: list[QVCurve]) -> ThroughputSeries:
    """Per-cycle end-of-charge throughput, normalized by the first cycle."""
    if not curves:
        raise ValueError("at least one curve is required")
    ordered = sorted(curves, key=lambda c: c.cycle)
    cycles = np.array([c.cycle for c in ordered], dtype=int)
    tp = np.array([c.q[-1] for c in ordered], dtype=float)
    if tp[0] <= 0:
        raise ValueError("first-cycle throughput must be positive for normalization")
    return ThroughputSeries(cycles=cycles, throughput=tp, normalized=tp / tp[0])


def degradation_rate(series: ThroughputSeries) -> float:
    """Percent throughput loss per cycle from a linear least-squares fit of
    the normalized series against cycle index."""
    if len(series.cycles) < 2:
        raise ValueError("rate fitting needs at least 2 cycles")
    slope = np.polyfit(series.cycles.astype(float), series.normalized, 1)[0]
    return float(-slope * 100.0)


def concordance(verdicts: dict, rates: dict, rate_split: float = 1.0) -> dict:
    """Cross-tabulate plating verdicts against degradation rates.

    verdicts: condition label -> verdict string.
    rates: condition label -> %/cycle throughput decrease.
    A condition agrees when (verdict == Plating) == (rate >= rate_split).
    """
    labels = sorted(set(verdicts) & set(rates))
    if not labels:
        raise LabelMismatch("no common condition labels between verdicts and rates")

    rows = []
    n_agree = 0
    counts = {"plating_fast": 0, "plating_slow": 0, "noplating_fast": 0, "noplating_slow": 0}
    for label in labels:
        verdict = verdicts[label]
        plating = verdict == VERDICT_PLATING
        fast = rates[label] >= rate_split
        agree = plating == fast
        n_agree += agree
        key = ("plating" if plating else "noplating") + ("_fast" if fast else "_slow")
        counts[key] += 1
        rows.append(
            {
                "condition": label,
                "verdict": verdict,
                "rate_pct_per_cycle": float(rates[label]),
                "rate_exceeds_split": bool(fast),
                "agree": bool(agree),
            }
        )
    return {
        "rate_split": float(rate_split),
        "rows": rows,
        "table": counts,
        "n_agree": int(n_agree),
        "n_total": len(labels),
        "agreement": n_agree / len(labels),
    }
