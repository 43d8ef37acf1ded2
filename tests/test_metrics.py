"""Throughput series, degradation rate, and verdict/rate concordance."""

import numpy as np
import pytest

from dqdv_gp.errors import LabelMismatch
from dqdv_gp.ingest import QVCurve
from dqdv_gp.metrics import concordance, degradation_rate, throughput_series

# charge-throughput decrease rates (% loss/cycle) and peak verdicts for the
# nine published operating conditions
PUBLISHED_ROWS = {
    "1.0C@10C": ("Plating", 1.464),
    "0.8C@10C": ("Plating", 2.734),
    "0.6C@10C": ("Plating", 2.038),
    "0.4C@10C": ("Plating", 1.671),
    "0.6C@0C": ("Plating", 3.617),
    "0.4C@0C": ("Plating", 1.711),
    "0.2C@0C": ("NoPlating", 0.029),
    "1.0C@40C": ("NoPlating", 0.093),
    "1.0C@25C": ("NoPlating", 0.227),
}


def _curve(cycle, q_end):
    v = np.linspace(2.8, 4.1, 20)
    q = np.linspace(0.0, q_end, 20)
    return QVCurve(v=v, q=q, cycle=cycle, start=0, end=20)


def test_throughput_series_sorted_and_normalized():
    curves = [_curve(3, 0.040), _curve(1, 0.045), _curve(2, 0.043)]
    series = throughput_series(curves)
    assert list(series.cycles) == [1, 2, 3]
    assert series.normalized[0] == 1.0
    assert series.normalized[2] == pytest.approx(0.040 / 0.045)


def test_single_cycle_normalizes_to_one():
    series = throughput_series([_curve(1, 0.045)])
    assert list(series.normalized) == [1.0]


def test_geometric_fade_normalization():
    curves = [_curve(c, 0.045 * 0.98 ** (c - 1)) for c in range(1, 11)]
    series = throughput_series(curves)
    assert series.normalized[9] == pytest.approx(0.98**9, abs=1e-12)


def test_flat_series_rate_zero():
    curves = [_curve(c, 0.045) for c in range(1, 6)]
    assert degradation_rate(throughput_series(curves)) == pytest.approx(0.0, abs=1e-12)


def test_rate_invariant_to_throughput_scale():
    base = [_curve(c, 0.045 * (1 - 0.01 * (c - 1))) for c in range(1, 8)]
    scaled = [_curve(c, 0.9 * (1 - 0.01 * (c - 1))) for c in range(1, 8)]
    assert degradation_rate(throughput_series(base)) == pytest.approx(
        degradation_rate(throughput_series(scaled)), rel=1e-12
    )


def test_published_fastest_plating_rate_reconstructed():
    curves = [_curve(c, 0.045 * (1.0 - 0.01464 * (c - 1))) for c in range(1, 11)]
    rate = degradation_rate(throughput_series(curves))
    assert rate == pytest.approx(1.464, abs=1e-9)


def test_thirteen_percent_over_ten_cycles_lands_in_plating_cluster():
    curves = [_curve(c, 0.045 * (1.0 - 0.13 / 9 * (c - 1))) for c in range(1, 11)]
    assert degradation_rate(throughput_series(curves)) >= 1.3


def test_throughput_needs_curves():
    with pytest.raises(ValueError):
        throughput_series([])


def test_degradation_rate_exact_linear():
    curves = [_curve(c, 0.045 * (1.0 - 0.02 * (c - 1))) for c in range(1, 11)]
    rate = degradation_rate(throughput_series(curves))
    assert rate == pytest.approx(2.0, abs=1e-9)


def test_degradation_rate_needs_two_cycles():
    with pytest.raises(ValueError):
        degradation_rate(throughput_series([_curve(1, 0.045)]))


class TestConcordance:
    def test_published_rows_fully_concordant(self):
        verdicts = {k: v for k, (v, _) in PUBLISHED_ROWS.items()}
        rates = {k: r for k, (_, r) in PUBLISHED_ROWS.items()}
        result = concordance(verdicts, rates, rate_split=1.0)
        assert result["n_agree"] == 9
        assert result["n_total"] == 9
        assert result["agreement"] == 1.0
        assert result["table"] == {
            "plating_fast": 6, "plating_slow": 0,
            "noplating_fast": 0, "noplating_slow": 3,
        }

    def test_disagreement_counted(self):
        result = concordance({"a": "Plating", "b": "NoPlating"},
                             {"a": 0.1, "b": 2.0})
        assert result["n_agree"] == 0
        assert result["rows"][0]["agree"] is False

    def test_accepts_report_objects(self):
        class FakeReport:
            verdict = "Plating"

        result = concordance({"a": FakeReport()}, {"a": 2.0})
        assert result["n_agree"] == 1

    def test_intersection_only(self):
        result = concordance({"a": "Plating", "zzz": "Plating"}, {"a": 2.0, "b": 0.1})
        assert result["n_total"] == 1

    def test_disjoint_labels_raise(self):
        with pytest.raises(LabelMismatch):
            concordance({"a": "Plating"}, {"b": 2.0})

    def test_split_boundary_inclusive(self):
        result = concordance({"a": "Plating"}, {"a": 1.0}, rate_split=1.0)
        assert result["n_agree"] == 1
