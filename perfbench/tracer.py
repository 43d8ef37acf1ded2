"""Spans around the calls into each layer, recorded from the benchmark's side.

``Tracer.install`` replaces each public function with a wrapper under the
name that its caller looks up: ``gp_core`` and ``derivative`` import the
kernel functions by name, ``pipeline`` imports ``fit`` and the ingest
steps, and ``cli`` imports ``parse_log``.  Spans are kept in memory and
written out when the run ends; wrappers record nothing outside a unit.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np


def _rows(args, kwargs, result):
    return len(result)


def _nbytes(args, kwargs, result):
    arrays = result if isinstance(result, (list, tuple)) else [result]
    return int(sum(a.nbytes for a in arrays))


def _block(args, kwargs, result):
    block = args[3] if len(args) > 3 else kwargs.get("block", "VV")
    return [block, int(result.nbytes)]


# (module, attribute, span name, what to record from the call)
PATCHES = [
    ("cli", "main", "cli.main", None),
    ("cli", "parse_log", "ingest.parse_log", _rows),
    ("ingest", "parse_log", "ingest.parse_log", _rows),
    ("pipeline", "extract_cc_charge", "ingest.extract_cc_charge", None),
    ("pipeline", "coulomb_count", "ingest.coulomb_count", None),
    ("pipeline", "clean_qv", "ingest.clean_qv", None),
    ("pipeline", "fit", "gp_core.fit", None),
    ("gp_core", "log_marginal_likelihood", "gp_core.lml", None),
    ("gp_core", "minimize", "scipy.minimize", None),
    ("gp_core", "kernel_matrix", "kernel.kernel_matrix", _block),
    ("gp_core", "log_param_grads", "kernel.log_param_grads", _nbytes),
    ("derivative", "kernel_matrix", "kernel.kernel_matrix", _block),
    ("pipeline", "derivative_posterior", "derivative.derivative_posterior", None),
    ("detect", "classify", "detect.classify", None),
    ("baseline", "fd_dqdv", "baseline.fd_dqdv", None),
    ("metrics", "throughput_series", "metrics.throughput_series", None),
    ("metrics", "degradation_rate", "metrics.degradation_rate", None),
]

ROOT = "unit"


class Tracer:
    """Spans are lists [name, start, end, parent index, unit id, data]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._unit = None
        self._saved = []

    def wrap(self, name, fn, data=None):
        def traced(*args, **kwargs):
            if self._unit is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self._stack[-1], self._unit, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if data is not None:
                span[5] = data(args, kwargs, result)
            return result

        return traced

    def install(self):
        import importlib

        for mod_name, attr, name, data in PATCHES:
            mod = importlib.import_module(f"dqdv_gp.{mod_name}")
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(name, fn, data))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def begin(self, unit):
        self._unit = unit
        self._stack = [len(self.spans)]
        self.spans.append([ROOT, time.perf_counter(), 0.0, None, unit, None])

    def end(self):
        root = self.spans[self._stack[0]]
        root[2] = time.perf_counter()
        self._unit = None
        return root[2] - root[1]

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


LAYERS = ("ingest", "gp_core", "scipy", "kernel", "derivative", "detect",
          "baseline", "metrics", "cli")


def layer_metrics(spans):
    """Per-layer metrics from the spans of a traced run.

    A span's self time is its duration minus its children's (calls do not
    overlap within one thread).  A layer that did no work reads 0.
    """
    n = len(spans)
    dur = np.array([s[2] - s[1] for s in spans])
    child = np.zeros(n)
    fit_of = [None] * n     # index of the enclosing gp_core.fit span
    for k, s in enumerate(spans):
        parent = s[3]
        if parent is not None:
            child[parent] += dur[k]
            fit_of[k] = fit_of[parent]
        if s[0] == "gp_core.fit":
            fit_of[k] = k
    self_t = dur - child
    by_name = defaultdict(list)
    for k, s in enumerate(spans):
        by_name[s[0]].append(k)

    def mean(values):
        return float(np.mean(values)) if len(values) else 0.0

    def avg(idx, scale=1.0):
        return mean(dur[idx]) * scale

    fits = by_name["gp_core.fit"]
    n_fit = len(fits)
    lml = by_name["gp_core.lml"]
    lml_in_fit = defaultdict(float)
    for k in lml:
        if fit_of[k] is not None:
            lml_in_fit[fit_of[k]] += dur[k]
    kernel = by_name["kernel.kernel_matrix"]
    kernel_bytes = sum(
        spans[k][5][1] if spans[k][0] == "kernel.kernel_matrix" else spans[k][5]
        for k in kernel + by_name["kernel.log_param_grads"]
        if fit_of[k] is not None
    )
    parse = by_name["ingest.parse_log"]
    roots = by_name[ROOT]
    total = float(np.sum(dur[roots]))
    metrics_calls = by_name["metrics.throughput_series"] + by_name["metrics.degradation_rate"]

    out = {
        "ingest.parse_log.s": (avg(by_name["ingest.parse_log"]), "s"),
        "ingest.parse_log.rows_per_s": (
            sum(spans[k][5] for k in parse) / float(np.sum(dur[parse])) if parse else 0.0,
            "1/s"),
        "ingest.extract_cc_charge.s": (avg(by_name["ingest.extract_cc_charge"]), "s"),
        "ingest.clean_qv.s": (avg(by_name["ingest.clean_qv"]), "s"),
        "gp_core.fit.s": (avg(by_name["gp_core.fit"]), "s"),
        "gp_core.fit.self_s": (mean([dur[k] - lml_in_fit[k] for k in fits]), "s"),
        "gp_core.lml.calls_per_fit": (
            sum(fit_of[k] is not None for k in lml) / n_fit if n_fit else 0.0, "count"),
        "gp_core.ascents_per_fit": (
            len(by_name["scipy.minimize"]) / n_fit if n_fit else 0.0, "count"),
        "gp_core.lml.ms_per_call": (avg(by_name["gp_core.lml"], 1e3), "ms"),
        "gp_core.lml.linalg_ms_per_call": (mean(self_t[lml]) * 1e3, "ms"),
        "kernel.vv.ms_per_call": (
            avg([k for k in kernel if spans[k][5][0] == "VV"], 1e3), "ms"),
        "kernel.vd.ms_per_call": (
            avg([k for k in kernel if spans[k][5][0] == "VD"], 1e3), "ms"),
        "kernel.log_param_grads.ms_per_call": (avg(by_name["kernel.log_param_grads"], 1e3), "ms"),
        "kernel.bytes_computed_per_fit": (kernel_bytes / n_fit if n_fit else 0.0, "bytes"),
        "derivative.derivative_posterior.ms_per_call": (
            avg(by_name["derivative.derivative_posterior"], 1e3), "ms"),
        "detect.classify.ms_per_call": (avg(by_name["detect.classify"], 1e3), "ms"),
        "baseline.fd_dqdv.ms_per_call": (avg(by_name["baseline.fd_dqdv"], 1e3), "ms"),
        "metrics.throughput.ms_per_call": (
            float(np.sum(dur[metrics_calls])) / len(by_name["metrics.throughput_series"]) * 1e3
            if by_name["metrics.throughput_series"] else 0.0, "ms"),
        "cli.analyze.self_s": (mean(self_t[by_name["cli.main"]]), "s"),
        "trace.unaccounted_pct": (100.0 * float(np.sum(self_t[roots])) / total, "%"),
        "trace.unaccounted_max_unit_pct": (
            100.0 * float(np.max(self_t[roots] / dur[roots])), "%"),
    }
    for layer in LAYERS:
        idx = [k for k, s in enumerate(spans) if s[0].split(".")[0] == layer]
        out[f"self_pct.{layer}"] = (100.0 * float(np.sum(self_t[idx])) / total, "%")
    return out
