"""Charging-log ingestion: CSV parsing, CC-segment extraction, coulomb
counting, and Q(V) cleaning.

Column contract: named columns ``time_s, current_a, voltage_v`` with an
optional ``cycle`` column, comma-delimited, UTF-8 with or without a
byte-order mark.  Gzip-compressed files are accepted by extension.
"""

from __future__ import annotations

import csv
import gzip
import math
import warnings
import zlib
from dataclasses import dataclass

import numpy as np
from scipy.optimize import isotonic_regression

from .errors import (
    EmptyLog,
    MalformedHeader,
    NoChargeSegments,
    NonFinite,
    NonMonotonicTime,
    TooFewPoints,
)

__all__ = [
    "ChargeLog",
    "CCSegment",
    "QVCurve",
    "READ_ERRORS",
    "parse_log",
    "write_log",
    "extract_cc_charge",
    "coulomb_count",
    "clean_qv",
    "write_csv",
]

V_MIN_DEFAULT = 2.75
V_MAX_DEFAULT = 4.2
MAX_POINTS_DEFAULT = 500
MIN_POINTS = 4  # fewest Q(V) points a cleaned curve may keep
CC_TOL_DEFAULT = 0.02
OVER_CAPACITY_FACTOR = 1.5  # CC charge above this many nominal capacities is flagged
SECONDS_PER_HOUR = 3600.0
_INT64 = np.iinfo(np.int64)  # the range of a cycle label
# what reading a damaged file raises besides this package's errors: a missing
# file, a cut or corrupt .gz, non-UTF-8 bytes, a field over csv's size limit
READ_ERRORS = (OSError, EOFError, zlib.error, UnicodeDecodeError, csv.Error)


TIME_COL = "time_s"
CURRENT_COL = "current_a"
VOLTAGE_COL = "voltage_v"
CYCLE_COL = "cycle"
DELIMITER = ","


@dataclass(frozen=True)
class ChargeLog:
    """Time-stamped current/voltage samples, optionally tagged with a cycle
    index."""

    t: np.ndarray
    i: np.ndarray
    v: np.ndarray
    cycle: np.ndarray | None = None
    rejected_rows: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float))
        object.__setattr__(self, "i", np.asarray(self.i, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        if self.cycle is not None:
            object.__setattr__(self, "cycle", np.asarray(self.cycle, dtype=int))

    def __len__(self):
        return len(self.t)


@dataclass(frozen=True)
class CCSegment:
    """One constant-current charge run (indices into the source log)."""

    t: np.ndarray
    i: np.ndarray
    v: np.ndarray
    cycle: int
    start: int
    end: int  # exclusive


@dataclass(frozen=True)
class QVCurve:
    """Monotone (voltage, cumulative charge) pairs for one CC charge."""

    v: np.ndarray
    q: np.ndarray
    cycle: int
    over_capacity: bool = False

    def __post_init__(self):
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))

    def __len__(self):
        return len(self.v)


def parse_log(path) -> ChargeLog:
    """Parse a charging-log CSV (gzip if the name ends in .gz) into a validated ChargeLog.

    Whitespace around a field, as ``str.strip`` defines it (0x1c-0x1f
    included), is ignored.  Rows with non-finite or unparseable fields, or a
    cycle label beyond int64, are skipped and reported in ``rejected_rows``
    (1-based data-row indices).  Raises MalformedHeader, NonMonotonicTime
    (first offending row), or EmptyLog.  A clean body is parsed in bulk and
    any other one row by row; both give the same ChargeLog.
    """
    with _open_log(path) as fh:
        log = _parse_clean_body(fh, *_read_header(fh))
    # any other body is read again, from the start, by the row loop
    return log if log is not None else _parse_rows(path)


def _open_log(path):
    opener = gzip.open if str(path).endswith(".gz") else open
    return opener(path, "rt", encoding="utf-8-sig")


def _read_header(fh):
    """Read the header row from ``fh``; return the column indices of time,
    current, voltage and cycle (None when there is no cycle column)."""
    try:
        header = next(csv.reader(fh, delimiter=DELIMITER))
    except StopIteration:
        raise EmptyLog("file has no header row")
    header = [h.strip() for h in header]
    required = [TIME_COL, CURRENT_COL, VOLTAGE_COL]
    missing = [c for c in required if c not in header]
    if missing:
        raise MalformedHeader(f"missing required columns: {missing}")
    ic = header.index(CYCLE_COL) if CYCLE_COL in header else None
    return header.index(TIME_COL), header.index(CURRENT_COL), header.index(VOLTAGE_COL), ic


def _parse_clean_body(fh, it, ii, iv, ic):
    """The ChargeLog of the rest of ``fh`` read in bulk, or None unless the row
    loop would read the same: every row parsed, all values finite, every cycle
    label an integer below 2**53 in magnitude (so exact in float64) and time
    increasing within each cycle."""
    usecols = (it, ii, iv) if ic is None else (it, ii, iv, ic)
    try:
        with warnings.catch_warnings():
            # a body without data rows goes to the row loop, which raises EmptyLog
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(fh, delimiter=DELIMITER, usecols=usecols, comments=None,
                              quotechar='"', ndmin=2, dtype=float)
    except (ValueError, *READ_ERRORS):
        # the row loop reports a damaged file as it always has, at its first bad row
        return None
    if len(data) == 0 or not np.isfinite(data).all():
        return None
    # contiguous copies, as the row loop's arrays are
    t, i, v = (data[:, k].copy() for k in range(3))
    # as in the row loop, a log without a cycle column is one cycle, 0
    labels = data[:, 3] if ic is not None else np.zeros(len(t))
    if not ((np.abs(labels) < 2.0**53) & (labels == np.trunc(labels))).all():
        return None
    cycle = labels.astype(np.int64)
    order = np.argsort(cycle, kind="stable")
    if ((np.diff(cycle[order]) == 0) & (np.diff(t[order]) <= 0)).any():
        return None
    return ChargeLog(t=t, i=i, v=v, cycle=cycle if ic is not None else None)


def _parse_rows(path) -> ChargeLog:
    """``parse_log`` one row at a time: the reference for the bulk read, and
    the only reader of a body with a rejected row or a time reversal."""
    with _open_log(path) as fh:
        it, ii, iv, ic = _read_header(fh)
        reader = csv.reader(fh, delimiter=DELIMITER)
        t, i_, v, cyc, rejected = [], [], [], [], []
        last_t = {}
        for row_num, row in enumerate(reader, start=1):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                tv = float(row[it].strip())
                iv_ = float(row[ii].strip())
                vv = float(row[iv].strip())
                try:
                    cv = int(row[ic].strip()) if ic is not None else 0
                except ValueError:
                    # 2.0, as pandas writes an integer column that has a missing value
                    cv = float(row[ic].strip())
                    if not cv.is_integer():
                        raise
                    cv = int(cv)
            except (ValueError, IndexError):
                rejected.append(row_num)
                continue
            if not (math.isfinite(tv) and math.isfinite(iv_) and math.isfinite(vv)
                    and _INT64.min <= cv <= _INT64.max):
                rejected.append(row_num)
                continue
            if cv in last_t and tv <= last_t[cv]:
                raise NonMonotonicTime(row_num)
            last_t[cv] = tv
            t.append(tv)
            i_.append(iv_)
            v.append(vv)
            cyc.append(cv)

    if len(t) == 0:
        raise EmptyLog("no valid samples")
    return ChargeLog(
        t=np.array(t),
        i=np.array(i_),
        v=np.array(v),
        cycle=np.array(cyc, dtype=np.int64) if ic is not None else None,
        rejected_rows=tuple(rejected),
    )


def write_csv(path, header, *columns):
    """Write equal-length columns under ``header`` to the file at ``path``.

    Floats are written as ``repr(float(x))``, the shortest string that reads
    back to the same value; integers and strings as they are.
    """
    rows = zip(*(np.asarray(col).tolist() for col in columns))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=DELIMITER)
        writer.writerow(header)
        writer.writerows(rows)


def write_log(log: ChargeLog, path):
    """Write a ChargeLog back out in the standard CSV schema."""
    if log.cycle is None:
        write_csv(path, [TIME_COL, CURRENT_COL, VOLTAGE_COL], log.t, log.i, log.v)
    else:
        write_csv(path, [TIME_COL, CURRENT_COL, VOLTAGE_COL, CYCLE_COL],
                  log.t, log.i, log.v, log.cycle)


MIN_SEGMENT_SAMPLES = 10


def extract_cc_charge(log: ChargeLog, tol: float = CC_TOL_DEFAULT) -> list[CCSegment]:
    """Find maximal constant-current charge runs.

    A run has I > 0 throughout, every sample within ``tol`` of the run-median
    current, and at least 10 samples.  Runs never cross cycle boundaries;
    cycle labels come from the cycle column when present, else run ordinal.
    """
    if len(log) == 0:
        raise NoChargeSegments("empty log")
    cyc = log.cycle if log.cycle is not None else np.zeros(len(log), dtype=int)

    # candidate runs: consecutive I > 0 within one cycle label
    positive = log.i > 0
    change = (positive[1:] != positive[:-1]) | (cyc[1:] != cyc[:-1])
    boundaries = np.concatenate(([0], np.flatnonzero(change) + 1, [len(log)]))

    segments = []
    for a, b in zip(boundaries[:-1], boundaries[1:]):
        if not positive[a]:
            continue
        med = float(np.median(log.i[a:b]))
        ok = np.abs(log.i[a:b] - med) <= tol * med
        # maximal sub-runs of in-tolerance samples: the edges of the padded
        # mask alternate between the start and the (exclusive) end of a run
        edges = np.flatnonzero(np.diff(np.concatenate(([False], ok, [False]))))
        for lo, hi in zip(a + edges[0::2], a + edges[1::2]):
            if hi - lo >= MIN_SEGMENT_SAMPLES:
                segments.append((int(lo), int(hi)))

    if not segments:
        raise NoChargeSegments("no constant-current charge run found")

    out = []
    for ordinal, (lo, hi) in enumerate(segments, start=1):
        label = int(cyc[lo]) if log.cycle is not None else ordinal
        out.append(
            CCSegment(
                t=log.t[lo:hi], i=log.i[lo:hi], v=log.v[lo:hi],
                cycle=label, start=lo, end=hi,
            )
        )
    return out


def coulomb_count(segment: CCSegment, capacity_ah: float | None = None) -> QVCurve:
    """Integrate current over time (trapezoid) into cumulative charge in Ah.

    Flags the curve when total charge exceeds ``OVER_CAPACITY_FACTOR`` x capacity_ah.
    """
    dt = np.diff(segment.t)
    inc = 0.5 * (segment.i[1:] + segment.i[:-1]) * dt / SECONDS_PER_HOUR
    q = np.concatenate([[0.0], np.cumsum(inc)])
    over = bool(capacity_ah is not None and q[-1] > OVER_CAPACITY_FACTOR * capacity_ah)
    return QVCurve(v=segment.v, q=q, cycle=segment.cycle, over_capacity=over)


DUPLICATE_V_EPS = 1e-4  # 0.1 mV, below 16-bit cycler quantization at 4.2 V


def clean_qv(
    curve: QVCurve,
    max_points: int = MAX_POINTS_DEFAULT,
    vmin: float = V_MIN_DEFAULT,
    vmax: float = V_MAX_DEFAULT,
) -> QVCurve:
    """Produce a strictly monotone Q(V) map ready for GP training.

    Sorts by voltage, merges near-duplicate voltages (within 0.1 mV) by
    averaging charge, restricts to [vmin, vmax], enforces non-decreasing q
    (isotonic projection, which averages out local inversions instead of
    ratcheting them upward), and downsamples uniformly in V to at most
    ``max_points`` keeping the endpoints.  Charge is re-zeroed at the first
    kept sample.  Raises TooFewPoints when fewer than ``MIN_POINTS`` remain
    or the charge does not rise, NonFinite when the kept charge's spread,
    which the fit scales by, is not finite in float64, and ValueError when
    ``max_points`` is below ``MIN_POINTS``.
    """
    if max_points < MIN_POINTS:
        raise ValueError(f"max_points must be at least {MIN_POINTS}, got {max_points}")
    if len(curve) < MIN_POINTS:
        raise TooFewPoints(f"curve has only {len(curve)} points")

    order = np.argsort(curve.v, kind="stable")
    v = curve.v[order]
    q = curve.q[order]

    # average q (and v) over near-duplicate groups; quantized bins keep each
    # group no wider than the threshold even on very dense curves
    bins = np.floor((v - v[0]) / DUPLICATE_V_EPS).astype(np.int64)
    _, group = np.unique(bins, return_inverse=True)
    counts = np.bincount(group)
    v = np.bincount(group, weights=v) / counts
    q = np.bincount(group, weights=q) / counts

    mask = (v >= vmin) & (v <= vmax)
    v, q = v[mask], q[mask]
    if len(v) < MIN_POINTS:
        raise TooFewPoints(f"fewer than {MIN_POINTS} points inside the voltage cutoffs")

    if np.any(np.diff(q) < 0):
        q = isotonic_regression(q).x
    q = q - q[0]
    if q[-1] <= 0:
        # charge that falls as voltage rises, a discharge logged with I > 0,
        # projects to one flat level
        raise TooFewPoints("charge does not rise with voltage")

    if len(v) > max_points:
        targets = np.linspace(v[0], v[-1], max_points)
        idx = np.unique(np.searchsorted(v, targets).clip(0, len(v) - 1))
        idx[0], idx[-1] = 0, len(v) - 1
        v, q = v[idx], q[idx]

    if len(v) < MIN_POINTS:
        raise TooFewPoints(f"fewer than {MIN_POINTS} points after downsampling")
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(np.std(q)):
            raise NonFinite("the spread of the charge is not finite in float64")
    return QVCurve(v=v, q=q, cycle=curve.cycle, over_capacity=curve.over_capacity)
