"""CSV parsing, CC-segment extraction, coulomb counting, and Q(V) cleaning."""

import gzip

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqdv_gp import ingest
from dqdv_gp.errors import (
    EmptyLog,
    MalformedHeader,
    NoChargeSegments,
    NonFinite,
    NonMonotonicTime,
    TooFewPoints,
)
from dqdv_gp.ingest import (
    CCSegment,
    ChargeLog,
    QVCurve,
    clean_qv,
    coulomb_count,
    extract_cc_charge,
    parse_log,
    write_log,
)


def _csv(tmp_path, text):
    path = tmp_path / "log.csv"
    path.write_text(text, encoding="utf-8")
    return path


class TestParseLog:
    def test_basic(self, tmp_path):
        log = parse_log(
            _csv(tmp_path, "time_s,current_a,voltage_v\n0,0.045,3.0\n1,0.045,3.1\n")
        )
        assert len(log) == 2
        assert log.cycle is None
        assert log.rejected_rows == ()
        np.testing.assert_allclose(log.i, [0.045, 0.045])

    def test_cycle_column_and_extra_columns(self, tmp_path):
        log = parse_log(
            _csv(
                tmp_path,
                "temp_c,time_s,current_a,voltage_v,cycle\n"
                "25,0,0.1,3.0,1\n25,1,0.1,3.1,1\n25,0,0.1,3.0,2\n"
            )
        )
        assert list(log.cycle) == [1, 1, 2]

    def test_integral_float_cycle_labels(self, tmp_path):
        log = parse_log(
            _csv(
                tmp_path,
                "time_s,current_a,voltage_v,cycle\n"
                "0,0.1,3.0,1.0\n1,0.1,3.1,1.0\n2,0.1,3.2,1.5\n0,0.1,3.0,2.0\n"
                "1,0.1,3.1,nan\n2,0.1,3.2,inf\n3,0.1,3.3,2.0\n"
            )
        )
        assert list(log.cycle) == [1, 1, 2, 2]
        assert log.rejected_rows == (3, 5, 6)

    @pytest.mark.parametrize(
        "label", ["99999999999999999999", "1e300", "-9223372036854775809"])
    def test_cycle_label_beyond_int64_is_rejected(self, tmp_path, label):
        log = parse_log(
            _csv(
                tmp_path,
                "time_s,current_a,voltage_v,cycle\n"
                f"0,0.1,3.0,1\n5,0.1,3.1,{label}\n1,0.1,3.1,x\n\n"
                f"2,0.1,3.2,1\n4,0.1,3.2,{label}\n3,0.1,3.3,9223372036854775807\n"
            )
        )
        # the label's time going backwards raises nothing: its rows are rejected
        assert list(log.cycle) == [1, 1, 2**63 - 1]
        assert log.rejected_rows == (2, 3, 6)
        np.testing.assert_array_equal(log.t, [0.0, 2.0, 3.0])

    @pytest.mark.parametrize("parse", [parse_log, ingest._parse_rows])
    def test_ascii_separators_around_a_field_are_whitespace(self, tmp_path, parse):
        # str.strip, like numpy's loadtxt, strips 0x1c-0x1f; float() and int() do not
        log = parse(
            _csv(tmp_path, "time_s,current_a,voltage_v,cycle\n0,0.1,3.0,1\n1,0.1,3.1\x1f,\x1c2\n")
        )
        np.testing.assert_array_equal(log.v, [3.0, 3.1])
        assert list(log.cycle) == [1, 2]
        assert log.rejected_rows == ()

    def test_missing_column(self, tmp_path):
        with pytest.raises(MalformedHeader, match="voltage_v"):
            parse_log(_csv(tmp_path, "time_s,current_a\n0,1\n"))

    def test_bad_rows_are_rejected_not_fatal(self, tmp_path):
        log = parse_log(
            _csv(
                tmp_path,
                "time_s,current_a,voltage_v\n"
                "0,0.1,3.0\n"
                "1,abc,3.1\n"
                "2,0.1,nan\n"
                "3,0.1,3.2\n"
            )
        )
        assert len(log) == 2
        assert log.rejected_rows == (2, 3)

    def test_blank_rows_skipped_but_numbered(self, tmp_path):
        log = parse_log(
            _csv(
                tmp_path,
                "time_s,current_a,voltage_v\n"
                "0,0.1,3.0\n"
                "\n"
                " , ,\n"
                "1,abc,3.1\n"
                "2,0.1,3.2\n"
            )
        )
        assert len(log) == 2
        assert log.rejected_rows == (4,)

    def test_non_monotonic_time_reports_row(self, tmp_path):
        with pytest.raises(NonMonotonicTime) as exc:
            parse_log(
                _csv(tmp_path, "time_s,current_a,voltage_v\n0,0.1,3.0\n5,0.1,3.1\n3,0.1,3.2\n")
            )
        assert exc.value.row == 3

    def test_time_resets_allowed_across_cycles(self, tmp_path):
        log = parse_log(
            _csv(
                tmp_path,
                "time_s,current_a,voltage_v,cycle\n"
                "0,0.1,3.0,1\n10,0.1,3.5,1\n0,0.1,3.0,2\n10,0.1,3.5,2\n"
            )
        )
        assert len(log) == 4

    def test_empty_file(self, tmp_path):
        with pytest.raises(EmptyLog):
            parse_log(_csv(tmp_path, ""))
        with pytest.raises(EmptyLog):
            parse_log(_csv(tmp_path, "time_s,current_a,voltage_v\n"))

    def test_gzip_by_extension(self, tmp_path):
        p = tmp_path / "log.csv.gz"
        with gzip.open(p, "wt") as fh:
            fh.write("time_s,current_a,voltage_v\n0,0.1,3.0\n1,0.1,3.1\n")
        assert len(parse_log(p)) == 2

    @pytest.mark.parametrize("name", ["log.csv", "log.csv.gz"])
    def test_byte_order_mark(self, tmp_path, name):
        # spreadsheet exports often start the header with a UTF-8 BOM
        data = "\ufefftime_s,current_a,voltage_v\n0,0.1,3.0\n1,0.1,3.1\n".encode("utf-8")
        p = tmp_path / name
        p.write_bytes(gzip.compress(data) if name.endswith(".gz") else data)
        log = parse_log(p)
        assert len(log) == 2 and log.rejected_rows == ()
        np.testing.assert_array_equal(log.t, [0.0, 1.0])


@given(
    n=st.integers(2, 40),
    seed=st.integers(0, 10**6),
    with_cycle=st.booleans(),
)
@settings(max_examples=50, deadline=None)
def test_parse_write_roundtrip(tmp_path_factory, n, seed, with_cycle):
    rng = np.random.default_rng(seed)
    log = ChargeLog(
        t=np.cumsum(rng.uniform(0.1, 5.0, n)),
        i=rng.uniform(-0.1, 0.1, n),
        v=rng.uniform(2.5, 4.3, n),
        cycle=np.repeat(1, n) if with_cycle else None,
    )
    path = tmp_path_factory.mktemp("roundtrip") / "log.csv"
    write_log(log, path)
    back = parse_log(path)
    np.testing.assert_array_equal(back.t, log.t)
    np.testing.assert_array_equal(back.i, log.i)
    np.testing.assert_array_equal(back.v, log.v)
    if with_cycle:
        np.testing.assert_array_equal(back.cycle, log.cycle)


def _cc_log(n=100, current=0.045, t_step=30.0):
    t = np.arange(n) * t_step
    return ChargeLog(t=t, i=np.full(n, current), v=np.linspace(3.0, 4.1, n))


class TestExtractCcCharge:
    def test_single_clean_segment(self):
        log = _cc_log()
        segs = extract_cc_charge(log)
        assert len(segs) == 1
        assert (segs[0].start, segs[0].end) == (0, 100)

    def test_rest_splits_run(self):
        log = _cc_log(100)
        i = log.i.copy()
        i[40:50] = 0.0
        log2 = ChargeLog(t=log.t, i=i, v=log.v)
        segs = extract_cc_charge(log2)
        assert len(segs) == 2
        assert segs[0].end == 40 and segs[1].start == 50

    def test_pure_discharge_raises(self):
        log = ChargeLog(t=np.arange(20.0), i=np.full(20, -0.1), v=np.linspace(4.1, 3.0, 20))
        with pytest.raises(NoChargeSegments):
            extract_cc_charge(log)

    def test_out_of_tolerance_samples_excluded(self):
        log = _cc_log(60)
        i = log.i.copy()
        i[30] = 0.06  # 33% above the 45 mA median
        segs = extract_cc_charge(ChargeLog(t=log.t, i=i, v=log.v))
        assert len(segs) == 2

    def test_short_runs_dropped(self):
        log = ChargeLog(t=np.arange(8.0), i=np.full(8, 0.1), v=np.linspace(3.0, 3.5, 8))
        with pytest.raises(NoChargeSegments):
            extract_cc_charge(log)

    def test_cycle_boundary_splits(self):
        n = 40
        log = ChargeLog(
            t=np.concatenate([np.arange(20.0), np.arange(20.0)]),
            i=np.full(n, 0.1),
            v=np.linspace(3.0, 4.0, n),
            cycle=np.repeat([1, 2], 20),
        )
        segs = extract_cc_charge(log)
        assert [s.cycle for s in segs] == [1, 2]


def _reference_segments(log, tol):
    """(start, end, cycle) of each CC run, found by the per-sample loops that
    ``extract_cc_charge`` replaced with array operations."""
    if len(log) == 0:
        raise NoChargeSegments("empty log")
    cyc = log.cycle if log.cycle is not None else np.zeros(len(log), dtype=int)
    positive = log.i > 0
    boundaries = [0]
    for idx in range(1, len(log)):
        if positive[idx] != positive[idx - 1] or cyc[idx] != cyc[idx - 1]:
            boundaries.append(idx)
    boundaries.append(len(log))

    segments = []
    for a, b in zip(boundaries[:-1], boundaries[1:]):
        if not positive[a]:
            continue
        med = float(np.median(log.i[a:b]))
        ok = np.abs(log.i[a:b] - med) <= tol * med
        start = None
        for off, flag in enumerate(list(ok) + [False]):
            if flag and start is None:
                start = off
            elif not flag and start is not None:
                lo, hi = a + start, a + off
                if hi - lo >= 10:
                    segments.append((lo, hi))
                start = None
    if not segments:
        raise NoChargeSegments("no constant-current charge run found")
    return [
        (lo, hi, int(cyc[lo]) if log.cycle is not None else ordinal)
        for ordinal, (lo, hi) in enumerate(segments, start=1)
    ]


@given(
    runs=st.lists(
        st.tuples(
            st.sampled_from([-0.1, 0.0, 0.044, 0.045, 0.0455, 0.05, 0.1]),
            st.integers(1, 25),
            st.integers(0, 2),  # cycle-label step at the start of the run
        ),
        max_size=8,
    ),
    jitter=st.sampled_from([0.0, 0.01, 0.05]),
    tol=st.sampled_from([0.0, 0.02, 0.5]) | st.floats(0.0, 1.0),
    with_cycle=st.booleans(),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=300, deadline=None)
def test_extract_cc_charge_matches_loop_reference(runs, jitter, tol, with_cycle, seed):
    rng = np.random.default_rng(seed)
    i = np.concatenate([np.full(n, value) for value, n, _ in runs] or [np.zeros(0)])
    i = i * (1.0 + rng.uniform(-jitter, jitter, len(i)))
    cycle = np.cumsum(np.concatenate(
        [np.r_[step, np.zeros(n - 1, dtype=int)] for _, n, step in runs] or [np.zeros(0)]
    )).astype(int)
    n = len(i)
    log = ChargeLog(t=np.arange(float(n)), i=i, v=np.linspace(3.0, 4.1, n),
                    cycle=cycle if with_cycle else None)
    try:
        expected = _reference_segments(log, tol)
    except NoChargeSegments:
        with pytest.raises(NoChargeSegments):
            extract_cc_charge(log, tol=tol)
        return
    got = extract_cc_charge(log, tol=tol)
    assert [(s.start, s.end, s.cycle) for s in got] == expected
    for s in got:
        np.testing.assert_array_equal(s.i, log.i[s.start:s.end])


class TestCoulombCount:
    def test_constant_current_one_hour(self):
        seg = CCSegment(
            t=np.linspace(0, 3600, 61), i=np.full(61, 0.045),
            v=np.linspace(3.0, 4.1, 61), cycle=1, start=0, end=61,
        )
        q = coulomb_count(seg).q
        assert q[0] == 0.0
        assert q[-1] == pytest.approx(0.045, rel=1e-12)

    def test_zero_current(self):
        seg = CCSegment(
            t=np.linspace(0, 100, 11), i=np.zeros(11),
            v=np.full(11, 3.5), cycle=1, start=0, end=11,
        )
        assert np.all(coulomb_count(seg).q == 0.0)

    def test_ramp_current_closed_form(self):
        a, T = 1e-5, 1000.0
        t = np.linspace(0, T, 2001)
        seg = CCSegment(t=t, i=a * t, v=np.linspace(3.0, 4.0, len(t)),
                        cycle=1, start=0, end=len(t))
        q_end = coulomb_count(seg).q[-1]
        assert q_end == pytest.approx(a * T**2 / 2 / 3600.0, rel=1e-6)

    def test_additive_over_split(self):
        rng = np.random.default_rng(3)
        t = np.cumsum(rng.uniform(1, 10, 200))
        i = rng.uniform(0.01, 0.09, 200)
        v = np.linspace(3.0, 4.1, 200)
        whole = coulomb_count(CCSegment(t=t, i=i, v=v, cycle=1, start=0, end=200)).q[-1]
        for cut in (1, 50, 117, 199):
            qa = coulomb_count(CCSegment(t=t[: cut + 1], i=i[: cut + 1], v=v[: cut + 1],
                                         cycle=1, start=0, end=cut + 1)).q[-1]
            qb = coulomb_count(CCSegment(t=t[cut:], i=i[cut:], v=v[cut:],
                                         cycle=1, start=cut, end=200)).q[-1]
            assert qa + qb == pytest.approx(whole, rel=1e-12)

    def test_over_capacity_flag(self):
        seg = CCSegment(
            t=np.linspace(0, 7200, 100), i=np.full(100, 0.045),
            v=np.linspace(3.0, 4.1, 100), cycle=1, start=0, end=100,
        )
        assert coulomb_count(seg, capacity_ah=0.045).over_capacity
        assert not coulomb_count(seg, capacity_ah=0.2).over_capacity


class TestCleanQv:
    def test_already_clean_unchanged(self):
        v = np.linspace(2.8, 4.1, 100)
        q = np.linspace(0, 0.04, 100)
        out = clean_qv(QVCurve(v=v, q=q, cycle=1))
        np.testing.assert_array_equal(out.v, v)
        np.testing.assert_array_equal(out.q, q)

    def test_duplicate_voltages_merged(self):
        v = np.array([3.0, 3.1, 3.1, 3.2, 3.3])
        q = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        out = clean_qv(QVCurve(v=v, q=q, cycle=1))
        assert len(out) == 4
        # merged q is the group average, then re-zeroed at the first sample
        assert out.q[1] == pytest.approx(1.5)

    def test_cutoff_filtering(self):
        v = np.linspace(2.0, 4.5, 50)
        q = np.linspace(0, 0.04, 50)
        out = clean_qv(QVCurve(v=v, q=q, cycle=1))
        assert out.v[0] >= 2.75 and out.v[-1] <= 4.2

    def test_monotone_q_without_upward_bias(self):
        # noisy q: isotonic projection must not inflate the total span the
        # way a running max would
        rng = np.random.default_rng(0)
        v = np.linspace(2.8, 4.1, 400)
        q_true = np.linspace(0, 0.04, 400)
        q = q_true + rng.normal(0, 2e-4, 400)
        out = clean_qv(QVCurve(v=v, q=q, cycle=1))
        assert np.all(np.diff(out.q) >= 0)
        assert abs(out.q[-1] - 0.04) < 1e-3

    def test_downsample_keeps_endpoints_and_span(self):
        rng = np.random.default_rng(1)
        n = 10**5
        v = np.sort(rng.uniform(2.8, 4.1, n))
        v += np.arange(n) * 1e-9  # break exact ties
        q = np.linspace(0, 0.045, n) + rng.normal(0, 1e-5, n)
        out = clean_qv(QVCurve(v=v, q=q, cycle=1), max_points=500)
        assert len(out) <= 500
        # heavy near-duplicate merging can shift the endpoint group means a
        # few mV on a 1e5-point curve; the span itself is what matters
        assert out.v[0] == pytest.approx(v[0], abs=5e-3)
        assert out.v[-1] == pytest.approx(v[-1], abs=5e-3)
        assert out.q[-1] - out.q[0] == pytest.approx(0.045, rel=5e-3)

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            clean_qv(QVCurve(v=np.array([3.0, 3.1, 3.2]), q=np.zeros(3), cycle=1))

    @pytest.mark.parametrize("scale, last", [
        (1e155, 0.045), (1e306, 0.045), (1.0, np.inf), (1.0, np.nan)])
    def test_charge_whose_spread_is_not_finite(self, scale, last):
        # from 1e155 on, the std of the charge overflows though every charge
        # is finite; at 1e154 the curve still cleans
        v = np.linspace(2.8, 4.1, 200)
        q = np.linspace(0.0, 0.045, 200)
        clean_qv(QVCurve(v=v, q=q * 1e154, cycle=1))
        q[-1] = last
        with pytest.raises(NonFinite, match="spread"):
            clean_qv(QVCurve(v=v, q=q * scale, cycle=1))

    @pytest.mark.parametrize("max_points", [0, 3])
    def test_max_points_below_minimum(self, max_points):
        v = np.linspace(2.8, 4.1, 100)
        with pytest.raises(ValueError):
            clean_qv(QVCurve(v=v, q=np.linspace(0, 0.04, 100), cycle=1),
                     max_points=max_points)

    @given(
        n=st.integers(4, 200),
        seed=st.integers(0, 10**6),
        max_points=st.integers(4, 300),
    )
    @settings(max_examples=80, deadline=None)
    def test_fuzzed_output_invariants(self, n, seed, max_points):
        rng = np.random.default_rng(seed)
        v = rng.uniform(2.5, 4.4, n)
        q = np.cumsum(rng.uniform(-1e-4, 1e-3, n))
        try:
            out = clean_qv(QVCurve(v=v, q=q, cycle=1), max_points=max_points)
        except TooFewPoints:
            return
        assert np.all(np.diff(out.v) > 0)
        assert np.all(np.diff(out.q) >= -1e-15)
        assert out.q[0] == 0.0
        assert out.v[0] >= 2.75 and out.v[-1] <= 4.2
        assert len(out) <= max(max_points, 4)
