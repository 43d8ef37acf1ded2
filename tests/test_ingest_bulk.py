"""parse_log's bulk read against the row loop it falls back to.

The row loop, ``ingest._parse_rows``, is the reference: on every body,
parse_log must return bit-identical arrays and the same rejected rows, or
raise the same error at the same row.
"""

import gzip

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqdv_gp import ingest
from dqdv_gp.errors import DqdvGpError, NonMonotonicTime
from dqdv_gp.ingest import parse_log, write_log
from dqdv_gp.synth import generate_log, plating_spec


def _outcome(parse, path):
    try:
        log = parse(path)
    except NonMonotonicTime as exc:
        return ("NonMonotonicTime", exc.row)
    except (DqdvGpError, *ingest.READ_ERRORS) as exc:
        return (type(exc).__name__,)
    arrays = [log.t, log.i, log.v] + ([] if log.cycle is None else [log.cycle])
    return ("ChargeLog", log.cycle is None, log.rejected_rows,
            [(a.dtype.str, a.shape, a.tobytes()) for a in arrays])


# values the row loop rejects or reads in a way a bulk reader might not
ODD_VALUES = ["nan", "-inf", "inf", "1e400", "1_000", "١٢", " 3.5 ", "\t7", "+1", "-0",
              "", "abc", '"4.5"', "0x10", "1e-400", "1.7976931348623157e308"]
# labels the row loop rejects, or reads exactly where a float64 would not
ODD_LABELS = ["2.5", "٣", "nan", "inf", "", str(2**53), str(2**53 + 1),
              str(-(2**53) - 1), str(2**63 - 1), str(-(2**63)), str(2**63),
              "-9223372036854775809", "99999999999999999999", "1e300"]
# other spellings of an integer label, which the row loop reads as that label
SPELLINGS = ["{}.0", " {} ", "{:+d}", "{:03d}", "{}e0", "{}.00000000000000001", "\t{}"]
# an unused column, with quoted commas, doubled quotes, newlines or no closing quote
EXTRA_VALUES = ["25", "", '"a,b"', '"say ""hi"""', '"two\nlines"', '","', "x y", '"open']


@st.composite
def bodies(draw):
    with_cycle = draw(st.booleans())
    used = ["time_s", "current_a", "voltage_v"] + (["cycle"] if with_cycle else [])
    extra = draw(st.lists(st.sampled_from(["note", "temp_c"]), max_size=2, unique=True))
    columns = draw(st.permutations(used + extra))
    # rows the row loop keeps as they are, and flaws: one flaw in an otherwise
    # clean body, or many; a clean body is read in bulk
    kinds = ["plain"] * 6 + ["reset", "spelling", "blank", "long"]
    flaws = ["reverse", "odd", "odd_label", "separator", "spaces", "short"]
    flaw = draw(st.sampled_from([None, None, None, "many"] + flaws))
    if flaw == "many":
        kinds += flaws

    lines = [",".join(columns)]
    t_last = {}
    n_rows = draw(st.integers(0, 40))
    flaw_at = draw(st.integers(0, max(n_rows - 1, 0)))
    for k in range(n_rows):
        kind = flaw if flaw in flaws and k == flaw_at else draw(st.sampled_from(kinds))
        if kind == "blank":
            lines.append("")
            continue
        if kind == "spaces":
            lines.append(draw(st.sampled_from(["  ", " , , ", ",,,", "\t"])))
            continue
        # without a cycle column every row is in one cycle
        label = draw(st.integers(-2, 3)) if with_cycle else 0
        step = draw(st.sampled_from([0.5, 1.0, 2.25, 1e-9]))
        t = t_last.get(label, -1.0) + step
        if kind == "reset" and with_cycle:  # a new cycle's clock starts again
            label, t = max(t_last, default=0) + 1, 0.0
        elif kind == "reverse":
            label = draw(st.sampled_from(sorted(t_last))) if t_last else label
            t = t_last.get(label, 0.0) - draw(st.sampled_from([0.0, 1.0]))
        t_last[label] = t
        fields = {
            "time_s": repr(t),
            "current_a": repr(draw(st.floats(-1, 1))),
            "voltage_v": repr(draw(st.floats(2.5, 4.3))),
            "cycle": str(label),
        }
        if kind == "spelling":
            fields["cycle"] = draw(st.sampled_from(SPELLINGS)).format(label)
        elif kind == "odd":
            fields[draw(st.sampled_from(["time_s", "current_a", "voltage_v"]))] = (
                draw(st.sampled_from(ODD_VALUES)))
        elif kind == "odd_label":
            fields["cycle"] = draw(st.sampled_from(ODD_LABELS))
        elif kind == "separator":  # 0x1c-0x1f are whitespace to str.strip and to loadtxt
            name = draw(st.sampled_from(used))
            fields[name] = draw(st.sampled_from(["{}\x1c", "\x1d{}", "{}\x1e", "\x1f{}"])).format(
                fields[name])
        for name in extra:
            fields[name] = draw(st.sampled_from(EXTRA_VALUES))
        row = [fields[c] for c in columns]
        if kind == "short":
            row = row[:draw(st.integers(0, len(row) - 1))]
        elif kind == "long":
            row.append("9")
        lines.append(",".join(row))
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n"]))


@given(body=bodies(), bom=st.booleans(), form=st.sampled_from(["csv", "gz", "cut gz"]),
       stray_byte=st.sampled_from([False, False, True]), at=st.floats(0, 1))
@settings(max_examples=400, deadline=None)
def test_bulk_read_matches_row_loop(tmp_path_factory, body, bom, form, stray_byte, at):
    data = (("\ufeff" if bom else "") + body).encode("utf-8")
    if stray_byte:  # not UTF-8
        k = int(at * len(data))
        data = data[:k] + b"\xe9" + data[k:]
    if form != "csv":
        data = gzip.compress(data)
    if form == "cut gz":
        data = data[:int(at * len(data))]
    path = tmp_path_factory.mktemp("bulk") / ("log.csv" if form == "csv" else "log.csv.gz")
    path.write_bytes(data)
    assert _outcome(parse_log, path) == _outcome(ingest._parse_rows, path)


@pytest.mark.parametrize("body", [
    "0,0.1,3.0,1\n1,0.1,3.1,2\n2,0.1,3.2,1\n",  # interleaved cycles, each in order
    "0,0.1,3.0,1\n0,0.1,3.1,1\n",  # a repeated time
    "5,0.1,3.0,1\n0,0.1,3.1,2\n4,0.1,3.2,1\n",  # a reversal across another cycle
    f"0,0.1,3.0,{2**53 - 1}\n1,0.1,3.1,{2**53 - 1}\n",
    f"0,0.1,3.0,{2**53}\n1,0.1,3.1,{2**53 + 1}\n",  # one float64, two labels
    f"0,0.1,3.0,1\n1,0.1,3.1,{2**63}\n",
    "0,0.1,3.0,1\n1,0.1,3.1,1.5\n",
    "0,0.1,3.0,1\n1,0.1,3.1\x1f,1\n",
    "0,0.1,3.0,1\n1,0.1,1e400,1\n",
    "0,0.1,3.0,1.0\n1,0.1,3.1, 1 \n2,0.1,3.2,+1\n3,0.1,3.3,1e0\n",
    "\n \n",
])
def test_bulk_read_matches_row_loop_at_its_limits(tmp_path, body):
    path = tmp_path / "log.csv"
    path.write_text("time_s,current_a,voltage_v,cycle\n" + body)
    assert _outcome(parse_log, path) == _outcome(ingest._parse_rows, path)


def _cut(packed):
    return packed[: len(packed) // 2]


def _bad_crc(packed):
    return packed[:-8] + bytes([packed[-8] ^ 1]) + packed[-7:]


REVERSAL = "0,0.1,3.0\n5,0.1,3.0\n1,0.1,3.0\n"


@pytest.mark.parametrize("damage, head, error", [
    (_cut, REVERSAL, ("NonMonotonicTime", 3)),  # the row loop stops before the damage
    (_cut, "", ("EOFError",)),
    (_bad_crc, REVERSAL, ("NonMonotonicTime", 3)),
    (_bad_crc, "", ("BadGzipFile",)),
])
def test_damaged_gz_fails_as_the_row_loop_fails(tmp_path, damage, head, error):
    rows = "".join(f"{k},0.1,3.0\n" for k in range(10, 20000))
    path = tmp_path / "log.csv.gz"
    path.write_bytes(damage(gzip.compress(f"time_s,current_a,voltage_v\n{head}{rows}".encode())))
    assert _outcome(parse_log, path) == error


def _synth_log(tmp_path, name):
    log = generate_log(plating_spec(n_cycles=3, n_samples=200, seed=4))
    path = tmp_path / name
    write_log(log, path)
    return log, path


@pytest.mark.parametrize("name", ["log.csv", "log.csv.gz"])
def test_clean_log_is_read_in_bulk(tmp_path, monkeypatch, name):
    log, path = _synth_log(tmp_path, "log.csv")
    header, *rows = path.read_text().splitlines()
    # the cycles interleaved row by row, each still in time order
    within = np.arange(len(log)) - np.searchsorted(log.cycle, log.cycle)
    order = np.lexsort((log.cycle, within))
    rows = [rows[k] for k in order]
    # ASCII separators around a field are whitespace
    rows[6] = rows[6].replace(",", "\x1f,\x1c", 1)
    # a BOM, a quoted unused column and a blank line leave a body clean
    text = "\ufeff" + "\n".join(
        [header + ",note"] + [f'{row},"a,""b""\nc"' for row in rows[:5]] + ["", *rows[5:]])
    path = tmp_path / name
    path.write_bytes(gzip.compress(text.encode()) if name.endswith(".gz") else text.encode())

    def row_loop(_):
        raise AssertionError("a clean body reached the row loop")

    monkeypatch.setattr(ingest, "_parse_rows", row_loop)
    back = parse_log(path)
    for got, want in [(back.t, log.t), (back.i, log.i), (back.v, log.v), (back.cycle, log.cycle)]:
        assert got.dtype == want.dtype and got.tobytes() == want[order].tobytes()
    assert back.rejected_rows == ()


def test_fallback_does_not_reenter_parse_log(tmp_path, monkeypatch):
    # the benchmark's tracer wraps ingest.parse_log by name: one span per file
    _, path = _synth_log(tmp_path, "log.csv")
    header, first, *rows = path.read_text().splitlines()
    path.write_text("\n".join([header, first, "1,abc,3.0", *rows, ""]))
    calls = []

    def counting(p):
        calls.append(p)
        return parse_log(p)

    monkeypatch.setattr(ingest, "parse_log", counting)
    assert ingest.parse_log(path).rejected_rows == (2,)
    assert calls == [path]
