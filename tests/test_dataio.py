"""The columnar CSV readers against a record-based reference, write/read
round trips, and the line named when several rows are malformed."""

import csv
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynrmst import dataio
from dynrmst.errors import InvalidInput
from dynrmst.landmark import LongitudinalRecord, MarkerTable
from dynrmst.surv import SurvivalRecord, as_survival_data

IDS = st.text("ab1", min_size=1, max_size=3)
# obs times on a coarse lattice so (id, obs_time) ties are common
LATTICE = st.integers(0, 6).map(lambda k: k / 2.0)
NUMBERS = st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, 1.5])
NONNEGATIVE = st.floats(0.0, 1e6) | LATTICE


@st.composite
def cell(draw, value):
    """``value`` as CSV text: repr, a short form, or padded with spaces."""
    text = draw(st.sampled_from([repr(value), f"{value:.3g}", str(value)]))
    return draw(st.sampled_from(["", " ", "  "])) + text + draw(
        st.sampled_from(["", " "]))


@st.composite
def csv_text(draw, header, rows):
    """Header and rows with the columns in a drawn order, the rows shuffled,
    and comment and blank lines inserted anywhere after the header."""
    order = draw(st.permutations(range(len(header))))
    lines = [",".join(row[k] for k in order)
             for row in draw(st.permutations(rows))]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(st.sampled_from(["# note", "  # x,y", ""])))
    first = ["# config: {}"] if draw(st.booleans()) else []
    return "\n".join(first + [",".join(header[k] for k in order)] + lines) + "\n"


@st.composite
def survival_files(draw):
    ids = draw(st.lists(IDS, min_size=1, max_size=8, unique=True))
    extra = draw(st.lists(st.sampled_from(["x", "z"]), max_size=2, unique=True))
    group = draw(st.booleans())
    header = ["id", "time", "status"] + (["group"] if group else []) + extra
    rows = []
    for sid in ids:
        row = [" " + sid, draw(cell(draw(NONNEGATIVE))),
               draw(st.sampled_from(["0", "1", " 1"]))]
        row += [draw(st.sampled_from(["A", "B "]))] if group else []
        rows.append(row + [draw(cell(draw(NUMBERS))) for _ in extra])
    return ids, draw(csv_text(header, rows))


@st.composite
def marker_files(draw, ids):
    """Measurements of some of ``ids`` and of ids absent from them."""
    subjects = draw(st.lists(st.sampled_from(ids) | IDS, max_size=6))
    rows = [[sid + draw(st.sampled_from(["", " "])), draw(cell(draw(LATTICE))),
             draw(st.sampled_from(["m", "n "])), draw(cell(draw(NUMBERS)))]
            for sid in subjects for _ in range(draw(st.integers(1, 3)))]
    return draw(csv_text(["id", "obs_time", "name", "value"], rows))


def _reference_rows(path):
    """(header, data rows in file order as header -> stripped cell), parsed
    with the csv module."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh)
                if r and not r[0].lstrip().startswith("#")]
    header = [c.strip() for c in rows[0]]
    return header, [dict(zip(header, (c.strip() for c in r))) for r in rows[1:]]


def reference_survival(path):
    """Records, then as_survival_data with the extra columns in file order."""
    header, rows = _reference_rows(path)
    extra = [c for c in header if c not in ("id", "time", "status", "group")]
    return as_survival_data(
        [SurvivalRecord(r["id"], float(r["time"]), int(r["status"]),
                        group=r.get("group"),
                        covariates={c: float(r[c]) for c in extra})
         for r in rows], extra)


def reference_markers(path):
    return [LongitudinalRecord(r["id"], float(r["obs_time"]),
                               {r["name"]: float(r["value"])})
            for r in _reference_rows(path)[1]]


def reference_table(records):
    """MarkerTable.from_records for every subject with a measurement."""
    ids = np.array(sorted({r.id for r in records}), dtype=object)
    return MarkerTable.from_records(records, ids)


def _bitwise(a, b):
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def assert_same_survival(got, want):
    assert got.ids.dtype == object and got.ids.tolist() == want.ids.tolist()
    assert _bitwise(got.time, want.time) and _bitwise(got.status, want.status)
    assert list(got.covariates) == list(want.covariates)
    assert all(_bitwise(got.covariates[c], want.covariates[c])
               for c in want.covariates)
    if want.group is None:
        assert got.group is None
    else:
        assert got.group.tolist() == want.group.tolist()


def assert_same_table(got, want):
    assert got.ids.tolist() == want.ids.tolist()
    assert list(got.columns) == list(want.columns)
    for name in want.columns:
        assert all(map(_bitwise, got.columns[name], want.columns[name]))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_readers_equal_the_record_reference(tmp_path_factory, data):
    ids, surv_text = data.draw(survival_files())
    long_text = data.draw(marker_files(ids))
    work = tmp_path_factory.mktemp("csv")
    surv_path, long_path = work / "surv.csv", work / "long.csv"
    surv_path.write_text(surv_text)
    long_path.write_text(long_text)

    surv = dataio.read_survival(surv_path)
    assert_same_survival(surv, reference_survival(surv_path))

    records = reference_markers(long_path)
    last, out_of_order = {}, False
    for r in records:  # file order
        out_of_order |= last.get(r.id, -1.0) > r.obs_time
        last[r.id] = r.obs_time
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        table = dataio.read_longitudinal(long_path)
    assert len(caught) == out_of_order
    assert all("out of time order" in str(w.message) for w in caught)
    assert_same_table(table, reference_table(records))

    # aligned with the survival subjects: against a per-subject lookup
    aligned = table.align(surv.ids)
    assert_same_table(aligned, MarkerTable.from_records(records, surv.ids))
    for name, (times, values, offsets) in aligned.columns.items():
        for i, sid in enumerate(surv.ids.tolist()):
            want = sorted((r.obs_time, r.values[name]) for r in records
                          if r.id == sid and name in r.values)
            got = list(zip(times[offsets[i]:offsets[i + 1]].tolist(),
                           values[offsets[i]:offsets[i + 1]].tolist()))
            assert got == want


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@pytest.mark.filterwarnings("ignore:.*out of time order")
@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(IDS, st.floats(0.0, allow_infinity=False),
                          st.integers(0, 1), FINITE, st.sampled_from(["g", "h"])),
                min_size=1, max_size=8, unique_by=lambda r: r[0]),
       st.lists(st.tuples(IDS, st.floats(0.0, allow_infinity=False), FINITE),
                max_size=10))
def test_write_then_read_is_bit_exact(tmp_path_factory, subjects, visits):
    work = tmp_path_factory.mktemp("roundtrip")
    records = [SurvivalRecord(sid, t, d, group=g, covariates={"x": x})
               for sid, t, d, x, g in subjects]
    dataio.write_survival(work / "surv.csv", records, config={"seed": 1})
    assert_same_survival(dataio.read_survival(work / "surv.csv"),
                         as_survival_data(records, ["x"]))
    long = [LongitudinalRecord(sid, t, {"m": v}) for sid, t, v in visits]
    dataio.write_longitudinal(work / "long.csv", long)
    assert_same_table(dataio.read_longitudinal(work / "long.csv"),
                      reference_table(long))


@pytest.mark.parametrize("text, message", [
    # bad time on line 3 before a bad status on line 5, and the reverse
    ("id,time,status\na,1.0,1\nb,x,1\nc,2.0,1\nd,3.0,7\n",
     "line 3: column 'time'"),
    ("id,time,status\na,1.0,1\nb,1.0,7\nc,2.0,1\nd,-3.0,1\n",
     "line 3: status must be 0 or 1"),
    # wrong field count on line 4 before a duplicate id on line 6
    ("id,time,status\na,1,1\nb,2,0\nc,3\nd,4,1\na,5,1\n",
     "line 4: expected 3 fields"),
    ("# config: {}\nid,time,status\na,1,1\na,2,0\nc,3\n",
     "line 4: duplicate id 'a' (first seen on line 3)"),
    ("id,time,status,x\na,1,1,0.5\nb,-2,1,nan\n", "line 3: negative time -2.0"),
    # float() reads underscore digit grouping: 1_0 would load as 10.0
    ("id,time,status\na,1_0,1\nb,2.0,1\n", "line 2: column 'time'"),
    ("id,time,status,x\na,1,1,0.5\nb,2,1,1_5\n", "line 3: column 'x'"),
    # a quoted id spans lines 2 and 3, so the bad time is on line 4
    ('id,time,status\n"a\nb",1.0,1\nc,x,1\n', "line 4: column 'time'"),
    ('id,time,status\n"a\nb",1.0,1\n"a\nb",2.0,1\n',
     "line 4: duplicate id 'a\\nb' (first seen on line 2)"),
])
def test_survival_error_names_the_first_bad_line(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(InvalidInput) as exc:
        dataio.read_survival(path)
    assert str(exc.value).startswith(message)


@pytest.mark.parametrize("text, message", [
    ("id,obs_time,name,value\na,0,m,1\na,1,m,x\na,2,m\nb,-1,m,1\n",
     "line 3: column 'value'"),
    ("id,obs_time,name,value\na,0,m,1\na,-1,m,x\n",
     "line 3: negative obs_time -1.0"),
    ("id,obs_time,name,value\na,0,m,1\na,1,m,2_5\n", "line 3: column 'value'"),
    ('id,obs_time,name,value\na,0,"m\nn",1\na,x,m,1\n',
     "line 4: column 'obs_time'"),
])
def test_longitudinal_error_names_the_first_bad_line(tmp_path, text, message):
    path = tmp_path / "long.csv"
    path.write_text(text)
    with pytest.raises(InvalidInput) as exc:
        dataio.read_longitudinal(path)
    assert str(exc.value).startswith(message)


def test_survival_file_without_rows(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# config: {}\nid,time,status\n")
    with pytest.raises(InvalidInput, match="no records"):
        dataio.read_survival(path)
