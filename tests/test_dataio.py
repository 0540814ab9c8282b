"""The columnar CSV readers against a reference built row by row,
write/read round trips, and the line named when several rows are
malformed."""

import csv
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynrmst import dataio
from dynrmst.errors import InvalidInput
from dynrmst.landmark import MarkerTable
from dynrmst.surv import SurvivalData, SurvivalRecord, as_survival_data

IDS = st.text("ab1", min_size=1, max_size=3)
# ids csv.reader must unquote: a ',', line break or quote between letters
QUOTED_IDS = st.tuples(IDS, st.sampled_from([",", "\n", "\r\n", '"']),
                       IDS).map("".join)
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
    comment and blank lines inserted anywhere after the header, and lines
    ended by LF, CRLF or CR.  A cell is quoted when it holds a ',', a quote
    or a line break, and in some files any cell may be."""
    quote_any = draw(st.sampled_from([False, False, True]))

    def field(text):
        if (any(c in text for c in ',"\r\n')
                or quote_any and draw(st.booleans())):
            return '"' + text.replace('"', '""') + '"'
        return text

    order = draw(st.permutations(range(len(header))))
    lines = [",".join(field(row[k]) for k in order)
             for row in draw(st.permutations(rows))]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(st.sampled_from(["# note", "  # x,y", ""])))
    first = draw(st.sampled_from([[], ["# config: {}"],
                                  ['# config: {"a": ["b", 1.5], "c,d": 2}']]))
    end = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    return end.join(first + [",".join(header[k] for k in order)] + lines) + end


def split_once(text):
    """Whether the reader takes the one-split path: every CR starts a CRLF
    line end, and quotes appear only in ``#`` comment lines."""
    return "\r" not in text.replace("\r\n", "") and all(
        line.startswith("#") for line in text.split("\n") if '"' in line)


@st.composite
def survival_files(draw):
    ids = draw(st.lists(IDS | QUOTED_IDS if draw(st.booleans()) else IDS,
                        min_size=1, max_size=8, unique=True))
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
    """(id, obs_time, name, value) of each row, in file order."""
    return [(r["id"], float(r["obs_time"]), r["name"], float(r["value"]))
            for r in _reference_rows(path)[1]]


def reference_table(rows, ids=None):
    """MarkerTable of the subjects ``ids`` (by default every subject with a
    row), built row by row: per name, the rows of those subjects sorted by
    (id, obs_time, value), and the offsets cut from each subject's count."""
    if ids is None:
        ids = np.array(sorted({r[0] for r in rows}), dtype=object)
    wanted = set(ids.tolist())
    columns = {}
    for name in sorted({r[2] for r in rows}):
        mine = sorted((sid, t, v) for sid, t, n, v in rows
                      if n == name and sid in wanted)
        counts = [sum(1 for r in mine if r[0] == sid) for sid in ids.tolist()]
        columns[name] = (np.array([t for _, t, _ in mine], dtype=float),
                         np.array([v for _, _, v in mine], dtype=float),
                         np.cumsum([0] + counts, dtype=np.int64))
    return MarkerTable(columns, ids)


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
    surv_path.write_bytes(surv_text.encode())
    long_path.write_bytes(long_text.encode())
    for text in (surv_text, long_text):
        assert dataio._plain(text) == split_once(text)

    surv = dataio.read_survival(surv_path)
    assert_same_survival(surv, reference_survival(surv_path))

    rows = reference_markers(long_path)
    last, out_of_order = {}, False
    for sid, t, _, _ in rows:  # file order
        out_of_order |= last.get(sid, -1.0) > t
        last[sid] = t
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        table = dataio.read_longitudinal(long_path)
    assert len(caught) == out_of_order
    assert all("out of time order" in str(w.message) for w in caught)
    assert_same_table(table, reference_table(rows))

    # aligned with the survival subjects: against a per-subject lookup
    aligned = table.align(surv.ids)
    assert_same_table(aligned, reference_table(rows, surv.ids))
    for name, (times, values, offsets) in aligned.columns.items():
        for i, sid in enumerate(surv.ids.tolist()):
            want = sorted((t, v) for rid, t, n, v in rows
                          if rid == sid and n == name)
            got = list(zip(times[offsets[i]:offsets[i + 1]].tolist(),
                           values[offsets[i]:offsets[i + 1]].tolist()))
            assert got == want


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(IDS, st.floats(0.0, allow_infinity=False),
                          st.integers(0, 1), FINITE, st.sampled_from(["g", "h"])),
                min_size=1, max_size=8, unique_by=lambda r: r[0]),
       st.lists(st.tuples(IDS, st.floats(0.0, allow_infinity=False), FINITE),
                max_size=10))
def test_write_then_read_is_bit_exact(tmp_path_factory, subjects, visits):
    work = tmp_path_factory.mktemp("roundtrip")
    surv = as_survival_data([SurvivalRecord(sid, t, d, group=g,
                                            covariates={"x": x})
                             for sid, t, d, x, g in subjects], ["x"])
    dataio.write_survival(work / "surv.csv", surv, config={"seed": 1})
    assert_same_survival(dataio.read_survival(work / "surv.csv"), surv)
    markers = reference_table([(sid, t, "m", v) for sid, t, v in visits])
    dataio.write_longitudinal(work / "long.csv", markers)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rows are written in time order
        assert_same_table(dataio.read_longitudinal(work / "long.csv"),
                          markers)
    for name in ("surv.csv", "long.csv"):
        # the writers end lines with CRLF, which the one-split path reads
        assert dataio._plain((work / name).read_bytes().decode())


def _write_table(path, rows, quoted, end, bom):
    """The rows as a CSV with the given line end, plain or with every cell
    quoted."""
    quote = '"' if quoted else ""
    text = "".join(",".join(quote + c + quote for c in row) + end
                   for row in rows)
    assert dataio._plain(text) is not quoted
    path.write_bytes((("\ufeff" if bom else "") + text).encode())
    return path


SURVIVAL_ROWS = [["id", "time", "status", "group", "x"],
                 ["b2", "2.5", "1", "B", "0.25"],
                 ["a", " 1e-3", "0", "A", "-1.5"],
                 ["b10", "7", "1", "B", "0.1"]]
# subject a out of time order
MARKER_ROWS = [["id", "obs_time", "name", "value"],
               ["a", "2.0", "m", "1.5"], ["b2", "0", "m", "0.3"],
               ["a", "1.0", "m", "-2"], ["a", "0.5", "n", "4"]]


@pytest.mark.parametrize("quoted, end, bom", [
    (False, "\r\n", False), (False, "\n", True),
    (True, "\r\n", False), (True, "\r\n", True)])
def test_plain_quoted_crlf_and_bom_files_read_alike(tmp_path, quoted, end,
                                                    bom):
    """One table written plain with LF line ends, and written plain or
    quoted with CRLF line ends, reads to bitwise-equal columns, with or
    without a UTF-8 byte-order mark, and rows out of time order warn exactly
    once on either path."""
    def read(name, quoted, end, bom):
        surv = dataio.read_survival(_write_table(
            tmp_path / f"{name}.csv", SURVIVAL_ROWS, quoted, end, bom))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            table = dataio.read_longitudinal(_write_table(
                tmp_path / f"{name}_long.csv", MARKER_ROWS, quoted, end, bom))
        assert [str(w.message).endswith("out of time order for at least one "
                                        "subject; sorted on read")
                for w in caught] == [True]
        return surv, table

    want_surv, want_table = read("plain", False, "\n", False)
    got_surv, got_table = read("other", quoted, end, bom)
    assert want_surv.ids.tolist() == ["a", "b10", "b2"]
    assert_same_survival(got_surv, want_surv)
    assert_same_table(got_table, want_table)


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
    # CRLF line ends, and quoted cells on one line each
    ("id,time,status\r\na,1,1\r\nb,2\r\nc,x,1\r\n",
     "line 3: expected 3 fields"),
    ('"id","time","status"\n"a","1.0","1"\n"b","1.0","7"\n',
     "line 3: status must be 0 or 1"),
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
    ("id,obs_time,name,value\r\na,0,m,1\r\na,-1,m,1\r\n",
     "line 3: negative obs_time -1.0"),
    ('id,obs_time,name,value\n"a",0,"m",1\n"a","1","m","2_5"\n',
     "line 3: column 'value'"),
])
def test_longitudinal_error_names_the_first_bad_line(tmp_path, text, message):
    path = tmp_path / "long.csv"
    path.write_text(text)
    with pytest.raises(InvalidInput) as exc:
        dataio.read_longitudinal(path)
    assert str(exc.value).startswith(message)


@pytest.mark.parametrize("quote", ["", '"'])
@pytest.mark.parametrize("tail", ["", "c,x,1\n"])
def test_cell_over_the_field_limit_is_invalid_input(tmp_path, quote, tail):
    """A cell longer than csv.reader's field limit is rejected on either
    path, naming its line, with or without a bad row after it."""
    cell = quote + "a" * (csv.field_size_limit() + 1) + quote
    path = tmp_path / "long_cell.csv"
    path.write_text(f"id,time,status\nb,1.0,1\n{cell},2.0,1\n{tail}")
    with pytest.raises(InvalidInput, match="^line 3: field larger than "
                                           "field limit"):
        dataio.read_survival(path)


def test_survival_file_without_rows(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# config: {}\nid,time,status\n")
    with pytest.raises(InvalidInput, match="no records"):
        dataio.read_survival(path)


def _two_subjects(time=1.0, x=0.5):
    """SurvivalData of subjects 'a' and 'b'; b has the given time and x."""
    return SurvivalData(np.array(["a", "b"], dtype=object),
                        np.array([2.0, time]), np.array([1, 0]),
                        {"x": np.array([-1.0, x])})


def _markers(obs_time=1.0, value=0.5):
    """MarkerTable of subjects 'a' and 'b'; b's second row has the given
    obs_time and value."""
    return MarkerTable.from_columns(np.array(["a", "b"], dtype=object),
                                    np.array([0, 1, 1]),
                                    np.array([0.0, 0.0, obs_time]),
                                    np.array(["m"] * 3, dtype=object),
                                    np.array([1.0, 2.0, value]))


_READ_BACK = ("{} {} would read back as another: the reader strips cells "
              "and skips a line starting with '#'")


# each case builds its data when the test runs: the constructors refuse
# all but the missing covariate themselves, with the writers' message
@pytest.mark.parametrize("write, data, message", [
    # a record that lacks x becomes NaN in the columns
    (dataio.write_survival,
     partial(as_survival_data,
             [SurvivalRecord("a", 2.0, 1, covariates={"x": -1.0}),
              SurvivalRecord("b", 1.0, 0)], ["x"]),
     "subject 'b': column 'x' cannot hold nan"),
    (dataio.write_survival, partial(_two_subjects, x=np.nan),
     "subject 'b': column 'x' cannot hold nan"),
    (dataio.write_survival, partial(_two_subjects, x=-np.inf),
     "subject 'b': column 'x' cannot hold -inf"),
    (dataio.write_survival, partial(_two_subjects, time=np.inf),
     "subject 'b': column 'time' cannot hold inf"),
    (dataio.write_survival, partial(_two_subjects, time=-1.0),
     "subject 'b': column 'time' cannot hold -1.0"),
    (dataio.write_survival,
     partial(SurvivalData, np.arange(2), np.ones(2), np.array([1, 2])),
     "subject 1: column 'status' cannot hold 2"),
    (dataio.write_longitudinal, partial(_markers, value=np.nan),
     "subject 'b': column 'value' cannot hold nan"),
    (dataio.write_longitudinal, partial(_markers, obs_time=np.inf),
     "subject 'b': column 'obs_time' cannot hold inf"),
    # the reader strips cells and skips a line starting with '#'
    (dataio.write_survival,
     partial(SurvivalData, np.array([" a", "b"], dtype=object), np.ones(2),
             np.ones(2, dtype=np.int64)),
     _READ_BACK.format("id", "' a'")),
    (dataio.write_survival,
     partial(SurvivalData, np.array(["#b", "c"], dtype=object), np.ones(2),
             np.ones(2, dtype=np.int64)),
     _READ_BACK.format("id", "'#b'")),
    (dataio.write_survival,
     partial(SurvivalData, np.arange(2), np.ones(2), np.ones(2, np.int64),
             group=np.array(["x ", "y"], dtype=object)),
     _READ_BACK.format("group", "'x '")),
    (dataio.write_survival,
     partial(SurvivalData, np.arange(2), np.ones(2), np.ones(2, np.int64),
             {" x": np.zeros(2)}),
     _READ_BACK.format("covariate", "' x'")),
    (dataio.write_longitudinal,
     partial(MarkerTable, {"m": (np.zeros(1), np.zeros(1), np.array([0, 1]))},
             np.array(["#a"], dtype=object)),
     _READ_BACK.format("id", "'#a'")),
    (dataio.write_longitudinal,
     partial(MarkerTable,
             {"m\t": (np.zeros(1), np.zeros(1), np.array([0, 1]))},
             np.array(["a"], dtype=object)),
     _READ_BACK.format("biomarker", "'m\\t'")),
])
def test_writers_refuse_what_the_reader_refuses(tmp_path, write, data,
                                                message):
    """A value the reader would refuse is an InvalidInput naming the subject
    and the column, raised before an existing file is touched."""
    path = tmp_path / "out.csv"
    path.write_text("kept\n")
    with pytest.raises(InvalidInput) as exc:
        write(path, data())
    assert str(exc.value) == message
    assert path.read_text() == "kept\n"


def test_a_status_of_any_dtype_is_written_as_the_integer_read_back(tmp_path):
    """A float or boolean 0/1 status (which the constructor accepts) is
    written as 0 or 1, not '1.0' or 'True', which the reader refuses."""
    for status in (np.array([1.0, 0.0]), np.array([True, False])):
        data = SurvivalData(np.array(["a", "b"], dtype=object),
                            np.array([2.0, 1.0]), status)
        dataio.write_survival(tmp_path / "surv.csv", data)
        assert (tmp_path / "surv.csv").read_text().splitlines() == [
            "id,time,status", "a,2,1", "b,1,0"]
        got = dataio.read_survival(tmp_path / "surv.csv")
        assert got.status.tolist() == [1, 0] and got.status.dtype == np.int64


def test_writers_take_columns_in_any_row_order_of_the_table(tmp_path):
    """Rows come out in (id, obs_time, name) order whatever biomarker they
    belong to, and survival rows in the (ascending) id order of the data."""
    markers = MarkerTable.from_columns(
        np.array(["a", "b"], dtype=object), np.array([1, 0, 0, 1, 0]),
        np.array([2.0, 1.0, 0.0, 0.5, 1.0]),
        np.array(["n", "m", "n", "m", "n"], dtype=object),
        np.array([1.0, 2.0, 3.0, 4.0, -5.0]))
    dataio.write_longitudinal(tmp_path / "long.csv", markers)
    assert (tmp_path / "long.csv").read_text().splitlines() == [
        "id,obs_time,name,value", "a,0,n,3", "a,1,m,2", "a,1,n,-5",
        "b,0.5,m,4", "b,2,n,1"]
    dataio.write_survival(tmp_path / "surv.csv", _two_subjects())
    assert (tmp_path / "surv.csv").read_text().splitlines() == [
        "id,time,status,x", "a,2,1,-1", "b,1,0,0.5"]
