"""CSV/JSON ingestion and emission.

Schemas (header row required, extra whitespace ignored):

survival CSV      id,time,status[,group][,<covariate>...]
longitudinal CSV  id,obs_time,name,value
metrics CSV       one row per experiment cell, config embedded as a leading
                  ``# config: {...}`` comment line

The readers return columns: ``read_survival`` a ``SurvivalData`` (subjects
sorted by id) and ``read_longitudinal`` a ``MarkerTable`` of the subjects
with measurements.  Files are UTF-8, with or without a leading byte-order
mark; a byte that is not UTF-8 is an ``InvalidInput`` naming the file and
its line.  Each file is read into one string and split into cells once.
When no field starts with a quote, the text holds no NUL, and every CR
starts a CRLF line end (as the writers and spreadsheets end lines), the
lines are cut at LF or CRLF and the data lines are joined and split on ','
in one call; any other file (quoted cells, lone CR line ends, NUL, a line
longer than ``csv.field_size_limit()``) is read by ``csv.reader``.  Both
give bit-identical columns, and a cell longer than that limit is an
``InvalidInput`` naming its line on either path.  Each numeric column is
parsed with ``float``, whose underscore digit grouping ('1_0') is
rejected.  The ``SurvivalData`` and ``MarkerTable`` constructors check the
columns whole; the survival reader adds only a repeated id, which its id
factorisation would merge, and a NaN covariate, which a CSV cell cannot
mean.  When a check fails (a bad cell, or a row with another number of
fields) a ``csv.reader`` scan of the rows in file order reports the
physical line on which the first malformed row starts.

The writers take the same columns and write UTF-8, floats with 17
significant digits and a status as 0 or 1, so a write/read round trip is
bit-exact.  What valid columns hold that the reader would refuse or read
back as another value is an ``InvalidInput`` raised before the file is
opened: a NaN (missing) covariate, naming the subject and the column, or
an id, group, covariate or biomarker name with surrounding whitespace, or
an id starting with '#', naming it.  Survival records are the input
adapter for library callers only; biomarkers have none.
"""

from __future__ import annotations

import csv
import io
import json
import warnings
from itertools import repeat

import numpy as np

from .errors import InvalidInput
from .landmark import MarkerTable
from .surv import SurvivalData, _check_cells, _objects

__all__ = [
    "FORMAT_VERSION",
    "fmt_float",
    "read_survival",
    "read_longitudinal",
    "write_survival",
    "write_longitudinal",
    "write_json_artifact",
    "write_metrics_csv",
]

FORMAT_VERSION = 1
_STATUS = {"0": 0, "1": 1}


def fmt_float(x):
    """Canonical float serialization (17 significant digits)."""
    return format(float(x), ".17g")


def _parse_numbers(texts):
    """Float array of number texts, read by ``float`` except that its
    underscore digit grouping ('1_0' as 10.0) is a ValueError too."""
    if "_" in "".join(texts):
        raise ValueError("underscore in a number")
    return np.fromiter(map(float, texts), dtype=float, count=len(texts))


def _parse_float(text, line, column):
    try:
        return float(_floats([text])[0])
    except ValueError:
        raise InvalidInput(f"line {line}: column {column!r} is not a finite "
                           f"number: {text!r}") from None


def _read_text(path):
    """Text of a UTF-8 file, without a leading byte-order mark."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # exc.object is the file after any byte-order mark, and the bad
        # byte is no line break, so it ends the last of these lines
        line = len(exc.object[:exc.start + 1].splitlines())
        raise InvalidInput(f"{path}: line {line}: not UTF-8 text (byte "
                           f"0x{exc.object[exc.start]:02x})") from None


def _plain(text):
    """Whether csv.reader would cut the text where str.split does once its
    CRLF line ends are made LF: no field starts with a quote, every CR is
    the start of a CRLF pair (csv.reader ends a line at a lone CR too), and
    there is no NUL (read differently by Python versions)."""
    quoted = '"' in text and (text.startswith('"') or '\n"' in text
                              or ',"' in text)
    lone_cr = "\r" in text and text.count("\r") != text.count("\r\n")
    return not (quoted or lone_cr or "\0" in text)


def _split_columns(text):
    """(header cells, data columns) of plain text: the data lines joined
    and split on ',' once, the cells sliced into columns.  Columns are None
    when a data line has another number of fields, and both None when the
    text has no header.  None when a line is longer than csv.reader's field
    limit, so that csv.reader decides whether one of its cells is."""
    lines = text.replace("\r\n", "\n").split("\n")
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, lines)) > limit:
        return None
    if "#" in text:
        lines = [ln for ln in lines if not ln.lstrip().startswith("#")]
    lines = list(filter(None, lines))
    if not lines:
        return None, None
    header, rows = lines[0].split(","), lines[1:]
    width = len(header)
    if set(map(str.count, rows, repeat(","))) - {width - 1}:
        return header, None
    cells = ",".join(rows).split(",") if rows else []
    return header, [cells[k::width] for k in range(width)]


def _csv_records(text):
    """(physical line it starts on, cells) of each record csv.reader reads
    from the text, skipping blank and ``#`` comment records; a quoted cell
    may span lines.  A record csv.reader cannot read (a cell longer than
    its field limit) is an InvalidInput naming the line it starts on."""
    reader = csv.reader(io.StringIO(text, newline=""))
    records, line = [], 1
    try:
        for row in reader:
            if row and not row[0].lstrip().startswith("#"):
                records.append((line, row))
            line = reader.line_num + 1
    except csv.Error as exc:
        raise InvalidInput(f"line {line}: {exc}") from None
    return records


def _csv_columns(text):
    """``_split_columns`` by csv.reader, for any text; the records are
    read without the line count of ``_csv_records``, which is taken only
    to name the line csv.reader cannot read."""
    try:
        rows = [row for row in csv.reader(io.StringIO(text, newline=""))
                if row and not row[0].lstrip().startswith("#")]
    except csv.Error:
        _csv_records(text)  # raises the InvalidInput naming the line
        raise
    if not rows:
        return None, None
    header, rows = rows[0], rows[1:]
    if set(map(len, rows)) - {len(header)}:
        return header, None
    return header, list(zip(*rows)) or [()] * len(header)


def _table(path, required):
    """(text, header, columns) of a CSV: header names stripped, the header
    naming every required column, and columns mapping each name to the
    cells of its first column, or None when a data row has another number of
    fields.  Plain text (``_plain``) is split once, any other by csv.reader;
    both give the same cells."""
    text = _read_text(path)
    split = _split_columns(text) if _plain(text) else None
    header, columns = split if split is not None else _csv_columns(text)
    if header is None:
        raise InvalidInput(f"{path}: empty file")
    header = [c.strip() for c in header]
    for col in required:
        if col not in header:
            raise InvalidInput(f"{path}: missing column {col!r}")
    if columns is not None:
        columns = {c: columns[header.index(c)] for c in header}
    return text, header, columns


def _floats(cells):
    """Finite float column of the cells; ValueError otherwise."""
    values = _parse_numbers(cells)
    if not np.isfinite(values).all():
        raise ValueError("non-finite number")
    return values


def _stripped(cells):
    """Object array of the cells without surrounding whitespace."""
    return _objects(map(str.strip, cells))


def _factorise(cells):
    """(ascending distinct ids as an object array, index of each cell's id)
    of the cells without surrounding whitespace: the result of
    ``np.unique(..., return_inverse=True)``, as both compare Python str, with
    no sort of an object array."""
    stripped = list(map(str.strip, cells))
    ids = sorted(set(stripped))
    index = dict(zip(ids, range(len(ids))))
    return _objects(ids), np.fromiter(map(index.__getitem__, stripped),
                                      dtype=np.intp, count=len(stripped))


def _raise_first_error(text, header, checks, unique=None):
    """Raise the InvalidInput of the first malformed data row in file order,
    read by csv.reader, naming the physical line it starts on.  ``checks``
    holds (column, kind) with kind "finite", "nonnegative" or "status";
    ``unique`` names a column whose values must not repeat."""
    pos = {c: header.index(c) for c in header}
    seen = {}
    for line, row in _csv_records(text)[1:]:
        if len(row) != len(header):
            raise InvalidInput(f"line {line}: expected {len(header)} fields, "
                               f"got {len(row)}")
        cells = [c.strip() for c in row]
        if unique is not None:
            sid = cells[pos[unique]]
            if sid in seen:
                raise InvalidInput(f"line {line}: duplicate id {sid!r} "
                                   f"(first seen on line {seen[sid]})")
            seen[sid] = line
        for column, kind in checks:
            cell = cells[pos[column]]
            if kind == "status":
                if cell not in _STATUS:
                    raise InvalidInput(f"line {line}: status must be 0 or 1, "
                                       f"got {cell!r}")
                continue
            value = _parse_float(cell, line, column)
            if kind == "nonnegative" and value < 0:
                raise InvalidInput(f"line {line}: negative {column} {value}")


def read_survival(path):
    """SurvivalData of a survival CSV, subjects sorted by id; ``group`` holds
    the group labels when the file has that column, and every other extra
    column becomes a float covariate."""
    text, header, columns = _table(path, ("id", "time", "status"))
    if columns is not None and not len(columns["id"]):
        raise InvalidInput(f"{path}: no records")
    extra = [c for c in dict.fromkeys(header)
             if c not in ("id", "time", "status", "group")]
    try:
        if columns is None:
            raise ValueError("ragged rows")
        ids, rank = _factorise(columns["id"])
        if ids.size < rank.size:
            raise ValueError("duplicate ids")
        order = np.argsort(rank)
        status = np.fromiter(map(_STATUS.get, map(str.strip, columns["status"]),
                                 repeat(-1)),
                             dtype=np.int64, count=rank.size)
        group = (_stripped(columns["group"])[order] if "group" in columns
                 else None)
        # _floats refuses the NaN a SurvivalData holds for a missing value:
        # a CSV cell is never missing
        data = SurvivalData(ids, _parse_numbers(columns["time"])[order],
                            status[order],
                            {c: _floats(columns[c])[order] for c in extra},
                            group)
    except (ValueError, InvalidInput):
        _raise_first_error(text, header,
                           [("time", "nonnegative"), ("status", "status")]
                           + [(c, "finite") for c in extra], unique="id")
        raise
    return data


def read_longitudinal(path):
    """MarkerTable of a longitudinal CSV, covering the subjects with at least
    one measurement; rows out of time order within a subject are accepted
    and sorted, with a warning."""
    text, header, columns = _table(path, ("id", "obs_time", "name", "value"))
    try:
        if columns is None:
            raise ValueError("ragged rows")
        times = _parse_numbers(columns["obs_time"])
        ids, subject = _factorise(columns["id"])
        table = MarkerTable.from_columns(ids, subject, times,
                                         _stripped(columns["name"]),
                                         _parse_numbers(columns["value"]))
    except (ValueError, InvalidInput):
        _raise_first_error(text, header, [("obs_time", "nonnegative"),
                                          ("value", "finite")])
        raise
    by_subject = np.argsort(subject, kind="stable")
    s, t = subject[by_subject], times[by_subject]
    if ((s[1:] == s[:-1]) & (t[1:] < t[:-1])).any():
        warnings.warn(f"{path}: longitudinal rows out of time order for at "
                      "least one subject; sorted on read", stacklevel=2)
    return table


def _write_rows(path, header, rows, config):
    """CSV of the header and rows, after a ``# config:`` line if any."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if config is not None:
            fh.write("# config: " + json.dumps(config, sort_keys=True,
                                               default=str) + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _texts(values):
    return map(fmt_float, values.tolist())


def _check_texts(kind, texts, first=False):
    """Refuse a text the reader would read back as another: one with
    surrounding whitespace, which it strips, or in a row's ``first`` cell
    one starting with '#', a comment line to the reader."""
    for text in texts:
        if isinstance(text, str) and (text != text.strip()
                                      or first and text[:1] == "#"):
            raise InvalidInput(f"{kind} {text!r} would read back as another: "
                               f"the reader strips cells and skips a line "
                               f"starting with '#'")


def write_survival(path, data, config=None):
    """Survival CSV of a SurvivalData, rows in its ascending id order, then
    its group column if any and its covariates in name order."""
    ids, names = data.ids.tolist(), sorted(data.covariates)
    group = [] if data.group is None else [data.group.tolist()]
    # the values a SurvivalData holds that a CSV cell cannot
    _check_texts("id", ids, first=True)
    _check_texts("covariate", names)
    _check_texts("group", group[0] if group else ())
    _check_cells(data.ids, [(n, data.covariates[n],
                             ~np.isnan(data.covariates[n])) for n in names])
    # a 0/1 status of any dtype is written as the integer the reader takes
    columns = [ids, _texts(data.time), data.status.astype(np.int64).tolist(),
               *group, *(_texts(data.covariates[n]) for n in names)]
    _write_rows(path, ["id", "time", "status", *["group"] * len(group),
                       *names], zip(*columns), config)


def write_longitudinal(path, markers, config=None):
    """Longitudinal CSV of a MarkerTable, rows in (id, obs_time, name) order
    (a biomarker's rows at one time in table order)."""
    names = sorted(markers.columns)
    _check_texts("id", markers.ids.tolist(), first=True)
    _check_texts("biomarker", names)
    counts = [np.diff(markers.columns[n][2]) for n in names]
    subject = np.concatenate([np.repeat(np.arange(markers.ids.size), c)
                              for c in counts] + [np.empty(0, np.intp)])
    times, values = (np.concatenate([markers.columns[n][k] for n in names]
                                    + [np.empty(0)]) for k in (0, 1))
    name = np.repeat(np.arange(len(names)), [c.sum() for c in counts])
    order = np.lexsort((name, times, subject))
    rows = zip(markers.ids[subject[order]].tolist(), _texts(times[order]),
               [names[k] for k in name[order].tolist()], _texts(values[order]))
    _write_rows(path, ["id", "obs_time", "name", "value"], rows, config)


def write_json_artifact(path, payload, config=None):
    """JSON artifact with format_version and the resolved run config."""
    doc = {"format_version": FORMAT_VERSION}
    if config is not None:
        doc["config"] = config
    doc.update(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, default=str)
        fh.write("\n")


def write_metrics_csv(path, rows, config=None):
    """Metric rows (list of dicts sharing the same keys) with canonical float
    formatting, so identical results serialize to identical bytes."""
    if not rows:
        raise InvalidInput("no metric rows")
    header = list(rows[0])
    _write_rows(path, header, ([fmt_float(v) if isinstance(v, float) else v
                                for v in (row[k] for k in header)]
                               for row in rows), config)
