"""CSV/JSON ingestion and emission.

Schemas (header row required, extra whitespace ignored):

survival CSV      id,time,status[,group][,<covariate>...]
longitudinal CSV  id,obs_time,name,value
metrics CSV       one row per experiment cell, config embedded as a leading
                  ``# config: {...}`` comment line

The readers return columns: ``read_survival`` a ``SurvivalData`` (subjects
sorted by id) and ``read_longitudinal`` a ``MarkerTable`` of the subjects
with measurements.  Each file is split into cells once and each numeric
column parsed with ``float``, whose underscore digit grouping ('1_0') is
rejected; every check runs on whole columns, and when one fails a scan of
the rows in file order reports the physical line on which the first
malformed row starts.  Records (``SurvivalRecord``,
``LongitudinalRecord``) are the input adapter for library callers and what
the writers take.

Floats are written with 17 significant digits so a write/read round trip is
bit-exact; malformed rows, including non-finite numbers, are reported with
their line number.
"""

from __future__ import annotations

import csv
import json
import math
import warnings

import numpy as np

from .errors import InvalidInput
from .landmark import MarkerTable
from .surv import SurvivalData, _objects

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
        value = float(_parse_numbers([text])[0])
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise InvalidInput(f"line {line}: column {column!r} is not a finite "
                           f"number: {text!r}")
    return value


def _reader(path, required):
    """(header, record numbers, rows) of the data rows of a CSV, skipping
    blank and ``#`` comment lines; the header must name every required
    column.  Record i is the file's i-th CSV record, counted from 0."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    records = [i for i, row in enumerate(rows)
               if row and not row[0].lstrip().startswith("#")]
    if not records:
        raise InvalidInput(f"{path}: empty file")
    header = [c.strip() for c in rows[records[0]]]
    for col in required:
        if col not in header:
            raise InvalidInput(f"{path}: missing column {col!r}")
    return header, records[1:], [rows[i] for i in records[1:]]


def _first_lines(path):
    """Physical line on which each CSV record of the file starts (a quoted
    cell may span lines)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        return [1] + [reader.line_num + 1 for _ in reader]


def _cells(header, rows):
    """Column name -> tuple of its cells (the first column of a repeated
    name); ValueError when a row has another number of fields."""
    if set(map(len, rows)) - {len(header)}:
        raise ValueError("ragged rows")
    cols = list(zip(*rows)) or [()] * len(header)
    return {c: cols[header.index(c)] for c in header}


def _floats(cells):
    """Finite float column of the cells; ValueError otherwise."""
    values = _parse_numbers(cells)
    if not np.isfinite(values).all():
        raise ValueError("non-finite number")
    return values


def _stripped(cells):
    """Object array of the cells without surrounding whitespace."""
    return _objects(map(str.strip, cells))


def _raise_first_error(path, records, rows, width, checks, unique=None):
    """Raise the InvalidInput of the first malformed row in file order,
    naming the physical line it starts on.  ``checks`` holds (position,
    column, kind) with kind "finite", "nonnegative" or "status"; ``unique``
    is the position of a column whose values must not repeat."""
    first_line = _first_lines(path)
    seen = {}
    for record, row in zip(records, rows):
        line = first_line[record]
        if len(row) != width:
            raise InvalidInput(f"line {line}: expected {width} fields, "
                               f"got {len(row)}")
        cells = [c.strip() for c in row]
        if unique is not None:
            sid = cells[unique]
            if sid in seen:
                raise InvalidInput(f"line {line}: duplicate id {sid!r} "
                                   f"(first seen on line {seen[sid]})")
            seen[sid] = line
        for pos, column, kind in checks:
            if kind == "status":
                if cells[pos] not in _STATUS:
                    raise InvalidInput(f"line {line}: status must be 0 or 1, "
                                       f"got {cells[pos]!r}")
                continue
            value = _parse_float(cells[pos], line, column)
            if kind == "nonnegative" and value < 0:
                raise InvalidInput(f"line {line}: negative {column} {value}")


def read_survival(path):
    """SurvivalData of a survival CSV, subjects sorted by id; ``group`` holds
    the group labels when the file has that column, and every other extra
    column becomes a float covariate."""
    header, records, rows = _reader(path, ("id", "time", "status"))
    if not rows:
        raise InvalidInput(f"{path}: no records")
    extra = [c for c in dict.fromkeys(header)
             if c not in ("id", "time", "status", "group")]
    try:
        cells = _cells(header, rows)
        ids = _stripped(cells["id"])
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        time = _floats(cells["time"])
        status = np.fromiter((_STATUS.get(c.strip(), -1)
                              for c in cells["status"]),
                             dtype=np.int64, count=len(rows))
        if (ids[1:] == ids[:-1]).any() or (time < 0).any() or (status < 0).any():
            raise ValueError("invalid survival rows")
        covariates = {c: _floats(cells[c])[order] for c in extra}
    except ValueError:
        pos = {c: header.index(c) for c in header}
        checks = [(pos["time"], "time", "nonnegative"),
                  (pos["status"], "status", "status")]
        _raise_first_error(path, records, rows, len(header),
                           checks + [(pos[c], c, "finite") for c in extra],
                           unique=pos["id"])
        raise
    group = _stripped(cells["group"])[order] if "group" in cells else None
    return SurvivalData(ids, time[order], status[order], covariates, group)


def read_longitudinal(path):
    """MarkerTable of a longitudinal CSV, covering the subjects with at least
    one measurement; rows out of time order within a subject are accepted
    and sorted, with a warning."""
    header, records, rows = _reader(path, ("id", "obs_time", "name", "value"))
    try:
        cells = _cells(header, rows)
        times = _floats(cells["obs_time"])
        values = _floats(cells["value"])
        if (times < 0).any():
            raise ValueError("negative obs_time")
    except ValueError:
        pos = {c: header.index(c) for c in header}
        _raise_first_error(path, records, rows, len(header),
                           [(pos["obs_time"], "obs_time", "nonnegative"),
                            (pos["value"], "value", "finite")])
        raise
    ids, subject = np.unique(_stripped(cells["id"]), return_inverse=True)
    by_subject = np.argsort(subject, kind="stable")
    s, t = subject[by_subject], times[by_subject]
    if ((s[1:] == s[:-1]) & (t[1:] < t[:-1])).any():
        warnings.warn(f"{path}: longitudinal rows out of time order for at "
                      "least one subject; sorted on read", stacklevel=2)
    return MarkerTable.from_columns(ids, subject, times,
                                    _stripped(cells["name"]), values)


def _config_line(config):
    return "# config: " + json.dumps(config, sort_keys=True, default=str)


def write_survival(path, records, config=None):
    extra = sorted({name for r in records for name in r.covariates})
    has_group = any(r.group is not None for r in records)
    with open(path, "w", newline="") as fh:
        if config is not None:
            fh.write(_config_line(config) + "\n")
        writer = csv.writer(fh)
        header = ["id", "time", "status"] + (["group"] if has_group else []) + extra
        writer.writerow(header)
        for r in records:
            row = [r.id, fmt_float(r.time), r.status]
            if has_group:
                row.append(r.group)
            row.extend(fmt_float(r.covariates[c]) for c in extra)
            writer.writerow(row)


def write_longitudinal(path, records, config=None):
    with open(path, "w", newline="") as fh:
        if config is not None:
            fh.write(_config_line(config) + "\n")
        writer = csv.writer(fh)
        writer.writerow(["id", "obs_time", "name", "value"])
        for r in records:
            for name in sorted(r.values):
                writer.writerow([r.id, fmt_float(r.obs_time), name,
                                 fmt_float(r.values[name])])


def write_json_artifact(path, payload, config=None):
    """JSON artifact with format_version and the resolved run config."""
    doc = {"format_version": FORMAT_VERSION}
    if config is not None:
        doc["config"] = config
    doc.update(payload)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, default=str)
        fh.write("\n")


def write_metrics_csv(path, rows, config=None):
    """Metric rows (list of dicts sharing the same keys) with canonical float
    formatting, so identical results serialize to identical bytes."""
    if not rows:
        raise InvalidInput("no metric rows")
    header = list(rows[0])
    with open(path, "w", newline="") as fh:
        if config is not None:
            fh.write(_config_line(config) + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt_float(v) if isinstance(v, float) else v
                             for v in (row[k] for k in header)])
