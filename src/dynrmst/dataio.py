"""CSV/JSON ingestion and emission.

Schemas (header row required, extra whitespace ignored):

survival CSV      id,time,status[,group][,<covariate>...]
longitudinal CSV  id,obs_time,name,value
metrics CSV       one row per experiment cell, config embedded as a leading
                  ``# config: {...}`` comment line

Floats are written with 17 significant digits so a write/read round trip is
bit-exact; malformed rows, including non-finite numbers, are reported with
their line number.
"""

from __future__ import annotations

import csv
import json
import math
import warnings

from .errors import InvalidInput
from .landmark import LongitudinalRecord
from .surv import SurvivalRecord

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


def fmt_float(x):
    """Canonical float serialization (17 significant digits)."""
    return format(float(x), ".17g")


def _parse_float(text, line, column):
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise InvalidInput(f"line {line}: column {column!r} is not a finite "
                           f"number: {text!r}")
    return value


def _reader(path):
    with open(path, newline="") as fh:
        rows = [(i + 1, row) for i, row in enumerate(csv.reader(fh))
                if row and not row[0].lstrip().startswith("#")]
    if not rows:
        raise InvalidInput(f"{path}: empty file")
    header = [c.strip() for c in rows[0][1]]
    return header, rows[1:]


def read_survival(path):
    """Parse survival records; extra columns become float covariates."""
    header, rows = _reader(path)
    required = ["id", "time", "status"]
    for col in required:
        if col not in header:
            raise InvalidInput(f"{path}: missing column {col!r}")
    pos = {c: header.index(c) for c in header}
    extra = [c for c in header if c not in required + ["group"]]
    records = []
    seen = {}
    for line, row in rows:
        if len(row) != len(header):
            raise InvalidInput(f"line {line}: expected {len(header)} fields, "
                               f"got {len(row)}")
        cells = [c.strip() for c in row]
        sid = cells[pos["id"]]
        if sid in seen:
            raise InvalidInput(f"line {line}: duplicate id {sid!r} "
                               f"(first seen on line {seen[sid]})")
        seen[sid] = line
        time = _parse_float(cells[pos["time"]], line, "time")
        if time < 0:
            raise InvalidInput(f"line {line}: negative time {time}")
        status_text = cells[pos["status"]]
        if status_text not in ("0", "1"):
            raise InvalidInput(f"line {line}: status must be 0 or 1, "
                               f"got {status_text!r}")
        group = cells[pos["group"]] if "group" in pos else None
        cov = {c: _parse_float(cells[pos[c]], line, c) for c in extra}
        records.append(SurvivalRecord(id=sid, time=time, status=int(status_text),
                                      group=group, covariates=cov))
    return records


def read_longitudinal(path):
    """Parse biomarker measurements; rows out of time order within a subject
    are accepted and sorted, with a warning."""
    header, rows = _reader(path)
    for col in ("id", "obs_time", "name", "value"):
        if col not in header:
            raise InvalidInput(f"{path}: missing column {col!r}")
    pos = {c: header.index(c) for c in header}
    parsed = []
    last_time = {}
    out_of_order = False
    for line, row in rows:
        if len(row) != len(header):
            raise InvalidInput(f"line {line}: expected {len(header)} fields, "
                               f"got {len(row)}")
        cells = [c.strip() for c in row]
        sid = cells[pos["id"]]
        t = _parse_float(cells[pos["obs_time"]], line, "obs_time")
        if t < 0:
            raise InvalidInput(f"line {line}: negative obs_time {t}")
        if last_time.get(sid, -1.0) > t:
            out_of_order = True
        last_time[sid] = t
        parsed.append((sid, t, cells[pos["name"]],
                       _parse_float(cells[pos["value"]], line, "value")))
    if out_of_order:
        warnings.warn(f"{path}: longitudinal rows out of time order for at "
                      "least one subject; sorted on read", stacklevel=2)
    parsed.sort(key=lambda r: (r[0], r[1]))
    return [LongitudinalRecord(id=sid, obs_time=t, values={name: value})
            for sid, t, name, value in parsed]


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
