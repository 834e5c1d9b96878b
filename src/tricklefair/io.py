"""The file conventions every JSON and CSV file of the package follows.

JSON is UTF-8 with a 2-space indent, sorted keys and one trailing newline.
CSV comes from csv.writer with its defaults (comma separated, CRLF line
ends, None as an empty cell); a float, Python or numpy float64 alike, is
written with the shortest digits that read back to the same value, as repr
gives them. JSON files are read through read_object.

Only this module knows the per-node layout. Its writers take columns, a
dict from field name to a sequence of one value per node: write_records
writes record i as {"id": i} plus row i of every column into a JSON
"per_node" list, and write_records_csv writes the same rows under the
header id and the column names. read_records reads the JSON form back,
checking every record a caller indexes before handing it out.
"""
from __future__ import annotations

import csv
import itertools
import json
import math


def write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_records(path, columns: dict, **fields) -> None:
    """Write fields plus a "per_node" list of records {"id": i, name: columns[name][i], ...}."""
    names = ("id", *columns)
    records = [dict(zip(names, row)) for row in zip(itertools.count(), *columns.values())]
    write_json(path, {**fields, "per_node": records})


def write_records_csv(path, columns: dict) -> None:
    """Write one row id, columns[name][i], ... per node under the header id and the column names."""
    write_csv(path, ["id", *columns], zip(itertools.count(), *columns.values()))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)  # JSON true is an int to Python


def _is_finite_number(value) -> bool:
    if not (_is_int(value) or isinstance(value, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # a JSON integer too large for a float
        return False


def read_object(path, error=ValueError) -> dict:
    """Read a JSON object from path; anything else raises error (a ValueError) naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # also not UTF-8, or nested too deeply
            raise error(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{path}: top-level value must be an object")
    return doc


def read_records(path, required, fields, integers=()) -> list[dict]:
    """Read the per-node records of a JSON file, sorted by id.

    The top-level value must be an object holding every field named in
    required and a "per_node" list of objects. Each record needs an integer
    "id", a finite number in every field named in fields and an integer in
    every field named in integers; the ids must be exactly 0..n-1. Anything
    else raises ValueError naming the file.
    """
    doc = read_object(path)
    for field in (*required, "per_node"):
        if field not in doc:
            raise ValueError(f"{path}: missing field {field!r}")
    records = doc["per_node"]
    if not isinstance(records, list) or not all(isinstance(rec, dict) for rec in records):
        raise ValueError(f"{path}: field 'per_node' must be a list of objects")
    for rec in records:
        i = rec.get("id")
        if not _is_int(i):
            raise ValueError(f"{path}: per-node id {i!r} is not an integer")
        for field in fields:
            if not _is_finite_number(rec.get(field)):
                raise ValueError(f"{path}: node {i}: field {field!r} must be a finite number")
        for field in integers:
            if not _is_int(rec.get(field)):
                raise ValueError(f"{path}: node {i}: field {field!r} must be an integer")
    records = sorted(records, key=lambda rec: rec["id"])
    if [rec["id"] for rec in records] != list(range(len(records))):
        raise ValueError(f"{path}: per-node ids must be exactly 0..{len(records) - 1}")
    return records
