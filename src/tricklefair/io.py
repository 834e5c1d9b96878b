"""The file conventions every JSON and CSV file of the package follows.

JSON is UTF-8 with a 2-space indent, sorted keys and one trailing newline,
the bytes of json.dump(doc, indent=2, sort_keys=True) plus "\n". write_json
walks non-empty lists, _BATCH items per written piece so that no file is
held whole in memory, and dicts with only str keys. It formats a batch of
only ints or only finite floats with one map of repr, and str, int, finite
float and None itself; any other value is json's own text or error. A list
or dict it walks that holds itself ends in RecursionError, not ValueError.

CSV comes from csv.writer with its defaults (comma separated, CRLF line
ends, None as an empty cell); a float, Python or numpy float64 alike, is
written with the shortest digits that read back to the same value, as repr
gives them. read_records is the only JSON reader.

Only this module knows the per-node layout, of result files ("per_node")
and topologies ("nodes") alike. Its writers take columns, a dict from
field name to a sequence of one value per node: write_records writes
record i as {"id": i} plus row i of every column into a JSON list, and
write_records_csv writes the same rows under the header id and the column
names. read_records decodes a JSON file once and returns the object and
its records, checked and sorted by id.
"""
from __future__ import annotations

import csv
import itertools
import json
import math

_BATCH = 256  # list items rendered per written piece, so no file is held whole in memory
_JSON = json.JSONEncoder(indent=2, sort_keys=True)
_encode_str = json.encoder.encode_basestring_ascii


class Records(dict):
    """Equal-length columns by name, written as a JSON list of rows {name: column[i], ...}, a column at a time."""


def write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_pieces(doc, "\n"))
        fh.write("\n")


def _pieces(value, nl):
    """Yield the JSON text of value, whose line break and indent are nl."""
    if isinstance(value, Records):
        yield from _rows(value, nl)
    elif isinstance(value, list) and value:
        inner = nl + "  "
        sep = "," + inner
        for i in range(0, len(value), _BATCH):
            yield ("[" + inner if i == 0 else sep) + sep.join(_texts(value[i:i + _BATCH], inner))
        yield nl + "]"
    elif isinstance(value, dict) and value and all(isinstance(key, str) for key in value):
        inner = nl + "  "
        lead = "{" + inner
        for key, item in sorted(value.items()):
            yield lead + _encode_str(key) + ": "
            yield from _pieces(item, inner)
            lead = "," + inner
        yield nl + "}"
    elif isinstance(value, str):
        yield _encode_str(value)
    elif value is None:
        yield "null"
    elif type(value) is int or type(value) is float and math.isfinite(value):
        yield repr(value)
    else:
        yield _JSON.encode(value).replace("\n", nl)


def _rows(records: Records, nl):
    """Yield the JSON list of records' rows like a list's items, each batch formatted a column at a time."""
    keys = sorted(records)
    n = len(records[keys[0]]) if keys else 0
    inner = nl + "  "
    sep = "," + inner
    field = inner + "  "
    template = "{" + field + ("," + field).join(_encode_str(k).replace("%", "%%") + ": %s" for k in keys) + inner + "}"
    for i in range(0, n, _BATCH):
        columns = [_texts(records[k][i:i + _BATCH], field) for k in keys]
        yield ("[" + inner if i == 0 else sep) + sep.join(map(template.__mod__, zip(*columns)))
    yield nl + "]" if n else "[]"


def _texts(values, nl) -> list[str]:
    """The JSON text of each of values, all at the indent nl."""
    types = set(map(type, values))
    if types == {int} or types == {float} and all(map(math.isfinite, values)):
        return list(map(repr, values))
    return ["".join(_pieces(v, nl)) for v in values]


def write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_records(path, columns: dict, key="per_node", **fields) -> None:
    """Write fields plus a list of records {"id": i, name: columns[name][i], ...} under key."""
    n = len(next(iter(columns.values()), ()))
    write_json(path, {**fields, key: Records({"id": range(n), **columns})})


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


def read_records(path, required=(), fields=(), integers=(), *, key="per_node", error=ValueError):
    """Read a JSON file of id-keyed records; return the object and its records sorted by id.

    The top-level value must be an object holding every field named in
    required and a list of objects under key. Each record needs an integer
    "id", a finite number in every field named in fields and an integer in
    every field named in integers; the ids must be exactly 0..n-1. Anything
    else raises error (a ValueError) naming the file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # also not UTF-8, or nested too deeply
            raise error(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{path}: top-level value must be an object")
    for field in (*required, key):
        if field not in doc:
            raise error(f"{path}: missing field {field!r}")
    records = doc[key]
    if not isinstance(records, list) or not all(isinstance(rec, dict) for rec in records):
        raise error(f"{path}: field {key!r} must be a list of objects")
    for rec in records:
        if "id" not in rec:
            raise error(f"{path}: every node record needs an 'id' field")
        i = rec["id"]
        if not _is_int(i):
            raise error(f"{path}: node id {i!r} is not an integer")
        for field in fields:
            if not _is_finite_number(rec.get(field)):
                raise error(f"{path}: node {i}: field {field!r} must be a finite number")
        for field in integers:
            if not _is_int(rec.get(field)):
                raise error(f"{path}: node {i}: field {field!r} must be an integer")
    records = sorted(records, key=lambda rec: rec["id"])
    ids = [rec["id"] for rec in records]
    if ids != list(range(len(ids))):
        for i, j in zip(ids, ids[1:]):
            if i == j:
                raise error(f"{path}: duplicate node id {i}")
        raise error(f"{path}: node ids must be exactly 0..{len(ids) - 1}")
    return doc, records
