"""The file conventions every JSON and CSV file of the package follows.

JSON is UTF-8 with a 2-space indent, sorted keys and one trailing newline:
write_json writes the bytes of json.dump(doc, indent=2, sort_keys=True)
plus "\n", with the same rules for keys, non-finite floats (NaN, Infinity)
and values json cannot write (TypeError), but through its own encoder. A
list is rendered a batch of _BATCH items at a time, each batch written as
one piece, so no file is held whole in memory. Within a batch a list of
only ints or only floats (exact types, so bools and numpy scalars take the
general path) is formatted with one map of int.__repr__ or float.__repr__,
and a list of dicts that share one set of string keys, such as per-node
records, is formatted a column (key) at a time and zipped into records
through one %-template. A container that holds itself recurses until
RecursionError, where json raises ValueError.

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

_BATCH = 256  # list items rendered per written piece, so no file is held whole in memory
_encode_str = json.encoder.encode_basestring_ascii


def write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_pieces(doc, "\n"))
        fh.write("\n")


def _pieces(value, nl):
    """Yield the JSON text of value, whose line break and indent are nl."""
    if isinstance(value, (list, tuple)) and value:
        inner = nl + "  "
        sep = "," + inner
        for start in range(0, len(value), _BATCH):
            yield ("[" + inner if start == 0 else sep) + sep.join(_texts(value[start:start + _BATCH], inner))
        yield nl + "]"
    elif isinstance(value, dict) and value:
        inner = nl + "  "
        lead = "{" + inner
        for key, item in sorted(value.items()):
            yield lead + _key(key) + ": "
            yield from _pieces(item, inner)
            lead = "," + inner
        yield nl + "}"
    else:
        yield _scalar(value)


def _texts(values, nl) -> list[str]:
    """The JSON text of each of values, all at the indent nl, formatted a column at a time."""
    types = set(map(type, values))
    if types == {int}:
        return list(map(int.__repr__, values))
    if types == {float}:
        return list(map(float.__repr__ if all(map(math.isfinite, values)) else _float, values))
    if types == {dict}:
        keys = values[0].keys()
        if keys and all(type(k) is str for k in keys) and all(rec.keys() == keys for rec in values):
            keys = sorted(keys)
            inner = nl + "  "
            fields = ("," + inner).join(_encode_str(k).replace("%", "%%") + ": %s" for k in keys)
            template = "{" + inner + fields + nl + "}"
            columns = [_texts([rec[k] for rec in values], inner) for k in keys]
            return list(map(template.__mod__, zip(*columns)))
    return ["".join(_pieces(v, nl)) for v in values]


def _scalar(value) -> str:
    """The JSON text of any value but a non-empty list, tuple or dict."""
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)  # also for a subclass such as IntEnum, as json does
    if isinstance(value, float):
        return _float(value)
    if isinstance(value, (list, tuple)):
        return "[]"
    if isinstance(value, dict):
        return "{}"
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _float(value) -> str:
    if math.isfinite(value):
        return float.__repr__(value)  # numpy 2's repr of a float64 is "np.float64(...)"
    return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"


def _key(key) -> str:
    if isinstance(key, str):
        return _encode_str(key)
    if key is None or isinstance(key, (int, float)):  # a bool is an int
        return _encode_str(_scalar(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


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
