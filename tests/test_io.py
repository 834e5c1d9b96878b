import csv
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, strategies as st

from tricklefair.io import read_records, write_records, write_records_csv

FINITE = st.floats(allow_nan=False, allow_infinity=False)  # subnormals and +-1.8e308 included
EXTREMES = {
    "p": [5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, math.ulp(0.0) * 3, -0.0],
    "k": [0, -1, 2**53 + 1, 2**63, -(2**64), 10**400, 7],
    "ci": [None, 0.0, None, 1.5, -1e308, None, 5e-324],
}


@st.composite
def columns(draw):
    """Columns of one length: finite floats, integers of any size, and floats or None."""
    n = draw(st.integers(0, 12))
    return {
        "p": draw(st.lists(FINITE, min_size=n, max_size=n)),
        "k": draw(st.lists(st.integers(-(2**80), 2**80), min_size=n, max_size=n)),
        "ci": draw(st.lists(st.none() | FINITE, min_size=n, max_size=n)),
    }


@given(columns())
@example(EXTREMES)
def test_records_read_back_with_their_ids_and_values(cols):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.json"
        write_records(path, cols, params={"runs": 3}, converged=True)
        records = read_records(path, ("params", "converged"), ("p",), ("k",))
    assert [rec["id"] for rec in records] == list(range(len(cols["p"])))
    for name, values in cols.items():
        # repr tells 1.0 from 1 and -0.0 from 0.0
        assert [repr(rec[name]) for rec in records] == [repr(v) for v in values], name
    assert all(rec.keys() == {"id", *cols} for rec in records)


@given(columns())
@example(EXTREMES)
def test_csv_rows_are_the_id_then_each_column(cols):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.csv"
        write_records_csv(path, cols)
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    assert rows[0] == ["id", "p", "k", "ci"]
    expected = [
        [str(i), repr(p), repr(k), "" if ci is None else repr(ci)]
        for i, (p, k, ci) in enumerate(zip(cols["p"], cols["k"], cols["ci"]))
    ]
    assert rows[1:] == expected
