"""Canonical float formatting and deterministic row serialization."""

import io
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from partlab.reporting import (
    TABLE_FIELDS,
    canon_float,
    canon_row,
    document_to_json,
    rows_to_csv,
)


def csv_text(rows, fields):
    out = io.StringIO()
    rows_to_csv(rows, fields, out)
    return out.getvalue()


def json_text(head, rows, fields):
    out = io.StringIO()
    document_to_json(head, rows, fields, out)
    return out.getvalue()


class TestCanonFloat:
    def test_short_values_unchanged(self):
        assert canon_float(0.5) == 0.5
        assert canon_float(2.0) == 2.0

    def test_rounds_to_twelve_significant_digits(self):
        assert canon_float(25.650996603237280) == canon_float(25.650996603237281)
        assert repr(canon_float(1 / 3)) == "0.333333333333"

    def test_repr_never_exceeds_twelve_digits(self):
        for x in (1 / 3, 2**0.5, 1e-7 / 3, 123456.789012345, 9.87654321e-300):
            digits = repr(canon_float(x)).replace("-", "").replace(".", "")
            mantissa = digits.split("e")[0].lstrip("0")
            assert len(mantissa) <= 12


def sample_rows():
    return [
        {"n": 0, "p_a": "1", "p_a_plus": "1", "p_r_plus": "1", "bound": 0.0, "slack": 0.0, "ratio": None},
        {"n": 5, "p_a": "3", "p_a_plus": "1", "p_r_plus": "1", "bound": 4.055778, "slack": 4.055778, "ratio": 0.2708},
    ]


class TestRowSerialization:
    def test_csv_header_and_nulls(self):
        text = csv_text(sample_rows(), TABLE_FIELDS)
        lines = text.splitlines()
        assert lines[0] == "n,p_a,p_a_plus,p_r_plus,bound,slack,ratio"
        assert lines[1].endswith(",")  # None ratio becomes an empty cell
        assert len(lines) == 3

    def test_counts_stay_decimal_strings(self):
        row = canon_row(sample_rows()[1], TABLE_FIELDS)
        assert row["p_a"] == "3"
        assert isinstance(row["p_a"], str)

    def test_json_csv_value_agreement(self):
        rows = sample_rows()
        doc = json.loads(json_text({}, rows, TABLE_FIELDS))
        csv_lines = csv_text(rows, TABLE_FIELDS).splitlines()[1:]
        for json_row, csv_line in zip(doc["rows"], csv_lines):
            cells = csv_line.split(",")
            for field, cell in zip(TABLE_FIELDS, cells):
                value = json_row[field]
                if value is None:
                    assert cell == ""
                elif isinstance(value, float):
                    assert float(cell) == value
                else:
                    assert cell == str(value)

    def test_determinism(self):
        a = csv_text(sample_rows(), TABLE_FIELDS)
        b = csv_text(sample_rows(), TABLE_FIELDS)
        assert a == b
        ja = json_text({}, sample_rows(), TABLE_FIELDS)
        jb = json_text({}, sample_rows(), TABLE_FIELDS)
        assert ja == jb


FIELDS = ("check", "m", "R", "x", "count", "holds")

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**30), 10**30),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1 / 3, 2**0.5, 1e-300]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(alphabet=st.sampled_from('ab"\\\n\t/\u00e9\u2264\U0001f600'), max_size=6),
)
cell_values = st.one_of(
    scalars,
    st.lists(scalars, max_size=3),
    st.lists(scalars, max_size=3).map(tuple),
)
rows_strategy = st.lists(
    st.dictionaries(st.sampled_from(FIELDS), cell_values),  # fields may be missing
    max_size=5,
)
heads = st.dictionaries(
    st.sampled_from(["command", "m", "config", "summaries"]),
    st.one_of(scalars, st.lists(st.integers(0, 9), max_size=3)),
    max_size=3,
)


@given(head=heads, rows=rows_strategy)
@settings(max_examples=150, deadline=None)
def test_stream_equals_json_dumps_of_canonical_rows(head, rows):
    """The streamed document is json.dumps(indent=2) of the canonical rows, byte for byte."""
    expected = json.dumps({**head, "rows": [canon_row(r, FIELDS) for r in rows]}, indent=2) + "\n"
    assert json_text(head, rows, FIELDS) == expected

