"""Canonical float formatting and deterministic row serialization."""

import array
import csv
import io
import json
import math
import random
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partlab import reporting, sweeps
from partlab.reporting import (
    SWEEP_FIELDS,
    TABLE_FIELDS,
    _float_text,
    _json_float,
    canon_float,
    canon_tree,
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


def random_finite_floats(count, seed):
    """count floats from seeded random 64-bit patterns, none of them nan or infinite.

    Every tenth pattern has its exponent bits cleared, so it is subnormal
    (or zero); the others are nearly all normal.
    """
    rng = random.Random(seed)
    # about one pattern in 2,048 is nan or infinite and is dropped
    bits = array.array("Q", rng.randbytes(8 * (count + count // 100)))
    bits[::10] = array.array("Q", [b & ~(0x7FF << 52) for b in bits[::10]])
    return [x for x in array.array("d", bits.tobytes()) if math.isfinite(x)][:count]


SMALLEST_NORMAL = 2.2250738585072014e-308


def edge_floats():
    """Floats at each rule's edges, both signs: the powers of ten and their neighbours, subnormals."""
    edges = [999999999999.5, 1e12, 9.99999999999e15, 1e16, 1e-4, 9.9999999999995e-5, 1e-5]
    for k in range(-323, 309):
        ten = float(f"1e{k}")
        edges += (math.nextafter(ten, 0.0), ten, math.nextafter(ten, math.inf))
    edges += [math.nextafter(SMALLEST_NORMAL, 0.0), SMALLEST_NORMAL]
    edges += [math.nextafter(SMALLEST_NORMAL, 1.0), 5e-324, 0.0]
    return edges + [-v for v in edges]


class TestFloatText:
    def test_float_text_is_the_repr_of_the_canonical_float(self):
        values = random_finite_floats(200_000, seed=2101_11542)
        assert len(values) == 200_000
        assert sum(1 for v in values if 0.0 < abs(v) < SMALLEST_NORMAL) > 19_000
        values += edge_floats()
        texts = list(map(_float_text, values))
        expected = list(map(repr, map(canon_float, values)))
        json_texts = list(map(_json_float, values))
        json_expected = list(map(json.dumps, map(canon_float, values)))
        checked = zip(values, texts, expected, json_texts, json_expected)
        assert [v for v, text, want, jtext, jwant in checked if (text, jtext) != (want, jwant)] == []

    def test_json_spells_nan_and_infinities_as_json_does(self):
        assert [_json_float(v) for v in (math.nan, math.inf, -math.inf)] == [
            "NaN",
            "Infinity",
            "-Infinity",
        ]
        for v in (0.5, -0.0, 1e16, 1e-5, 5e-324, 2.0):
            assert _json_float(v) == _float_text(v) == json.dumps(canon_float(v))

    def test_json_float_is_one_call(self, monkeypatch):
        """A JSON float cell does not go through _float_text: it is one call of the shared body."""

        def refuse(x):
            raise AssertionError("_json_float called _float_text")

        monkeypatch.setattr(reporting, "_float_text", refuse)
        assert reporting._json_float(1.5) == "1.5"
        assert reporting._json_float(math.nan) == "NaN"

    def test_writers_differ_only_on_nan_and_infinities(self, monkeypatch):
        """Every finite float of the edge and random lists has one text in both writers."""
        float_text = reporting._float_text
        monkeypatch.setattr(reporting, "_float_text", None)  # _json_float must not need it
        values = random_finite_floats(200_000, seed=2101_11542) + edge_floats()
        assert [v for v in values if _json_float(v) != float_text(v)] == []
        nonfinite = (math.nan, math.inf, -math.inf)
        assert [(float_text(v), _json_float(v)) for v in nonfinite] == [
            ("nan", "NaN"),
            ("inf", "Infinity"),
            ("-inf", "-Infinity"),
        ]


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
    st.text(alphabet=st.sampled_from('ab,"\\\n\r\t/\u00e9\u2264\U0001f600'), max_size=6),
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


# The writers' byte references: the canonical row and its CSV cells.
def canon_row(row: dict, fields: Sequence[str]) -> dict:
    """Project a row onto the fixed field order with canonical values."""
    return {f: canon_tree(row.get(f)) for f in fields}


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)  # repr of a canonicalized float, identical to JSON
    if isinstance(v, list):
        return ";".join(str(item) for item in v)
    return str(v)


def reference_json(head, rows, fields):
    return json.dumps({**head, "rows": [canon_row(r, fields) for r in rows]}, indent=2) + "\n"


def reference_csv(rows, fields):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(fields)
    for row in rows:
        canon = canon_row(row, fields)
        writer.writerow([_csv_cell(canon[f]) for f in fields])
    return out.getvalue()


@given(head=heads, rows=rows_strategy)
@settings(max_examples=150, deadline=None)
def test_stream_equals_json_dumps_of_canonical_rows(head, rows):
    """The streamed document is json.dumps(indent=2) of the canonical rows, byte for byte."""
    assert json_text(head, rows, FIELDS) == reference_json(head, rows, FIELDS)


@given(rows=rows_strategy)
@settings(max_examples=150, deadline=None)
def test_csv_equals_csv_writer_of_canonical_rows(rows):
    """rows_to_csv writes _csv_cell of each canon_row value, byte for byte."""
    assert csv_text(rows, FIELDS) == reference_csv(rows, FIELDS)


class TestRowEncoder:
    """The per-batch row join and list texts write json.dumps's bytes."""

    def check(self, rows, fields=FIELDS, head=None):
        head = head or {"command": "verify"}
        assert json_text(head, rows, fields) == reference_json(head, rows, fields)

    def test_many_distinct_floats_over_many_batches(self):
        floats = [k / 7 + 0.5 for k in range(16_684)]
        # distinct floats and repeats of them, over many batches
        values = floats[:200] + floats + floats[:200] + floats[-200:] + floats[::97]
        self.check([{"x": x, "lhs": -x} for x in values], fields=("x", "lhs"))

    def test_more_distinct_lists_than_a_batch_holds(self):
        rows = [{"R": [k, k + 1]} for k in range(16_434)]
        self.check(rows + rows[:100] + rows[-100:], fields=("R",))

    def test_mixed_shapes_and_repeated_values(self):
        shapes = [("x", "m"), ("m", "x"), ("R",), ("R", "x"), ("check", "R", "m"), ()]
        rows = []
        for k in range(60):
            values = ([k % 5], k % 7 / 3, float(k % 4), [k % 3, 0.5], True, k % 2)
            keys = shapes[k % len(shapes)]
            rows.append({key: values[(k + i) % len(values)] for i, key in enumerate(keys)})
        self.check(rows + rows[::-1])

    def test_equal_values_of_other_types_in_one_field(self):
        values = [1, 1.0, True, 1, False, 0, 0.0, -0.0, 0.0, 0, -0.0]
        values += [math.nan, math.inf, -math.inf, math.nan, 1e308 * 10, -1e308 * 10]
        values += [[1], [1.0], [True], (1,), [1], [0.0], [-0.0], [0], [False], [None]]
        values += [[[1]], [[1.0]], [(1,)], [(True,)], [math.nan], [math.nan], ["1"], "1"]
        self.check([{"x": v} for v in values])

    def test_float_text_is_canonical(self):
        values = [1 / 3, 0.1 + 0.2, 0.30000000000000004, 2**0.5, 1e-300, 123456789.0123456]
        self.check([{"x": v, "count": v} for v in values + values])

    def test_row_shapes(self):
        rows = [
            {"x": 0.5, "m": 3, "check": "eq2"},  # key order unlike fields
            {"check": "eq2", "m": 3, "x": 0.5},
            {"m": 1, "extra": 9.5, "R": [0, 2], "other": [1.0]},  # extra keys
            {},  # every field missing
            {"holds": True},  # one field
            {"R": (0, 2), "count": "17", "holds": False, "x": None},  # tuple value
            {"check": "c", "m": 2, "R": [1], "x": 1.25, "count": "3", "holds": True},
            {"x": 0.5, "m": 3, "check": "eq2"},
            {"zzz": 1},  # no field present
        ]
        self.check(rows)
        self.check(list(reversed(rows)))

    def test_keys_that_need_escaping(self):
        fields = ("a%s", "%", 'q"', "\u00e9", "b")
        rows = [{"a%s": 1.5, "%": "x", 'q"': [1]}, {"b": None, "\u00e9": 2}, {"%": "%s"}]
        self.check(rows, fields=fields)

    def test_two_documents_in_one_process(self):
        rows = [{"a": 1, "b": 2.5}, {"b": 0.5}, {"a": [3], "b": 2.5}]
        self.check(rows, fields=("a", "b"))
        self.check(rows, fields=("b", "a"))
        self.check(rows, fields=("a",))
        self.check(rows, fields=("b", "c", "a"))

    def test_batches(self):
        batch = reporting.BATCH_ROWS
        for count in (0, 1, batch - 1, batch, batch + 1, 2 * batch):
            self.check([{"m": k, "x": k / 3} for k in range(count)])

    def test_unserializable_value_raises(self):
        with pytest.raises(TypeError):
            json_text({}, [{"x": {1, 2}}], FIELDS)


class TestColumnPlan:
    """Both writers' per-batch column plan writes the reference bytes."""

    def check(self, rows, fields=FIELDS):
        assert csv_text(rows, fields) == reference_csv(rows, fields)
        head = {"command": "verify"}
        assert json_text(head, rows, fields) == reference_json(head, rows, fields)

    def test_float_edges_in_every_kind_of_column(self):
        edges = [1e12, 1.5e13, 9.99999999999e15, 1e16, 999999999999.5, 1e-4, 1e-5, 5e-324]
        edges += [2.2250738585072014e-308, -0.0, math.nan, math.inf, -math.inf]
        values = edges + [-v for v in edges] + [0.5, 3.0, 123456789012.0]
        # x holds floats only, lhs floats and None, count floats and ints
        rows = [
            {"x": v, "lhs": v if k % 2 else None, "count": v if k % 3 else k}
            for k, v in enumerate(values + values[::-1])
        ]
        self.check(rows)

    @pytest.mark.parametrize("at", [0, reporting.BATCH_ROWS // 2, reporting.BATCH_ROWS - 1])
    @pytest.mark.parametrize("text", [",", '"', "\n", "\r"])
    def test_one_cell_that_needs_quoting_in_a_full_batch(self, text, at):
        rows = [{"check": "c", "m": k, "x": k / 3} for k in range(2 * reporting.BATCH_ROWS)]
        rows[at] = {**rows[at], "check": "a" + text}
        self.check(rows)

    def test_one_field_whose_only_cell_is_empty(self):
        for rows in ([{"check": ""}], [{"check": None}], [{}], [{"check": ""}, {"check": "a"}]):
            self.check(rows, fields=("check",))

    def test_one_list_object_in_two_runs_and_two_batches(self):
        shared = [1, 2]
        rows = [{"R": shared, "m": k} if k % 3 else {"m": k, "R": shared} for k in range(30)]
        rows += [{"R": shared, "x": k / 3} for k in range(reporting.BATCH_ROWS)]
        self.check(rows)

    def test_one_tuple_in_rows_of_three_shapes_is_encoded_once(self, monkeypatch):
        shared = (0, 2)
        rows = [{"R": shared, "m": 1}, {"m": 2, "R": shared}, {"R": shared}]
        fields = ("m", "R")
        self.check(rows, fields=fields)
        calls = []
        for name in ("_json_other", "_csv_other"):
            other = getattr(reporting, name)
            monkeypatch.setattr(reporting, name, lambda v, n=name, f=other: calls.append(n) or f(v))
        json_text({"command": "verify"}, rows, fields)
        csv_text(rows, fields)
        assert calls == ["_json_other", "_csv_other"]

    def test_lists_made_and_freed_a_batch_at_a_time(self):
        # each batch's lists are freed before the next batch's are made, so
        # a new list can reuse a freed one's id while holding other items
        count = 3 * reporting.BATCH_ROWS

        def rows():
            return ({"R": [k % 7, k], "m": k} for k in range(count))

        assert csv_text(rows(), FIELDS) == reference_csv(list(rows()), FIELDS)
        head = {"command": "verify"}
        assert json_text(head, rows(), FIELDS) == reference_json(head, list(rows()), FIELDS)

    def test_equal_lists_and_tuples_nested_or_not(self):
        values = [[1, 2], (1, 2), [1, 2], (1, 2), [1.0, 2], [True, 2], [[1, 2]], [(1, 2)]]
        values += [([1, 2],), ((1, 2),), [[1, [2, (3,)]]], [[1, [2, [3]]]], [], (), [[]], [()]]
        self.check([{"R": v} for v in values + values[::-1]])
        self.check([{"R": v, "x": [v]} for v in values])

    @pytest.mark.parametrize("layout", ["run", "batches"])
    @pytest.mark.parametrize(
        "values",
        [
            [True, False],
            [0, 3, -7, 10**20],
            ["", "a", "b c", "\u00e9"],
            [0.5, 3.0, -0.0, 1e-5, 5e-324, 1e16, math.nan, math.inf, -math.inf],
            [(0, 2), (), ((0,), 2.5), (0, 2)],
            [[0, 2], [], [[0], 2.5], [0, 2]],
            [{"a": [1, 2.5, math.nan]}, {}, {"b": ({"c": 0.1 + 0.2},)}],
        ],
        ids=["bool", "int", "str", "float", "tuple", "list", "dict"],
    )
    def test_list_column_with_none(self, values, layout):
        """A column of one type and None, in one batch or over two."""
        cells = [None, *values, None, *values[::-1], None]
        if layout == "batches":
            cells *= reporting.BATCH_ROWS // len(cells) + 2
            assert len(cells) > reporting.BATCH_ROWS
        self.check([{"R": v, "m": 3} for v in cells])

    def test_sweep_rows_share_their_residue_list(self):
        rows = list(sweeps.sweep_rows(3, 12))
        assert rows[0]["R"] is rows[1]["R"]
        self.check(rows, fields=SWEEP_FIELDS)

    def test_rows_with_no_field_between_other_shapes(self):
        rows = [{"m": 1, "x": 0.5}] * 3 + [{}] * 4 + [{"check": "a"}, {}, {}, {"zzz": 1}]
        rows += [{"m": 2, "R": [1, 2]}, {}]
        self.check(rows)
        self.check(rows, fields=("m",))
        self.check(rows, fields=())
