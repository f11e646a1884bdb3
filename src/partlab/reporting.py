"""Deterministic JSON/CSV emission for check reports and count tables.

Counts are always decimal strings, never floats.  Floats are canonicalized
to at most 12 significant digits before serialization, so identical runs
produce byte-identical output and JSON/CSV carry identical values.

Reports are streamed: each row is canonicalized as it is written to the
output stream (JSON text in batches of rows), so emission never holds the
whole report in memory.  Cells are encoded by exact value type.  A JSON
document writes each row from a template made once per row shape, with
the fields the shape lacks already written as ``null``, and keeps the text
of recent floats and residue lists in bounded caches of its own.
"""

from __future__ import annotations

import csv
import json
import math
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Callable, Iterable, Sequence, TextIO

# document_to_json writes rows to the output stream this many at a time.
BATCH_ROWS = 1000

# Entries per cache of one JSON document (float text, list text, row
# templates).  On `partlab verify`'s defaults (131,424 floats, 47,531
# distinct) 16,384 entries hit 62.7% of float lookups, against 63.8%
# unbounded and 51.2% at 4,096.
CACHE_SIZE = 16_384

# Field orders are fixed; emission never depends on dict iteration quirks.
TABLE_FIELDS = ("n", "p_a", "p_a_plus", "p_r_plus", "bound", "slack", "ratio")
SWEEP_FIELDS = ("m", "R") + TABLE_FIELDS
VERIFY_FIELDS = (
    "check",
    "m",
    "R",
    "variant",
    "n",
    "count",
    "log_count",
    "bound",
    "slack",
    "ratio",
    "r",
    "x",
    "t",
    "lhs",
    "rhs",
    "margin",
    "holds",
)


def canon_float(x: float) -> float:
    """Round to the shortest value within 12 significant digits."""
    if x == 0.0:
        return 0.0  # normalize signed zero
    return float(format(x, ".12g"))


def canon_tree(node):
    """Canonicalize floats throughout a JSON-ready structure."""
    if isinstance(node, dict):
        return {k: canon_tree(v) for k, v in node.items()}
    if isinstance(node, (list, tuple)):
        return [canon_tree(v) for v in node]
    if isinstance(node, float):
        return canon_float(node)
    return node


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


def _csv_other(v) -> str:
    return _csv_cell(canon_tree(v))


# CSV cell text by exact value type; any other type goes through _csv_other.
_CSV_CELL = {
    type(None): lambda v: "",
    bool: {False: "false", True: "true"}.__getitem__,
    int: int.__repr__,
    str: str,
    float: lambda v: repr(canon_float(v)),
}


def rows_to_csv(rows: Iterable[dict], fields: Sequence[str], out: TextIO) -> None:
    """Write rows as CSV with the given header to out, deterministically.

    Each cell equals ``_csv_cell`` of the ``canon_row`` value, without
    building the canonical row.
    """
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(fields)
    cell = _CSV_CELL.get
    for row in rows:
        writer.writerow([cell(type(v), _csv_other)(v) for v in map(row.get, fields)])


def _json_float(x: float) -> str:
    """json's spelling of a canonicalized float, NaN and infinities included."""
    x = canon_float(x)
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _json_value(v, depth: int) -> str:
    """Canonical JSON text of one row value nested at depth, as indent=2 writes it."""
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        return _json_float(v)
    if isinstance(v, (list, tuple)):
        if not v:
            return "[]"
        inner = "\n" + "  " * (depth + 1)
        items = ("," + inner).join(_json_value(item, depth + 1) for item in v)
        return "[" + inner + items + "\n" + "  " * depth + "]"
    raise TypeError(f"row value of type {type(v).__name__} is not JSON serializable")


# Item types whose equal values have equal canonical JSON text.
_FLAT_TYPES = frozenset((type(None), bool, int, float, str))


class _BoundedCache(dict):
    """Values computed by ``make`` from their keys on a miss.

    Holds at most CACHE_SIZE entries and starts over when full, so a
    document with many distinct values or row shapes costs bounded memory.
    """

    __slots__ = ("make",)

    def __init__(self, make: Callable) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, key):
        if len(self) >= CACHE_SIZE:
            self.clear()
        value = self[key] = self.make(key)
        return value


def _row_encoder(fields: Sequence[str]) -> Callable[[dict], str]:
    """A function from a row to its canonical JSON text, for one document.

    The text starts with the comma that separates it from the previous row.
    Each row shape (its key order) gets a template with the keys of fields
    and a literal ``null`` for each field the shape lacks, filled from the
    row's values.  Values are encoded by exact type: floats and flat lists
    through caches of their text, anything else by ``_json_value``.
    Equal keys of one cache must mean equal text, so a list's key is its
    items' exact types, then the items, and lists holding containers are
    not cached.
    """
    # each row is a dict at depth 2, so its keys sit at depth 3
    keys = ["\n      " + encode_basestring_ascii(f).replace("%", "%%") + ": " for f in fields]
    floats = _BoundedCache(_json_float)
    lists = _BoundedCache(lambda key: _json_value(key[len(key) // 2 :], 3))

    def list_text(v) -> str:
        types = tuple(map(type, v))
        if _FLAT_TYPES.issuperset(types):
            return lists[(*types, *v)]
        return _json_value(v, 3)

    encoders = {
        type(None): {None: "null"}.__getitem__,
        bool: {False: "false", True: "true"}.__getitem__,
        int: int.__repr__,
        str: encode_basestring_ascii,
        float: floats.__getitem__,
        list: list_text,
        tuple: list_text,
    }.get

    def shape(row_keys: tuple) -> tuple[str, Callable]:
        present = [f for f in fields if f in row_keys]
        cells = [key + ("%s" if f in present else "null") for key, f in zip(keys, fields)]
        if len(present) > 1:
            values = itemgetter(*present)
        else:  # itemgetter of one key returns the bare value
            values = lambda row: [row[f] for f in present]  # noqa: E731
        return ",\n    {" + ",".join(cells) + "\n    }", values

    shapes = _BoundedCache(shape)

    def row_text(row: dict) -> str:
        template, values = shapes[tuple(row)]
        return template % tuple([encoders(type(v), _json_other)(v) for v in values(row)])

    return row_text


def _json_other(v) -> str:
    return _json_value(v, 3)


def document_to_json(
    head: dict, rows: Iterable[dict], fields: Sequence[str], out: TextIO
) -> None:
    """Write a report document as stable, human-readable JSON to out.

    Row values may be None, bool, int, str, float, or a list or tuple of
    these (nested lists and tuples too); any other value, a dict included,
    raises TypeError.  For such rows the bytes equal ``json.dumps({**head,
    "rows": [canon_row(r, fields) for r in rows]}, indent=2) + "\\n"``,
    but no row is copied and no document string is built: ``head``
    (everything but the rows, canonicalized by the caller) goes through
    ``json.dumps``, and each row is encoded from its shape's template as
    it is written, in batches of BATCH_ROWS rows.
    """
    text = json.dumps({**head, "rows": []}, indent=2)
    out.write(text[: -len("[]\n}")])  # everything before the rows' value
    row_text = _row_encoder(fields)
    batch: list[str] = []
    count = 0
    for count, row in enumerate(rows, 1):
        text = row_text(row)
        batch.append(text if count > 1 else "[" + text[1:])  # the first row opens the list
        if count % BATCH_ROWS == 0:
            out.write("".join(batch))
            batch.clear()
    batch.append("\n  ]\n}\n" if count else "[]\n}\n")
    out.write("".join(batch))
