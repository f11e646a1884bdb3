"""Deterministic JSON/CSV emission for check reports and count tables.

Counts are always decimal strings, never floats.  Floats are canonicalized
to at most 12 significant digits before serialization, so identical runs
produce byte-identical output and JSON/CSV carry identical values.

Reports are streamed: each row is canonicalized as it is written to the
output stream (JSON text in batches of rows), so emission never holds the
whole report in memory.
"""

from __future__ import annotations

import csv
import json
import math
from json.encoder import encode_basestring_ascii
from typing import Iterable, Sequence, TextIO

# document_to_json writes rows to the output stream this many at a time.
BATCH_ROWS = 1000

# Field orders are fixed; emission never depends on dict iteration quirks.
BOUND_FIELDS = ("m", "R", "variant", "n", "count", "log_count", "bound", "slack", "holds")
SERIES_FIELDS = ("check", "m", "R", "r", "x", "t", "lhs", "rhs", "margin", "holds")
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


def rows_to_csv(rows: Iterable[dict], fields: Sequence[str], out: TextIO) -> None:
    """Write rows as CSV with the given header to out, deterministically."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(fields)
    for row in rows:
        canon = canon_row(row, fields)
        writer.writerow([_csv_cell(canon[f]) for f in fields])


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


def document_to_json(
    head: dict, rows: Iterable[dict], fields: Sequence[str], out: TextIO
) -> None:
    """Write a report document as stable, human-readable JSON to out.

    The bytes equal ``json.dumps({**head, "rows": [canon_row(r, fields) for
    r in rows]}, indent=2) + "\\n"``, but no row is copied and no document
    string is built: ``head`` (everything but the rows, canonicalized by
    the caller) goes through ``json.dumps``, and each row is canonicalized
    and encoded as it is written, in batches of BATCH_ROWS rows.
    """
    text = json.dumps({**head, "rows": []}, indent=2)
    out.write(text[: -len("[]\n}")])  # everything before the rows' value
    # each row is a dict at depth 2, so its keys sit at depth 3
    keys = ["\n      " + encode_basestring_ascii(f) + ": " for f in fields]
    batch: list[str] = []
    count = 0
    for count, row in enumerate(rows, 1):
        cells = ",".join([key + _json_value(row.get(f), 3) for key, f in zip(keys, fields)])
        batch.append(("[\n    {" if count == 1 else ",\n    {") + cells + "\n    }")
        if count % BATCH_ROWS == 0:
            out.write("".join(batch))
            batch.clear()
    batch.append("\n  ]\n}\n" if count else "[]\n}\n")
    out.write("".join(batch))
