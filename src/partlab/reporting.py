"""Deterministic JSON/CSV emission for check reports and count tables.

Counts are always decimal strings, never floats.  Floats are canonicalized
to at most 12 significant digits before serialization, so identical runs
produce byte-identical output and JSON/CSV carry identical values.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Iterable, Sequence

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


def rows_to_csv(rows: Iterable[dict], fields: Sequence[str]) -> str:
    """Render rows as CSV text with the given header, deterministically."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    for row in rows:
        canon = canon_row(row, fields)
        writer.writerow([_csv_cell(canon[f]) for f in fields])
    return buf.getvalue()


def document_to_json(doc: dict) -> str:
    """Render a report document as stable, human-readable JSON.

    The document is serialized as given: callers canonicalize its rows
    with ``canon_row`` (and any other floats with ``canon_tree``) first.
    """
    return json.dumps(doc, indent=2) + "\n"
