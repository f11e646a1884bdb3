"""Deterministic JSON/CSV emission for check reports and count tables.

Counts are always decimal strings, never floats.  Floats are canonicalized
to at most 12 significant digits before serialization, so identical runs
produce byte-identical output and JSON/CSV carry identical values.

The writers' contract, with each row's canonical form ``{f:
canon_tree(row.get(f)) for f in fields}``: for any rows that ``json.dumps``
can encode, ``document_to_json`` writes the bytes of ``json.dumps({**head,
"rows": [canonical rows]}, indent=2) + "\\n"``, and any other value raises
json's own TypeError; ``rows_to_csv`` writes the bytes of ``csv.writer``
over the canonical values' cells.  A CSV cell is empty for None, ``true``
or ``false`` for a bool, the ``;``-join of its items' ``str`` for a list,
and ``str`` of any other value.

Reports are streamed BATCH_ROWS rows at a time, so emission never holds the
whole report in memory.  Both writers share one column plan per batch: each
field that some row of the batch has is a column, where a row without the
field reads None; a field no row has is the writer's null text throughout.
A column whose values other than None share one type, None among them or
not, is encoded in one pass, with the writer's null text for None; a mixed
one is encoded cell by cell, by exact value type.  Only bool, int, str and
float values take a writer's own text; JSON takes every other text, the
head's and each list, tuple or dict value's, from ``json.dumps``.  Each
distinct list or tuple object is encoded once per batch, and no writer
keeps state from one batch to the next.  CSV joins a batch's cells itself
when none needs quoting, and hands the batch to ``csv.writer`` otherwise.

A float cell's text is ``_float_text(x)``: the repr of ``canon_float(x)``,
as ``json.dumps`` writes a float in a list.  It is read straight from
``"%.12g" % x`` when that text has a point and no exponent; when its
exponent is negative and x is not subnormal (below the smallest normal
float, 12 digits can be longer than the shortest repr); and, with ".0"
added, when it is an integer other than -0.  Any other finite float takes
``canon_float`` and ``repr``.  Nan and the infinities fall through every
one of those tests; only there do the writers' texts differ, CSV spelling
them as ``repr`` does and JSON as ``json.dumps`` does.  Both texts come
from one body, ``_float_texts``, so a JSON float cell, ``_json_float(x)``,
is one call, as a CSV one is.
"""

from __future__ import annotations

import csv
import json
import sys
from itertools import islice, repeat
from json.encoder import encode_basestring_ascii
from math import isfinite
from typing import Callable, Iterable, Sequence, TextIO

# Both writers encode and write this many rows at a time.
BATCH_ROWS = 1000

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


def _float_texts(nonfinite: Callable[[float], str]) -> Callable[[float], str]:
    """A float cell's text by the module docstring's rule, nan and the infinities by nonfinite."""
    smallest_normal = sys.float_info.min

    def float_text(x: float) -> str:
        s = "%.12g" % x
        if "e" not in s:
            if "." in s:
                return s
            if s != "-0" and s.lstrip("-").isdigit():
                return s + ".0"
        elif "e-" in s and abs(x) >= smallest_normal:
            return s
        if isfinite(x):
            return float.__repr__(canon_float(x))
        return nonfinite(x)

    return float_text


# One body for both writers' float cells: CSV spells nan and the infinities
# as repr does, JSON as json.dumps does.
_float_text = _float_texts(float.__repr__)
_json_float = _float_texts(json.dumps)


def _column_text(
    batch: list[dict], field: str, null: str, cells: dict, other: Callable
) -> list[str]:
    """The text of field's value in each row of a batch: null, ``cells`` by exact type, or other.

    A row without field reads None.  A column whose values other than None
    share one type, None among them or not, is encoded in one pass by that
    type's text, any other cell by cell.  Each distinct list or tuple object
    is encoded once per batch, by other.
    """
    column = list(map(dict.get, batch, repeat(field)))
    kinds = set(map(type, column)) - {type(None)}
    if list in kinds or tuple in kinds:
        # the column holds every value, so while known lives an id names one object
        known: dict[int, str] = {}

        def seq_text(v) -> str:
            key = id(v)
            if key not in known:
                known[key] = other(v)
            return known[key]

        cells = {**cells, list: seq_text, tuple: seq_text}
    if len(kinds) == 1:
        text = cells.get(kinds.pop(), other)
        return [null if v is None else text(v) for v in column]
    cell = cells.get
    return [null if v is None else cell(type(v), other)(v) for v in column]


def _csv_other(v) -> str:
    """The CSV cell of a list, tuple, dict or other value the column plan has no text for."""
    v = canon_tree(v)
    return ";".join(map(str, v)) if isinstance(v, list) else str(v)


def rows_to_csv(rows: Iterable[dict], fields: Sequence[str], out: TextIO) -> None:
    """Write rows as CSV with the given header to out, deterministically.

    Each cell is the module docstring's CSV cell of the canonical value,
    without building the canonical row.  A batch's cells are joined here
    when none holds a comma, quote or line break, which csv.writer would
    quote; any other batch, or one of one field, goes through csv.writer.
    """
    cells = {
        bool: {False: "false", True: "true"}.__getitem__,
        int: int.__repr__,
        str: str,
        float: _float_text,
    }
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(fields)
    commas = len(fields) - 1
    rows = iter(rows)
    while batch := list(islice(rows, BATCH_ROWS)):
        present = set().union(*batch)
        columns = [
            _column_text(batch, f, "", cells, _csv_other) if f in present else repeat("", len(batch))
            for f in fields
        ]
        lines = list(zip(*columns)) if columns else [()] * len(batch)
        text = "\n".join(map(",".join, lines))
        if (
            commas > 0  # csv.writer writes a lone empty cell as ""
            and text.count(",") == commas * len(lines)
            and text.count("\n") == len(lines) - 1
            and '"' not in text
            and "\r" not in text
        ):
            out.write(text)
            out.write("\n")
        else:
            writer.writerows(lines)


def _json_other(v) -> str:
    """json.dumps's text of a row value, indented for a field at depth 3."""
    return json.dumps(canon_tree(v), indent=2).replace("\n", "\n      ")


def document_to_json(
    head: dict, rows: Iterable[dict], fields: Sequence[str], out: TextIO
) -> None:
    """Write a report document as stable, human-readable JSON to out.

    For any rows that ``json.dumps`` can encode, the bytes equal
    ``json.dumps({**head, "rows": [{f: canon_tree(r.get(f)) for f in
    fields} for r in rows]}, indent=2) + "\\n"``; any other value raises
    json's own TypeError.  No row is copied and no document string is
    built: ``head`` (everything but the rows, canonicalized by the caller)
    goes through ``json.dumps``, and the rows are written BATCH_ROWS at a
    time, each row joined from the keys of fields and its batch's columns.
    """
    text = json.dumps({**head, "rows": []}, indent=2)
    out.write(text[: -len("[]\n}")])  # everything before the rows' value
    # each row is a dict at depth 2, so its keys sit at depth 3
    keys = ["\n      " + encode_basestring_ascii(f) + ": " for f in fields]

    cells = {
        bool: {False: "false", True: "true"}.__getitem__,
        int: int.__repr__,
        str: encode_basestring_ascii,
        float: _json_float,
    }
    # a row joins before[i] and field i's value in turn, then after (json.dumps's {} if no key)
    before = ["\n    {" + keys[0]] + ["," + key for key in keys[1:]] if fields else []
    after = "\n    }" if fields else "\n    {}"
    opener = "["  # the first batch opens the list, later ones continue it
    rows = iter(rows)
    while batch := list(islice(rows, BATCH_ROWS)):
        present = set().union(*batch)
        # a field that no row of the batch has is a literal null in the text
        # that leads the next value, so each row joins fewer strings
        strands, lead = [], ""
        for key, f in zip(before, fields):
            if f in present:
                strands += (repeat(lead + key), _column_text(batch, f, "null", cells, _json_other))
                lead = ""
            else:
                lead += key + "null"
        # after's strand is finite, so a batch with no field still yields its rows
        out.write(opener + ",".join(map("".join, zip(*strands, repeat(lead + after, len(batch))))))
        opener = ","
    out.write("\n  ]\n}\n" if opener == "," else "[]\n}\n")
