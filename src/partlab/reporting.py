"""Deterministic JSON/CSV emission for check reports and count tables.

Counts are always decimal strings, never floats.  Floats are canonicalized
to at most 12 significant digits before serialization, so identical runs
produce byte-identical output and JSON/CSV carry identical values.

The writers' contract: for any rows that ``json.dumps`` can encode,
``document_to_json`` writes the bytes of ``json.dumps({**head, "rows":
[canon_row(r, fields) for r in rows]}, indent=2) + "\\n"``, and any other
value raises json's own TypeError; ``rows_to_csv`` writes the bytes of
``csv.writer`` over ``_csv_cell`` of each ``canon_row`` value.

Reports are streamed BATCH_ROWS rows at a time, so emission never holds the
whole report in memory.  Both writers share one column plan: a batch is
split into runs of rows of one shape (key order), and each field present in
a run is pulled out as a column.  A column whose values other than None
share one type, None among them or not, is encoded in one pass, with the
writer's null text for None; a mixed one is encoded cell by cell, by exact
value type.  Only bool, int, str and float values take a writer's own text;
JSON takes every other text, the head's and each list, tuple or dict
value's, from ``json.dumps``.  Each distinct list or tuple object is
encoded once per run.  No writer keeps state from one run to the next.
JSON joins each row of a run from the run's template, in which the fields
the shape lacks are already ``null``.  CSV joins a batch's cells itself
when none needs quoting, and hands the batch to ``csv.writer`` otherwise.

A float cell's text is ``_float_text(x)``: the repr of ``canon_float(x)``,
as ``json.dumps`` writes a float in a list.  It is read straight from
``"%.12g" % x`` when that text has a point and no exponent; when its
exponent is negative and x is not subnormal (below the smallest normal
float, 12 digits can be longer than the shortest repr); and, with ".0"
added, when it is an integer other than -0.  Any other float takes
``canon_float`` and ``repr``.  JSON spells nan and the infinities with
``json.dumps``.
"""

from __future__ import annotations

import csv
import json
import sys
from itertools import groupby, islice, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter
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


def canon_row(row: dict, fields: Sequence[str]) -> dict:
    """Project a row onto the fixed field order with canonical values."""
    return {f: canon_tree(row.get(f)) for f in fields}


def _float_text(x: float) -> str:
    """A float's report text, the repr of ``canon_float(x)``, by the module docstring's rule."""
    s = "%.12g" % x
    if "e" not in s:
        if "." in s:
            return s
        if s != "-0" and s.lstrip("-").isdigit():
            return s + ".0"
    elif "e-" in s and abs(x) >= sys.float_info.min:
        return s
    return float.__repr__(canon_float(x))


def _column_text(
    run: list[dict], field: str, null: str, cells: dict, other: Callable
) -> list[str]:
    """The text of field's value in each row of a run: null, ``cells`` by exact type, or other.

    A column whose values other than None share one type, None among them
    or not, is encoded in one pass by that type's text; any other column
    cell by cell.  Each distinct list or tuple object is encoded once per
    run, by other.
    """
    column = list(map(itemgetter(field), run))
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


def rows_to_csv(rows: Iterable[dict], fields: Sequence[str], out: TextIO) -> None:
    """Write rows as CSV with the given header to out, deterministically.

    Each cell equals ``_csv_cell`` of the ``canon_row`` value, without
    building the canonical row.  A batch's cells are joined here when none
    holds a comma, quote or line break, which csv.writer would quote; any
    other batch, or one of one field, goes through csv.writer.
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
        lines: list[tuple] = []
        for row_keys, run in groupby(batch, tuple):
            run = list(run)
            columns = [
                _column_text(run, f, "", cells, _csv_other)
                if f in row_keys
                else repeat("", len(run))
                for f in fields
            ]
            lines += zip(*columns) if columns else repeat((), len(run))
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


def _json_float(x: float) -> str:
    """json's spelling of a float's report text, NaN and infinities included."""
    text = _float_text(x)
    if text[-1].isdigit():
        return text
    return json.dumps(x)


def _json_other(v) -> str:
    """json.dumps's text of a row value, indented for a field at depth 3."""
    return json.dumps(canon_tree(v), indent=2).replace("\n", "\n      ")


def document_to_json(
    head: dict, rows: Iterable[dict], fields: Sequence[str], out: TextIO
) -> None:
    """Write a report document as stable, human-readable JSON to out.

    For any rows that ``json.dumps`` can encode, the bytes equal
    ``json.dumps({**head, "rows": [canon_row(r, fields) for r in rows]},
    indent=2) + "\\n"``; any other value raises json's own TypeError.  No
    row is copied and no document string is built: ``head``
    (everything but the rows, canonicalized by the caller) goes through
    ``json.dumps``, and the rows are written BATCH_ROWS at a time.  Each
    run of one shape gets a template with the keys of fields and a literal
    ``null`` for each field the shape lacks.
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
    opener = "["  # the first batch opens the list, later ones continue it
    rows = iter(rows)
    while batch := list(islice(rows, BATCH_ROWS)):
        texts: list[str] = []
        for row_keys, run in groupby(batch, tuple):
            run = list(run)
            present = [f for f in fields if f in row_keys]
            # the template's pieces around its values; encode_basestring_ascii
            # escapes "\0" in keys, so "\0" marks each value
            template = [key + ("\0" if f in row_keys else "null") for key, f in zip(keys, fields)]
            # json.dumps writes a dict with no key as {}
            pieces = ("\n    {" + ",".join(template) + ("\n    }" if fields else "}")).split("\0")
            # a row's text joins pieces and values in turn; the first strand
            # is finite, so a shape with no field still yields its rows
            strands = [repeat(pieces[0], len(run))]
            for f, piece in zip(present, pieces[1:]):
                strands += (_column_text(run, f, "null", cells, _json_other), repeat(piece))
            texts += map("".join, zip(*strands))
        out.write(opener + ",".join(texts))
        opener = ","
    out.write("\n  ]\n}\n" if opener == "," else "[]\n}\n")

