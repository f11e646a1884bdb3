"""Deterministic JSON/CSV emission for check reports and count tables.

Counts are always decimal strings, never floats.  Floats are canonicalized
to at most 12 significant digits before serialization, so identical runs
produce byte-identical output and JSON/CSV carry identical values.

Reports are streamed BATCH_ROWS rows at a time, so emission never holds the
whole report in memory.  Both writers share one column plan: a batch is
split into runs of rows of one shape (key order), and each field present in
a run is pulled out as a column.  A column of one value type, or of floats
and None, is encoded with one ``map``; any other column cell by cell, by
exact value type.  A float's text is ``format(x, ".12g")`` wherever that is
already the repr of the canonical float.  JSON joins each row of a run from
the run's template, in which the fields the shape lacks are already
``null``.  CSV joins a batch's cells itself when none needs quoting, and
hands the batch to ``csv.writer`` otherwise.
"""

from __future__ import annotations

import csv
import json
import math
from functools import lru_cache
from itertools import groupby, islice, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Callable, Iterable, Sequence, TextIO

# Both writers encode and write this many rows at a time.
BATCH_ROWS = 1000

# Entries in one JSON document's cache of list text.
CACHE_SIZE = 16_384

_NONE = type(None)

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


def _float_text(null: str, special: Callable[[float], str]) -> Callable:
    """A function from a float or None to its canonical text.

    ``"%.12g" % x`` (``format(x, ".12g")``'s text) is the repr of
    ``canon_float(x)`` when it has a point and no exponent, and, with ".0"
    added, when it is an integer other than -0.  None is written as null;
    exponents, nan, infinities and -0 go through special.
    """

    def text(x: float | None) -> str:
        if x is None:
            return null
        s = "%.12g" % x
        if "." in s:
            if "e" not in s:
                return s
        elif s.lstrip("-").isdigit() and s != "-0":
            return s + ".0"
        return special(x)

    return text


def _column_text(run: list[dict], field: str, cells: dict, other: Callable) -> Iterable[str]:
    """The text of field's value in each row of a run: ``cells`` by exact type, else other.

    A column of one type, or of floats and None, is encoded by one map; any
    other column cell by cell.  A column of floats is formatted by one map,
    and only the texts that are not already canonical go to the float text.
    """
    column = list(map(itemgetter(field), run))
    kinds = set(map(type, column))
    if kinds == {float}:
        text = cells[float]
        texts = map("%.12g".__mod__, column)
        return [s if "." in s and "e" not in s else text(x) for x, s in zip(column, texts)]
    if kinds == {float, _NONE}:  # the float text writes None too
        kinds = {float}
    if len(kinds) == 1:
        return map(cells.get(kinds.pop(), other), column)
    cell = cells.get
    return [cell(type(v), other)(v) for v in column]


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
        _NONE: {None: ""}.__getitem__,
        bool: {False: "false", True: "true"}.__getitem__,
        int: int.__repr__,
        str: str,
        float: _float_text("", _csv_other),
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
                _column_text(run, f, cells, _csv_other) if f in row_keys else repeat("", len(run))
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


def _json_other(v) -> str:
    return _json_value(v, 3)


# Item types whose equal values have equal canonical JSON text.
_FLAT_TYPES = frozenset((_NONE, bool, int, float, str))


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
    ``json.dumps``, and the rows are written BATCH_ROWS at a time.  Each
    run of one shape gets a template with the keys of fields and a literal
    ``null`` for each field the shape lacks.  Flat lists are encoded
    through a bounded cache of their text; equal keys of it must mean equal
    text, so a list's key is its items' exact types, then the items, and
    lists holding containers are not cached.
    """
    text = json.dumps({**head, "rows": []}, indent=2)
    out.write(text[: -len("[]\n}")])  # everything before the rows' value
    # each row is a dict at depth 2, so its keys sit at depth 3
    keys = ["\n      " + encode_basestring_ascii(f) + ": " for f in fields]

    @lru_cache(maxsize=CACHE_SIZE)
    def flat_list_text(key: tuple) -> str:
        return _json_value(key[len(key) // 2 :], 3)

    def list_text(v) -> str:
        types = tuple(map(type, v))
        if _FLAT_TYPES.issuperset(types):
            return flat_list_text((*types, *v))
        return _json_value(v, 3)

    cells = {
        _NONE: {None: "null"}.__getitem__,
        bool: {False: "false", True: "true"}.__getitem__,
        int: int.__repr__,
        str: encode_basestring_ascii,
        float: _float_text("null", _json_float),
        list: list_text,
        tuple: list_text,
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
            pieces = ("\n    {" + ",".join(template) + "\n    }").split("\0")
            # a row's text joins pieces and values in turn; the first strand
            # is finite, so a shape with no field still yields its rows
            strands = [repeat(pieces[0], len(run))]
            for f, piece in zip(present, pieces[1:]):
                strands += (_column_text(run, f, cells, _json_other), repeat(piece))
            texts += map("".join, zip(*strands))
        out.write(opener + ",".join(texts))
        opener = ","
    out.write("\n  ]\n}\n" if opener == "," else "[]\n}\n")

