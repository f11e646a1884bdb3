"""Mutation probe: which single-point changes to partlab can no command see?

Makes one-point mutants of ``src/partlab`` modules with ``ast``, runs
commands against each mutant in a copied package, and puts every mutant
in one class by what the commands do.  Stdlib only; tier-1 does not
collect it.  Run it from anywhere:

    python3 tests/mutate.py                    # operators, default verify
    python3 tests/mutate.py --delete           # deletions, DELETE_COMMANDS
    python3 tests/mutate.py --delete --modules partset --limit 20

Default mode swaps ``+``/``-``, ``*``/``/``, ``<``/``<=``, ``>``/``>=``,
``==``/``!=`` and ``and``/``or`` (augmented assignments included), adds 1
to an int constant and multiplies a float constant by 1.01, in
``OPERATOR_MODULES``.  Each mutant runs default ``partlab verify``, and
    * fails a check: exit 1 with no traceback;
    * crashes: any other nonzero exit, a signal, or a traceback;
    * times out;
    * changes the bytes only: exit 0 with other stdout;
    * survives: exit 0 with the same stdout.

``--delete`` mode works over every module.  It deletes a statement
(docstrings and ``from __future__`` aside), forces an ``if`` true or
false, drops one operand of an ``and``/``or`` and forces a conditional
expression to either branch.  Each mutant runs ``DELETE_COMMANDS`` in
order, and is equivalent when every command prints the same stdout and
stderr and exits with the same code as the unmutated package.  Otherwise
the first command that departs classes it: it timed out, it crashed (a
signal, or a traceback the unmutated run does not print), or it differs.

A mutant whose tree dumps equal to the original's is a no-op (``0.0 *
1.01`` is ``0.0``) and is dropped.  Every command runs in its own child,
two at a time, with a 1 GB address-space limit, a 30 s timeout and
PYTHONDONTWRITEBYTECODE=1, from a fresh copy of the package.

Before any mutant, the unmutated package runs the commands twice, once as
written and once as ``ast.unparse`` prints it, which is how mutants are
written.  The probe stops with exit 2 unless both runs print the same, no
command of theirs crashes or times out, and default verify exits 0.  It
exits 1 if any mutant could not be run or classed, and 0 otherwise,
whatever the score.
"""

from __future__ import annotations

import argparse
import ast
import collections
import concurrent.futures
import copy
import hashlib
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "partlab"
OPERATOR_MODULES = ("bounds", "series", "counting", "sweeps")
JOBS = 2
TIMEOUT_S = 30
ADDRESS_LIMIT = 1 << 30
OUTPUT_LIMIT = 1 << 26  # a child that writes more is killed: verify's JSON is 16 MB

# sets the child's limits, then runs ``python -m partlab`` with the given argv
LAUNCH = (
    "import resource, runpy, sys\n"
    f"resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_LIMIT}, {ADDRESS_LIMIT}))\n"
    f"resource.setrlimit(resource.RLIMIT_FSIZE, ({OUTPUT_LIMIT}, {OUTPUT_LIMIT}))\n"
    "resource.setrlimit(resource.RLIMIT_CORE, (0, 0))\n"
    "sys.argv[0] = 'partlab'\n"
    "runpy.run_module('partlab', run_name='__main__', alter_sys=True)\n"
)

VERIFY = ["verify"]
DELETE_COMMANDS = [
    VERIFY,
    ["verify", "--format", "csv"],
    ["verify", "--m-max", "6", "--n-max", "40"]
    + ["--checks", "counts,theorem1,chain,rpoly,ratio,erdos"],
    ["table", "--m", "6", "--r", "0,1,2,3,4,5", "--n-max", "2000", "--format", "csv"],
    ["table", "--m", "3", "--r", "0,2", "--n-max", "30"],
    ["table", "--m", "3", "--r", "0,2", "--n-max", "30", "--format", "csv"],
    ["table", "--m", "4", "--r", "", "--n-max", "10"],
    ["sweep", "--m-max", "3", "--n-max", "20"],
    ["sweep", "--m-max", "3", "--n-max", "20", "--format", "csv", "--output", "-"],
    ["count", "--m", "3", "--r", "0,2", "--n", "30", "--variant", "full-a"],
    ["count", "--m", "3", "--r", "0,2", "--n", "30", "--variant", "a-plus"],
    ["count", "--m", "3", "--r", "0,2", "--n", "30", "--variant", "r-plus"],
    ["count", "--m", "1", "--r", "0", "--n", "100"],
    ["verify", "--checks", "erdos", "--m-max", "3", "--n-max", "20"],
    ["verify", "--checks", "helpers,remark", "--m-max", "2", "--n-max", "30", "--format", "csv"],
    # every refusal path
    ["verify", "--m-max", "0"],
    ["verify", "--n-max", "-1"],
    ["verify", "--checks", ""],
    ["verify", "--checks", "counts,bogus"],
    ["verify", "--checks", "theorem1", "--m-max", "1", "--n-max", "5"]
    + ["--output", "missing/out.json"],
    ["count", "--m", "0", "--r", "0", "--n", "5"],
    ["table", "--m", "3", "--r", "1,x", "--n-max", "5"],
    ["count", "--m", "3", "--r", "1,1", "--n", "5"],
    ["count", "--m", "3", "--r", "5", "--n", "5"],
    ["count", "--m", "3", "--r", "1", "--n", "-1"],
    ["table", "--m", "3", "--r", "1", "--n-max", "-1"],
    ["sweep", "--m-max", "0", "--n-max", "5"],
    ["sweep", "--m-max", "2", "--n-max", "-1"],
]

SWAPS = {
    ast.Add: ast.Sub,
    ast.Sub: ast.Add,
    ast.Mult: ast.Div,
    ast.Div: ast.Mult,
    ast.Lt: ast.LtE,
    ast.LtE: ast.Lt,
    ast.Gt: ast.GtE,
    ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
    ast.And: ast.Or,
    ast.Or: ast.And,
}
SYMBOLS = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Lt: "<", ast.LtE: "<=",
    ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=", ast.And: "and", ast.Or: "or",
}  # fmt: skip

# the classes, in the order the summary prints them
OPERATOR_CLASSES = ("check fails", "crash", "timeout", "bytes change", "survives")
DELETE_CLASSES = ("differs", "equivalent", "timeout", "crash")


def _text(node: ast.AST) -> str:
    text = ast.unparse(node).splitlines()[0]
    return text if len(text) <= 60 else text[:57] + "..."


def _nodes(node: ast.AST, qual: tuple = (), place: tuple = ()):
    """Every node in preorder with its enclosing def names and its place in its parent."""
    yield node, qual, place
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        qual += (node.name,)
    for name, value in ast.iter_fields(node):
        if isinstance(value, list):
            for i, item in enumerate(value):
                if isinstance(item, ast.AST):
                    yield from _nodes(item, qual, (value, i))
        elif isinstance(value, ast.AST):
            yield from _nodes(value, qual, (node, name))


def _swap(op: ast.AST) -> ast.AST:
    return SWAPS[type(op)]()


def _operator_changes(node: ast.AST):
    """(label, change) for each operator mutant rooted at node; change maps the node's copy."""
    if isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in SWAPS:
        label = f"`{SYMBOLS[type(node.op)]}` -> `{SYMBOLS[SWAPS[type(node.op)]]}`"

        def change(n):
            n.op = _swap(n.op)
            return n

        yield label, change
    elif isinstance(node, ast.Compare):
        for j, op in enumerate(node.ops):
            if type(op) in SWAPS:

                def change(n, j=j):
                    n.ops[j] = _swap(n.ops[j])
                    return n

                yield f"`{SYMBOLS[type(op)]}` -> `{SYMBOLS[SWAPS[type(op)]]}`", change
    elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
        bumped = node.value + 1 if type(node.value) is int else node.value * 1.01
        yield f"`{node.value!r}` -> `{bumped!r}`", lambda n: ast.Constant(bumped)


def _is_directive(node: ast.AST) -> bool:
    """A docstring, a bare pass or a ``from __future__`` import: nothing to delete."""
    if isinstance(node, ast.Expr):
        return isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
    return isinstance(node, ast.Pass) or (
        isinstance(node, ast.ImportFrom) and node.module == "__future__"
    )


def _delete_changes(node: ast.AST):
    """(label, change) for each deletion mutant rooted at node."""
    if isinstance(node, ast.stmt) and not _is_directive(node):
        yield "delete", lambda n: ast.Pass()
    if isinstance(node, ast.If):
        for value in (True, False):

            def change(n, value=value):
                n.test = ast.Constant(value)
                return n

            yield f"if {value}", change
    elif isinstance(node, ast.BoolOp):
        for j, operand in enumerate(node.values):

            def change(n, j=j):
                kept = n.values[:j] + n.values[j + 1 :]
                return kept[0] if len(kept) == 1 else ast.BoolOp(n.op, kept)

            yield f"drop `{_text(operand)}`", change
    elif isinstance(node, ast.IfExp):
        yield "force body", lambda n: n.body
        yield "force else", lambda n: n.orelse


def make_mutants(module: str, delete: bool) -> tuple[list[dict], int]:
    """The mutants of one module, in source order, and how many no-ops were dropped."""
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    tree = ast.parse(source)
    original = ast.dump(tree)
    changes = _delete_changes if delete else _operator_changes
    mutants, noops = [], 0
    for index, (node, qual, _) in enumerate(_nodes(tree)):
        for label, change in changes(node):
            mutated = copy.deepcopy(tree)
            target, _, place = next(itertools.islice(_nodes(mutated), index, None))
            replacement = change(target)
            container, key = place
            if isinstance(container, list):
                container[key] = replacement
            else:
                setattr(container, key, replacement)
            if ast.dump(mutated) == original:
                noops += 1
                continue
            mutants.append(
                {
                    "module": module,
                    "line": node.lineno,
                    "where": ".".join(qual) or "<module>",
                    "mutation": label,
                    "text": _text(node),
                    "source": ast.unparse(mutated),
                }
            )
    return mutants, noops


def _run(package_root: Path, argv: list[str]) -> dict:
    """One command in a child against the package under package_root."""
    env = dict(os.environ, PYTHONPATH=str(package_root), PYTHONDONTWRITEBYTECODE="1")
    out_path, err_path = package_root / "stdout", package_root / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        try:
            code = subprocess.run(
                [sys.executable, "-c", LAUNCH, *argv],
                cwd=package_root,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=out,
                stderr=err,
                timeout=TIMEOUT_S,
            ).returncode
        except subprocess.TimeoutExpired:
            return {"timeout": True}
    stderr = err_path.read_bytes()
    return {
        "timeout": False,
        "code": code,
        "stdout": hashlib.sha256(out_path.read_bytes()).hexdigest(),
        "stderr": hashlib.sha256(stderr).hexdigest(),
        "traceback": code < 0 or b"Traceback (most recent call last)" in stderr,
    }


def _package_copy(root: Path, module: str | None = None, source: str | None = None) -> Path:
    shutil.copytree(PACKAGE, root / "partlab", ignore=shutil.ignore_patterns("__pycache__"))
    if module is not None:
        (root / "partlab" / f"{module}.py").write_text(source, encoding="utf-8")
    return root


def _unparsed_package(root: Path) -> Path:
    _package_copy(root)
    for path in (root / "partlab").glob("*.py"):
        path.write_text(ast.unparse(ast.parse(path.read_text(encoding="utf-8"))), encoding="utf-8")
    return root


class ProbeError(RuntimeError):
    """The unmutated package gives no outcomes a mutant's can be compared with."""


def _baseline(workdir: Path, commands: list[list[str]]) -> list[dict]:
    """The unmutated package's outcomes; ProbeError unless mutants can be compared with them."""
    written_root = _package_copy(workdir / "written")
    unparsed_root = _unparsed_package(workdir / "unparsed")
    written = [_run(written_root, argv) for argv in commands]
    unparsed = [_run(unparsed_root, argv) for argv in commands]
    for argv, a, b in zip(commands, written, unparsed):
        shown = " ".join(argv)
        if a["timeout"] or a["traceback"]:
            raise ProbeError(f"the unmutated package crashes or times out on: {shown}")
        if a != b:
            raise ProbeError(
                "the unmutated package prints differently from run to run, "
                f"or once unparsed, on: {shown}"
            )
    if written[commands.index(VERIFY)]["code"] != 0:
        raise ProbeError("default verify of the unmutated package does not exit 0")
    return written


def _classify_operator(outcome: dict, base: dict) -> str:
    if outcome["timeout"]:
        return "timeout"
    if outcome["traceback"] or outcome["code"] not in (0, 1):
        return "crash"
    if outcome["code"] == 1:
        return "check fails"
    return "survives" if outcome["stdout"] == base["stdout"] else "bytes change"


def run_mutant(root: Path, mutant: dict, commands, baseline, delete: bool) -> tuple[str, str]:
    """(class, the command that decided it) of one mutant, in a package copy under root."""
    _package_copy(root, mutant["module"], mutant["source"])
    try:
        if not delete:
            return _classify_operator(_run(root, VERIFY), baseline[0]), " ".join(VERIFY)
        for argv, base in zip(commands, baseline):
            outcome = _run(root, argv)
            if outcome != base:
                if outcome["timeout"]:
                    kind = "timeout"
                elif outcome["traceback"]:
                    kind = "crash"
                else:
                    kind = "differs"
                return kind, " ".join(argv)
        return "equivalent", ""
    finally:
        shutil.rmtree(root, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--delete", action="store_true", help="deletion mode over DELETE_COMMANDS")
    parser.add_argument("--modules", help="comma-separated module names; default by mode")
    parser.add_argument("--limit", type=int, help="run only the first LIMIT mutants")
    parser.add_argument("--records", help="write every mutant's class to this JSON file")
    args = parser.parse_args(argv)

    every = sorted(path.stem for path in PACKAGE.glob("*.py"))
    if args.modules:
        modules = args.modules.split(",")
    else:
        modules = every if args.delete else list(OPERATOR_MODULES)
    unknown = sorted(set(modules) - set(every))
    if unknown:
        parser.error(f"unknown modules {unknown}; choose from {every}")
    commands = DELETE_COMMANDS if args.delete else [VERIFY]
    classes = DELETE_CLASSES if args.delete else OPERATOR_CLASSES

    mutants, noops = [], 0
    for module in modules:
        made, dropped = make_mutants(module, args.delete)
        mutants += made
        noops += dropped
    if args.limit is not None:
        mutants = mutants[: args.limit]
    mode = "delete" if args.delete else "operator"
    print(
        f"mutate: {mode} mode, {len(mutants)} mutants of {','.join(modules)} "
        f"({noops} no-ops dropped), against {len(commands)} command(s)",
        flush=True,
    )

    start = time.monotonic()
    tally = collections.Counter()
    unclassed = 0
    with tempfile.TemporaryDirectory(prefix="partlab-mutate-") as tmp:
        workdir = Path(tmp)
        try:
            baseline = _baseline(workdir, commands)
        except ProbeError as exc:
            print(f"mutate: {exc}", file=sys.stderr)
            return 2
        with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
            futures = [
                pool.submit(run_mutant, workdir / str(i), m, commands, baseline, args.delete)
                for i, m in enumerate(mutants)
            ]
            for mutant, future in zip(mutants, futures):
                place = f"{mutant['module']}.py:{mutant['line']} {mutant['where']}"
                try:
                    mutant["class"], mutant["command"] = future.result()
                except Exception as exc:  # a mutant the probe could not run: report it, go on
                    mutant["class"], mutant["command"] = "unclassed", repr(exc)
                    unclassed += 1
                    print(f"unclassed   {place}: {mutant['mutation']}", flush=True)
                    traceback.print_exception(exc)
                    continue
                tally[mutant["class"]] += 1
                if mutant["class"] in ("survives", "equivalent"):
                    print(
                        f"{mutant['class']:<11} {place}: {mutant['mutation']} `{mutant['text']}`",
                        flush=True,
                    )
    elapsed = time.monotonic() - start
    print(
        ", ".join(f"{tally[c]} {c}" for c in classes)
        + (f", {unclassed} unclassed" if unclassed else "")
        + f" of {len(mutants)} mutants in {elapsed:.0f} s"
    )
    if args.records:
        records = [{k: v for k, v in m.items() if k != "source"} for m in mutants]
        Path(args.records).write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    return 1 if unclassed else 0


if __name__ == "__main__":
    raise SystemExit(main())
