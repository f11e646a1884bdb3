"""Every hand-written function of partlab is reached by some command.

Runs verify, table and sweep (JSON and CSV each) and count (each variant)
on small grids in this process under ``sys.setprofile``, and lists the
functions and methods defined in ``src/partlab`` that no call entered.
Code that only tests reach must be wired into a command or deleted, so
that list is pinned empty: references that only tests run, such as the
writers' byte references, live in the tests.  Methods that dataclasses
generate have no source in the package and are not listed.
"""

import inspect
import sys
from pathlib import Path

from partlab import cli

PACKAGE = Path(cli.__file__).resolve().parent

NEVER_CALLED = set()


def _defined_functions() -> dict:
    """(file, first line, name) of each def in the package -> module.qualname."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        filename = str(path)
        stack = [(compile(path.read_text(encoding="utf-8"), filename, "exec"), "")]
        while stack:
            code, prefix = stack.pop()
            for const in code.co_consts:
                if not inspect.iscode(const) or const.co_name.startswith("<"):
                    continue  # lambdas and comprehensions are parts of a function
                qualname = prefix + const.co_name
                if const.co_flags & inspect.CO_NEWLOCALS:  # a function, not a class body
                    key = (filename, const.co_firstlineno, const.co_name)
                    found[key] = f"{path.stem}.{qualname}"
                stack.append((const, qualname + "."))
    return found


def _run_commands(tmp_path) -> set:
    """(file, first line, name) of every code object entered by the commands."""
    runs = []
    for fmt in ("json", "csv"):
        out = str(tmp_path / f"report.{fmt}")
        runs += [
            ["verify", "--m-max", "2", "--n-max", "12", "--format", fmt, "--output", out],
            ["table", "--m", "3", "--r", "0,2", "--n-max", "12", "--format", fmt, "--output", out],
            ["sweep", "--m-max", "2", "--n-max", "8", "--format", fmt, "--output", out],
        ]
    for variant in ("full-a", "a-plus", "r-plus"):
        runs.append(["count", "--m", "3", "--r", "0,1", "--variant", variant, "--n", "12"])

    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno, code.co_name))

    sys.setprofile(profile)
    try:
        codes = [cli.main(argv) for argv in runs]
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(runs)
    return entered


def test_only_pinned_functions_are_unreached(tmp_path, capsys):
    defined = _defined_functions()
    assert "sweeps.run_verify" in defined.values()
    assert "counting.TableFactory._build" in defined.values()
    entered = {(str(Path(f).resolve()), line, name) for f, line, name in _run_commands(tmp_path)}
    unreached = {qualname for key, qualname in defined.items() if key not in entered}
    assert unreached == NEVER_CALLED
