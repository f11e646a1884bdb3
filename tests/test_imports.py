"""No module of partlab imports a name it never uses.

A refactor that moves a function or a type out of a module can leave its
import behind, where it still loads but says nothing true about what the
module depends on.  Each module under ``src/partlab`` is parsed with
``ast``; a name bound by an ``import`` or ``from ... import`` statement
must be read somewhere in the module (annotations included).
``from __future__`` imports are directives, not names.

Importing ``partlab.cli`` alone loads every module a command runs, so a
tracer that wraps the loaded modules from outside sees each layer.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

from partlab import cli

PACKAGE = Path(cli.__file__).resolve().parent


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


def test_finder_sees_an_unused_import():
    source = "from a import b, c\nimport d.e\n\nprint(b)\n"
    assert _unused_imports(source) == ["c (line 1)", "d (line 2)"]


def test_no_module_imports_a_name_it_never_uses():
    unused = {
        path.name: found
        for path in sorted(PACKAGE.glob("*.py"))
        if (found := _unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}


def test_importing_the_cli_loads_every_layer():
    """A fresh ``import partlab.cli`` loads each layer, and its verify config can be copied."""
    code = (
        "import dataclasses, json, sys; import partlab.cli; "
        "print(json.dumps(sorted(name for name in sys.modules if name.startswith('partlab.')))); "
        "config = sys.modules['partlab.sweeps'].SweepConfig(); "
        "print(dataclasses.replace(config, workers=2).workers)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        text=True,
    )
    lines = done.stdout.splitlines()
    layers = ("bounds", "counting", "partset", "reporting", "series", "sweeps")
    assert {f"partlab.{name}" for name in layers} <= set(json.loads(lines[0]))
    assert done.returncode == 0, done.stderr
    assert lines[1:] == ["2"]
