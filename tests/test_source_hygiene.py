"""Source hygiene of the package, read with the stdlib ``ast`` module.

Every name a module imports is read in that module, and every private
(``_``-prefixed) module-level function or class is referenced somewhere in
the package outside its own definition.  ``__init__.py`` re-exports the
public API, so its imports are not checked.  Every public module-level
function or class is referenced somewhere in ``src/``, ``tests/``,
``demos/`` or ``bench/`` outside its own definition; a re-export from
``__init__.py`` is not a use, and a ``"module:name"`` string, the way the
bench tracer names its targets, is.  A text-config ``verify`` loads neither
``dataclasses`` (nor the ``inspect`` it pulls in) nor ``json``.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "solvsph"
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
CALLERS = [  # the code outside the package that may use its public names
    ast.parse(path.read_text(encoding="utf-8"))
    for folder in ("tests", "demos", "bench")
    for path in sorted((ROOT / folder).rglob("*.py"))
    if not any(part.startswith(".") for part in path.relative_to(ROOT).parts)
]
TARGET = re.compile(r"\w+:([\w.]+)")  # "module:name" or "module:Class.method"


def _names(nodes):
    """Every name the nodes read: bare names, attribute names and names imported from a module."""
    out = set()
    for node in (sub for top in nodes for sub in ast.walk(top)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def _targets(trees):
    """Every name a ``"module:name"`` or ``"module:Class.method"`` string constant names."""
    out = set()
    for node in (sub for top in trees for sub in ast.walk(top)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if target := TARGET.fullmatch(node.value):
                out.update(target.group(1).split("."))
    return out


def _imports(tree):
    """(bound name, line) of every import in the tree, ``from __future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((a.asname or a.name, node.lineno) for a in node.names)


@pytest.mark.parametrize("name", sorted(set(TREES) - {"__init__.py"}))
def test_every_import_is_used(name):
    tree = TREES[name]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [f"{bound} (line {line})" for bound, line in _imports(tree) if bound not in read] == []


@pytest.mark.parametrize("name", sorted(TREES))
def test_every_private_definition_is_referenced(name):
    tree = TREES[name]
    private = [
        node for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
    ]
    elsewhere = set().union(*(_names([t]) for other, t in TREES.items() if other != name))
    unused = [
        node.name for node in private
        if node.name not in elsewhere | _names([top for top in tree.body if top is not node])
    ]
    assert unused == []


@pytest.mark.parametrize("name", sorted(set(TREES) - {"__init__.py"}))
def test_every_public_definition_is_used(name):
    tree = TREES[name]
    public = [
        node for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    package = [t for other, t in TREES.items() if other not in (name, "__init__.py")]
    elsewhere = _names(package + CALLERS) | _targets(CALLERS)
    unused = [
        node.name for node in public
        if node.name not in elsewhere | _names([top for top in tree.body if top is not node])
    ]
    assert unused == []


def test_a_text_config_verify_loads_no_dataclasses_inspect_or_json():
    """Structural, not timed: a fresh interpreter without ``site`` (so that only
    the package's own imports count) imports the CLI, runs a verify and lists
    which of these modules it loaded."""
    code = (
        "import contextlib, io, sys\n"
        "from solvsph import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['verify', '--preset', 'borel', '--height', '1'])\n"
        "print(code, [m for m in ('dataclasses', 'inspect', 'json') if m in sys.modules])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 []\n", "")
