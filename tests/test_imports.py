"""Every imported name is used in the file that imports it.

No linter runs offline, so this reads each module of the package, the
tests and the demos with ``ast``: a name bound by an import must appear
as a name elsewhere in that file.  A ``# noqa`` on the import statement
exempts it, for an import kept for another module to patch.  In the
same way, every private name a module of the package binds at its top
level (``_name``, by def, class or assignment) is read in that module,
and so is every name a test or demo file binds at its top level, but
``_``, the ``test_*`` functions and the fixtures its tests take.

Importing the CLI also builds neither the digit tables nor the word
table of ``text``'s number path: they are built on first use, so
start-up does not pay for them.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path):
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_every_imported_name_is_used():
    found = {}
    for folder in ("src/gippsim", "tests", "demos"):
        for path in sorted((ROOT / folder).glob("*.py")):
            if unused := unused_imports(path):
                found[str(path.relative_to(ROOT))] = unused
    assert found == {}


def unread_names(path, checked):
    """Top-level names (def, class or assignment) that ``checked(name, node)``
    selects and the file never reads; taking a fixture as a parameter reads it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("__") and checked(name, node):
                bound.setdefault(name, node.lineno)
    params = {a.arg for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
              for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs}
    fixtures = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)
                and any("fixture" in ast.unparse(d) for d in node.decorator_list)}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)} | (params & fixtures)
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def unread_in(folders, checked):
    return {str(path.relative_to(ROOT)): unread for folder in folders
            for path in sorted((ROOT / folder).glob("*.py"))
            if (unread := unread_names(path, checked))}


def test_every_private_name_is_read_in_its_module():
    assert unread_in(["src/gippsim"], lambda name, node: name.startswith("_")) == {}


def test_every_top_level_name_of_a_test_or_demo_is_read():
    assert unread_in(["tests", "demos"], lambda name, node: name != "_" and not (
        name.startswith("test_") and isinstance(node, ast.FunctionDef))) == {}


def test_import_builds_no_digit_tables():
    code = ("import gippsim.cli; from gippsim import text; "
            "print(text._groups.cache_info().currsize, text.word_texts.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout == "0 0\n"
