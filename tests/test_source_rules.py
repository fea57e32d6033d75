"""Source rules of the package, checked on its syntax trees.

Every file the package writes goes through ``_base._write_atomic`` (a
temporary sibling, then ``os.replace``), so a reader never sees a half
written output.  This module parses ``src/trades/*.py`` and fails on any
``open(...)`` call with a write, append or create mode anywhere else.

No module imports ``dataclasses``: its decorator generates and compiles
code for every record class when the module is imported, which every
command pays at start-up; records derive from ``_base.Record`` instead.
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "trades")
WRITER = ("_base.py", "_write_atomic")


def _mode(call):
    """The mode of an open(...) call as a string; "r" when it is not given,
    None when it is not a literal."""
    if len(call.args) >= 2:
        node = call.args[1]
    else:
        node = next((kw.value for kw in call.keywords if kw.arg == "mode"),
                    ast.Constant("r"))
    return node.value if isinstance(node, ast.Constant) else None


def _writing_opens(path):
    """(function, line) of every open(...) in path that may write."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    hits = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "open"):
            mode = _mode(node)
            if mode is None or set(mode) & set("wax+"):
                hits.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return hits


def test_only_the_atomic_writer_opens_files_for_writing():
    files = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert files
    found = {(os.path.basename(path), function): line
             for path in files for function, line in _writing_opens(path)}
    assert WRITER in found    # the rule would be vacuous without it
    stray = {key: line for key, line in found.items() if key != WRITER}
    assert not stray, f"open(...) for writing outside {WRITER}: {stray}"


def test_rule_sees_every_writing_mode(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "def f(p, m):\n"
        "    open(p)\n"
        "    open(p, 'rb')\n"
        "    open(p, 'w')\n"
        "    open(p, mode='a')\n"
        "    open(p, 'x')\n"
        "    open(p, 'r+')\n"
        "    open(p, m)\n")
    assert [line for _, line in _writing_opens(str(source))] == [4, 5, 6, 7, 8]


def _dataclasses_imports(path):
    """Lines of every import of the dataclasses module in path."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Import) and any(
                alias.name.split(".")[0] == "dataclasses"
                for alias in node.names)
            or isinstance(node, ast.ImportFrom) and node.level == 0
            and (node.module or "").split(".")[0] == "dataclasses"]


def test_no_module_imports_dataclasses():
    files = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert files
    found = {os.path.basename(path): lines for path in files
             if (lines := _dataclasses_imports(path))}
    assert not found, f"dataclasses imported at (file: lines) {found}"


def test_import_rule_sees_every_form(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "import os\n"
        "import dataclasses\n"
        "import os, dataclasses as dc\n"
        "from dataclasses import dataclass\n"
        "from . import dataclasses_free\n"
        "def f():\n"
        "    from dataclasses import replace\n")
    assert _dataclasses_imports(str(source)) == [2, 3, 4, 7]
