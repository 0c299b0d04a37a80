"""No module in the package or its tests imports a name it never reads,
the package defines no private helper it never names, and it exports no
name it lacks.

The repository carries no linter, so this walks each module's syntax tree
with the standard library's ast. It ignores scopes: a name counts as read
if the module reads it anywhere.
"""

import ast
from pathlib import Path

import recnet

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "recnet").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source):
    """Names the source imports and never reads; a string listed in
    __all__ counts as a read."""
    tree = ast.parse(source)
    imported = set()
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {e.value for e in node.value.elts}
    return sorted(imported - read)


def test_checker_flags_only_unread_names():
    source = ("import os\nimport os.path as osp\nfrom a import b, c as d\nfrom e import f\n"
              "__all__ = ['b']\nprint(d, osp)\nf = 1\n")
    assert unused_imports(source) == ["f", "os"]


def test_no_unused_imports():
    found = {str(path.relative_to(ROOT)): unused_imports(path.read_text()) for path in MODULES}
    assert {path: names for path, names in found.items() if names} == {}


def orphaned_private_names(sources):
    """Module-level private functions, classes and constants (`_name`,
    not dunder) that no source names anywhere but in their definition:
    neither as a name, nor as an attribute, nor in an import."""
    defined, named = set(), set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined |= {t.id for t in targets if isinstance(t, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                named |= {a.name for a in node.names}
    private = {n for n in defined if n.startswith("_") and not n.startswith("__")}
    return sorted(private - named)


def test_orphan_checker_flags_only_unnamed_private_names():
    sources = ["_A = 1\n_B = 2\n_c: int = 3\ndef _f():\n    return _A\n"
               "class _K:\n    pass\ndef g():\n    return _g\n_g = 4\n",
               "from m import _B\nimport m\nprint(m._c)\n"]
    assert orphaned_private_names(sources) == ["_K", "_f"]


def test_no_orphaned_private_names():
    assert orphaned_private_names(path.read_text() for path in PACKAGE) == []


def test_every_export_resolves():
    """`from recnet import *` fails on a name __all__ lists and the package
    lacks; nothing else would notice a dangling export."""
    assert [name for name in recnet.__all__ if not hasattr(recnet, name)] == []
