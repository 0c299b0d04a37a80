"""No module in the package or its tests imports a name it never reads,
and the package exports no name it lacks.

The repository carries no linter, so this walks each module's syntax tree
with the standard library's ast. It ignores scopes: a name counts as read
if the module reads it anywhere.
"""

import ast
from pathlib import Path

import recnet

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "recnet").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


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


def test_every_export_resolves():
    """`from recnet import *` fails on a name __all__ lists and the package
    lacks; nothing else would notice a dangling export."""
    assert [name for name in recnet.__all__ if not hasattr(recnet, name)] == []
