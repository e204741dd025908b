"""Source hygiene: no module of the package, test or demo imports a name it
never uses.

pyflakes-style, with the standard library's ``ast`` only: a module-level
``import``/``from ... import`` binding that no ``Name`` in the module reads
is dead.  ``__init__.py`` is skipped, since its imports are re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "quivergrass").glob("*.py")
                 if p.name != "__init__.py")
SCRIPTS = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))


def unused_imports(source):
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_detector_flags_only_unread_imports():
    source = ("import os\nimport os.path as osp\nfrom . import linalg as la\n"
              "from .quiver import Quiver, euler_form\n"
              "def f():\n    return la.mat(osp.sep, Quiver)\n")
    assert unused_imports(source) == [(1, "os"), (4, "euler_form")]


@pytest.mark.parametrize("path", MODULES + SCRIPTS, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []
