"""Source hygiene: no module of the package, test or demo imports a name it
never uses, no private definition or class field of the package goes
unread, and the package is deterministic: only ``typea``, for its seeded
test plumbing ``random_decomposition``, imports ``random``.

pyflakes-style, with the standard library's ``ast`` only: a module-level
``import``/``from ... import`` binding that no ``Name`` in the module reads
is dead.  ``__init__.py`` is skipped, since its imports are re-exports.  A
module-level ``def _name``/``class _Name`` of the package is dead when no
``Name`` or attribute in the package, the tests or the demos reads it.  A
field of a package class (an annotation in the class body, as a dataclass
declares it, or a ``self.x = ...`` in a method) is dead when no attribute
load in the package, the tests or the demos reads that name.
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


def imported_modules(source):
    """Top-level names of every module that ``source`` imports, anywhere."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def test_only_typea_imports_random():
    assert imported_modules("import random as r\ndef f():\n    from random import choice\n"
                            "from . import random\n") == {"random"}
    assert [p.name for p in MODULES if "random" in imported_modules(p.read_text())] \
        == ["typea.py"]


def names_read(sources):
    """Every ``Name`` and attribute name read in the given sources."""
    read = set()
    for text in sources:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def unread_private_definitions(source, read):
    """(line, name) of the module-level private defs/classes of ``source``
    whose name is not in ``read``."""
    return [(node.lineno, node.name) for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and node.name not in read]


def test_detector_flags_only_unread_private_definitions():
    source = ("def _called():\n    pass\ndef _dead():\n    pass\n"
              "class _Attr:\n    pass\nclass _Named:\n    pass\n"
              "def public():\n    return _called(), '_dead'\n")
    other = "import m\nx = m._Attr\ny = [_Named]\n"
    assert unread_private_definitions(source, names_read([source, other])) == [(3, "_dead")]


@pytest.fixture(scope="module")
def project_names_read():
    return names_read(p.read_text() for p in MODULES + SCRIPTS)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_private_definitions(path, project_names_read):
    assert unread_private_definitions(path.read_text(), project_names_read) == []


def attributes_loaded(sources):
    """Every attribute name loaded in the given sources."""
    return {node.attr for text in sources for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def unread_fields(source, loaded):
    """(line, class, field) of the fields of the classes of ``source`` whose
    name is not in ``loaded``."""
    fields = {}
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                fields.setdefault((cls.name, node.target.id), node.lineno)
        for node in ast.walk(cls):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name) and node.value.id == "self"):
                fields.setdefault((cls.name, node.attr), node.lineno)
    return sorted((line, cls, name) for (cls, name), line in fields.items()
                  if name not in loaded)


def test_detector_flags_only_unread_fields():
    source = ("@dataclass\nclass Report:\n    kept: int\n    dead: int = 0\n"
              "class Search:\n    def __init__(self, a, b):\n"
              "        self.found = a\n        self.morphism = b\n"
              "    def __bool__(self):\n        return self.found\n")
    other = "r = Report(1, dead=2)\nprint(r.kept)\n"
    assert unread_fields(source, attributes_loaded([source, other])) == [
        (4, "Report", "dead"), (8, "Search", "morphism")]


@pytest.fixture(scope="module")
def project_attributes_loaded():
    return attributes_loaded(p.read_text() for p in MODULES + SCRIPTS)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_class_fields(path, project_attributes_loaded):
    assert unread_fields(path.read_text(), project_attributes_loaded) == []
