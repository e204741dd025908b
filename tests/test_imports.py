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

Nothing public is there for the tests alone: a public module-level
``def``/``class`` of the package, or a public method of a public package
class, is dead when no package module, demo or ``perfbench`` file reads it,
unless ``__all__`` or README.md names it.  An attribute of that name reads
it anywhere; a bare name only in its own module or where it is imported
from, so ``operator.mul`` does not read ``linalg.mul``.  What a package
definition reads counts only once that definition is read itself, so code
that only an unread definition reads is unread too.  An oracle that only
the tests use lives in ``tests/oracles.py``.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "quivergrass").glob("*.py")
                 if p.name != "__init__.py")
SCRIPTS = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
SURFACE_READERS = (sorted((ROOT / "src" / "quivergrass").glob("*.py"))
                   + sorted((ROOT / "demos").glob("*.py"))
                   + sorted((ROOT / "perfbench").glob("*.py")))


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


def surface_reads(sources, exempt=frozenset()):
    """What the (source, module stem or None) pairs read of the package:
    every attribute name, and the bare names read by defining module,
    {module stem: names}.  A bare name counts for the package module whose
    source reads it and for a package module it is imported from.

    What a module-level def or class of a package module reads counts only
    once that definition is itself read, by an attribute, a bare name
    credited to its module or an exempt name; reads are credited until
    nothing changes, so a definition that only an unread one reads is
    unread too."""
    attrs, by_module = set(), {}

    def credit(tree, stem):
        attrs.update(n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute))
        if stem:
            by_module.setdefault(stem, set()).update(
                n.id for n in ast.walk(tree) if isinstance(n, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module and (
                    node.level or node.module.startswith("quivergrass.")):
                by_module.setdefault(node.module.split(".")[-1], set()).update(
                    alias.name for alias in node.names)

    deferred = []
    for source, stem in sources:
        for node in ast.parse(source).body:
            if stem and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                deferred.append((node, stem))
            else:
                credit(node, stem)
    while True:
        read = [(node, stem) for node, stem in deferred
                if node.name in attrs | exempt or node.name in by_module.get(stem, ())]
        if not read:
            return attrs, by_module
        for node, stem in read:
            deferred.remove((node, stem))
            credit(node, stem)


def unread_public_definitions(source, stem, attrs, by_module, exempt):
    """(line, name) of the public module-level defs/classes of the package
    module ``stem`` that no attribute, no bare name credited to ``stem`` and
    no exempt name reads, and of the public methods of its public classes
    that no attribute or exempt name reads."""
    read = attrs | exempt
    out = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        if node.name not in read and node.name not in by_module.get(stem, ()):
            out.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            out += [(m.lineno, f"{node.name}.{m.name}") for m in node.body
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
                    and m.name not in read]
    return sorted(out)


def test_detector_flags_only_unread_public_definitions():
    source = ("from operator import mul\n"
              "def used():\n    return helper()\ndef helper():\n    pass\n"
              "def mul(a, b):\n    pass\ndef imported():\n    pass\n"
              "def exempt():\n    return kept()\ndef dead():\n    pass\n"
              "class Shape:\n    def area(self):\n        pass\n"
              "    def perimeter(self):\n        pass\n    def __repr__(self):\n        pass\n"
              "class _Private:\n    def print_help(self):\n        pass\n"
              "def kept():\n    pass\n"
              "def unread():\n    return only_unread_reads()\n"
              "def only_unread_reads():\n    pass\n")
    # the bare ``mul`` read here is operator's, not m's
    other = ("from operator import mul\nfrom .m import Shape, imported\n"
             "x = mul(Shape().area(), m.used)\n")
    read = surface_reads([(source, "m"), (other, "poly")], {"exempt"})
    assert unread_public_definitions(source, "m", *read, {"exempt"}) == [
        (6, "mul"), (12, "dead"), (17, "Shape.perimeter"), (26, "unread"),
        (28, "only_unread_reads")]


@pytest.fixture(scope="module")
def surface_read():
    init = ast.parse((ROOT / "src" / "quivergrass" / "__init__.py").read_text())
    exported = {elt.value for node in init.body if isinstance(node, ast.Assign)
                and node.targets[0].id == "__all__" for elt in node.value.elts}
    exempt = exported | set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    attrs, by_module = surface_reads(
        ((p.read_text(), p.stem if p.parent.name == "quivergrass" else None)
         for p in SURFACE_READERS), exempt)
    return attrs, by_module, exempt


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_public_definition_only_the_tests_read(path, surface_read):
    assert unread_public_definitions(path.read_text(), path.stem, *surface_read) == []
