import ast
import pathlib
import re

import pytest

import scythe

PACKAGE = pathlib.Path(scythe.__file__).parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names a module binds by import but never reads, sorted."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            bound |= {a.asname or a.name for a in node.names if a.name != "*"}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(bound - read)


def test_unused_imports_are_found():
    assert unused_imports("import os.path\nfrom a import b, c as d\n"
                          "from . import e\nprint(os, d)\n") == ["b", "e"]


@pytest.mark.parametrize("name", MODULES)
def test_module_reads_every_name_it_imports(name):
    assert unused_imports((PACKAGE / name).read_text()) == []


# the parameters kept for callers that pass them, which select nothing
UNREAD_ALLOWED = [
    ("nerve.py", "cohomology_via_cech", "workers"),
    ("nerve.py", "cohomology_via_leray", "workers"),
    ("nerve.py", "parallel_stalks", "workers"),
]


def unread_parameters(source):
    """(function, parameter) for each parameter of a function or lambda
    that its body never reads, sorted; a method's receiver is not a
    parameter the caller sets, so it is not counted."""
    tree = ast.parse(source)
    receivers = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for fn in cls.body:
                if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and fn.args.args and not any(
                            isinstance(d, ast.Name) and d.id == "staticmethod"
                            for d in fn.decorator_list)):
                    receivers.add(fn.args.args[0])
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)):
            continue
        a = fn.args
        params = a.posonlyargs + a.args + a.kwonlyargs
        params += [p for p in (a.vararg, a.kwarg) if p is not None]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {node.id for stmt in body for node in ast.walk(stmt)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        name = getattr(fn, "name", "<lambda>")
        out += [(name, p.arg) for p in params
                if p not in receivers and p.arg not in read]
    return sorted(out)


def test_unread_parameters_are_found():
    source = ("class A:\n"
              "    def m(self, x):\n        return 1\n"
              "    @staticmethod\n    def s(y):\n        return 2\n"
              "def f(a, *b, c, **d):\n    return lambda e: a + c\n"
              "def g(h):\n    def inner():\n        return h\n    return inner\n")
    assert unread_parameters(source) == [
        ("<lambda>", "e"), ("f", "b"), ("f", "d"), ("m", "x"), ("s", "y")]


@pytest.mark.parametrize("name", MODULES)
def test_module_reads_every_parameter(name):
    found = unread_parameters((PACKAGE / name).read_text())
    allowed = [(fn, p) for module, fn, p in UNREAD_ALLOWED if module == name]
    assert found == allowed


# the private names one module of the package reads from another
PRIVATE_IMPORTS_ALLOWED = [
    ("cli.py", "serialize", "_stream"),
    ("cohomology.py", "matrix", "_built"),
    ("cw.py", "poset", "_graded"),
    ("morse.py", "matrix", "_built"),
    ("nerve.py", "morse", "_sweep"),
    ("nerve.py", "parametrization", "_built"),
    ("nerve.py", "sheaf", "_built"),
    ("serialize.py", "cw", "_signed"),
    ("serialize.py", "matrix", "_built"),
    ("serialize.py", "parametrization", "_built"),
    ("serialize.py", "sheaf", "_built"),
    ("sheaf.py", "parametrization", "_built"),
]


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def private_imports(source):
    """(module, name) for each private name _x that source reads from a
    sibling module, by `from .module import _x` or as module._x of a
    module bound by `from . import module`, sorted and once each."""
    tree = ast.parse(source)
    modules, out = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for a in node.names:
                if node.module is None:
                    modules[a.asname or a.name] = a.name
                elif _private(a.name):
                    out.add((node.module, a.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            out.add((modules[node.value.id], node.attr))
    return sorted(out)


def test_private_imports_are_found():
    source = ("from . import a, b as c\n"
              "from .d import _e, f, __version__\n"
              "from os import _exit\n"
              "a._g(c._h, c.i, a.__name__, x._j)\n")
    assert private_imports(source) == [
        ("a", "_g"), ("b", "_h"), ("d", "_e")]


@pytest.mark.parametrize("name", MODULES)
def test_module_reads_only_allowed_private_names(name):
    found = private_imports((PACKAGE / name).read_text())
    allowed = [(module, private) for importer, module, private
               in PRIVATE_IMPORTS_ALLOWED if importer == name]
    assert found == allowed


def builds_fractions(source):
    """Whether source imports fractions or calls a name Fraction."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(a.name.split(".")[0] == "fractions" for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if node.module == "fractions":
                return True
        elif isinstance(node, ast.Call):
            if getattr(node.func, "id", getattr(node.func, "attr", None)) \
                    == "Fraction":
                return True
    return False


def test_fraction_builders_are_found():
    for source in ("import fractions\n", "from fractions import Fraction as F\n",
                   "x = Fraction(1, 2)\n", "x = q.Fraction(3)\n"):
        assert builds_fractions(source)
    assert not builds_fractions("x = isinstance(v, Fraction)\ny = Rational(1)\n")


def test_only_the_field_module_builds_fractions():
    # field.py owns the canonical type of a rational, so it alone makes one
    assert [p.name for p in sorted(PACKAGE.glob("*.py"))
            if builds_fractions(p.read_text())] == ["field.py"]


ROOT = PACKAGE.parent.parent
# where a name may be read: the library, its tests, the benchmark, scripts
READERS = sorted(p for d in ("src", "tests", "perfbench", "scripts")
                 for p in (ROOT / d).rglob("*.py"))


def _names_read(tree, reexport):
    """Each name a tree reads, as a variable, an attribute or an import; a
    re-export module's imports read nothing."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom) and not reexport:
            yield from (alias.name for alias in node.names)


def unnamed_definitions(defining, sources):
    """(file, name) for each function, class or method defined in a file
    of defining that no file of sources ({file: text}) names outside that
    definition, sorted.  Dunder names are exempt, and a file called
    __init__.py re-exports: its imports name nothing."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = {}
    for name, tree in trees.items():
        for word in _names_read(tree, name.endswith("__init__.py")):
            read[word] = read.get(word, 0) + 1
    out = []
    for name in defining:
        for node in ast.walk(trees[name]):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            word = node.name
            if word.startswith("__") and word.endswith("__"):
                continue
            inside = sum(w == word for w in _names_read(node, False))
            if read.get(word, 0) == inside:
                out.append((name, word))
    return sorted(out)


def test_unnamed_definitions_are_found():
    lib = ("class A:\n"
           "    def used(self):\n        return 1\n"
           "    def spin(self):\n        return self.spin()\n"
           "    def __repr__(self):\n        return 'A'\n"
           "def helper():\n    return helper()\n"
           "def caller():\n    return A().used()\n"
           "def imported():\n    pass\n")
    sources = {"lib.py": lib,
               "__init__.py": "from .lib import A, helper, caller\n",
               "test_lib.py": "from lib import imported\n"
                              "def test():\n    caller()\n"}
    assert unnamed_definitions(["lib.py"], sources) == [
        ("lib.py", "helper"), ("lib.py", "spin")]


def test_every_definition_is_named_outside_itself():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in READERS}
    defining = ["src/scythe/" + name for name in MODULES]
    assert unnamed_definitions(defining, sources) == []


def readme_api():
    """The names the README's API section lists, in order: every
    backquoted name on its bullet lines."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## API\n", 1)[1].split("\n## ", 1)[0]
    bullets = section[section.index("\n- "):]
    return re.findall(r"`([A-Za-z_]\w*)`", bullets)


def imported_from_scythe(source):
    """The names a module imports with `from scythe import ...`."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "scythe"
            and not node.level for alias in node.names}


def test_readme_lists_the_package_exports():
    listed = readme_api()
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(scythe.__all__)
    assert len(scythe.__all__) == len(set(scythe.__all__))


def test_benchmark_and_scripts_import_only_exported_names():
    assert imported_from_scythe("from scythe import a, b\n"
                                "from scythe.cli import c\n"
                                "from .scythe import d\n") == {"a", "b"}
    used = set()
    for path in READERS:
        if path.parent.name in ("perfbench", "scripts"):
            used |= imported_from_scythe(path.read_text())
    assert used and used <= set(scythe.__all__)
