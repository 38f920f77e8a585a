import ast
import pathlib

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
