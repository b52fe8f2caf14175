"""Every name a package module imports is used in that module, and every
top-level function, class and UPPER_CASE constant of the package, and every
method and property of its classes, is read by the package or by the
benchmark: deletions tend to leave imports, helpers, constants and
accessors behind. A name read only in an annotation, quoted or not,
counts as used. Likewise every defaulted parameter of a package function
or method is passed by some call in the package or the benchmark: a
parameter that only tests pass is surface nothing uses."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "poseinn"
# the benchmark drives the package and patches it by name, so its reads count
READERS = sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports but never reads, each with its line."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        ann = (node.annotation if isinstance(node, (ast.arg, ast.AnnAssign))
               else node.returns if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               else None)
        for c in ast.walk(ann) if ann is not None else ():
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                used |= {n.id for n in ast.walk(ast.parse(c.value, mode="eval"))
                         if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def names_read(source: str) -> set[str]:
    """Identifiers ``source`` reads: loaded names, attributes, and every
    identifier inside a string constant (the benchmark names its patch
    targets as strings), docstrings and other bare strings excepted."""
    tree = ast.parse(source)
    bare = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Expr)}
    read = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            read.add(n.id)
        elif isinstance(n, ast.Attribute):
            read.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and id(n) not in bare:
            read.update(re.findall(r"[A-Za-z_]\w*", n.value))
    return read


def top_level_definitions(source: str) -> list[str]:
    """Top-level functions, classes and UPPER_CASE constants (``A = ...``,
    ``A: int = ...``, ``A, B = ...``), in source order."""
    names = []
    for n in ast.parse(source).body:
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(n.name)
        elif isinstance(n, (ast.Assign, ast.AnnAssign)):
            targets = n.targets if isinstance(n, ast.Assign) else [n.target]
            names += [t.id for target in targets for t in ast.walk(target)
                      if isinstance(t, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", t.id)]
    return names


def method_definitions(source: str) -> list[str]:
    """``Class.name`` for each method and property defined in a class body,
    dunders excepted (the language calls those)."""
    return [f"{c.name}.{f.name}" for c in ast.walk(ast.parse(source))
            if isinstance(c, ast.ClassDef)
            for f in c.body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (f.name.startswith("__") and f.name.endswith("__"))]


def unread_methods(sources: list[str], readers: list[str]) -> list[str]:
    """``Class.name`` for each method or property in ``sources`` whose name
    no source in ``readers`` reads."""
    read = set().union(*(names_read(r) for r in readers))
    return [m for source in sources for m in method_definitions(source)
            if m.split(".")[1] not in read]


def defaulted_parameters(source: str) -> list[tuple[str, str, int | None]]:
    """(callee, parameter, call position) for each defaulted parameter of a
    function or method in ``source``. The callee is the name a call uses, so
    an ``__init__`` goes by its class's name; the position counts the
    arguments a call writes (a method's ``self`` or ``cls`` excepted) and is
    None for a keyword-only parameter."""
    tree = ast.parse(source)
    owner = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
             for f in c.body if isinstance(f, ast.FunctionDef)}
    found = []
    for f in ast.walk(tree):
        if not isinstance(f, ast.FunctionDef):
            continue
        a, cls = f.args, owner.get(id(f))
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in f.decorator_list)
        shift = 1 if cls and not static else 0
        name = cls if cls and f.name == "__init__" else f.name
        pos = a.posonlyargs + a.args
        first = len(pos) - len(a.defaults)
        found += [(name, p.arg, i - shift) for i, p in enumerate(pos) if i >= first]
        found += [(name, p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return found


def arguments_passed(source: str) -> set[tuple[str, int | str]]:
    """(callee, position or keyword) for each argument of each call in
    ``source`` whose callee is a name or an attribute; a ``*args`` argument
    is position "*" and a ``**kwargs`` one keyword "**"."""
    passed = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Call) and isinstance(n.func, (ast.Name, ast.Attribute)):
            name = n.func.id if isinstance(n.func, ast.Name) else n.func.attr
            passed.update((name, "*" if isinstance(a, ast.Starred) else i)
                          for i, a in enumerate(n.args))
            passed.update((name, k.arg or "**") for k in n.keywords)
    return passed


def never_passed(sources: list[str], readers: list[str]) -> list[str]:
    """``callee.parameter`` for each defaulted parameter in ``sources`` that
    no call in ``readers`` passes; a call passes a parameter by its
    position, its keyword, ``*args`` (positional parameters) or ``**kwargs``."""
    passed = set().union(*(arguments_passed(r) for r in readers))
    return [f"{name}.{param}" for source in sources
            for name, param, i in defaulted_parameters(source)
            if not {(name, param), (name, "**")} & passed
            and not (i is not None and {(name, i), (name, "*")} & passed)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_every_top_level_definition_is_read():
    read = set().union(*(names_read(p.read_text(encoding="utf-8")) for p in READERS))
    unread = [f"{p.name}: {name}" for p in sorted(SRC.glob("*.py"))
              for name in top_level_definitions(p.read_text(encoding="utf-8"))
              if name not in read]
    assert unread == []


def test_every_method_and_property_is_read():
    sources = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))]
    assert unread_methods(sources, [p.read_text(encoding="utf-8") for p in READERS]) == []


def test_checker_finds_unused_and_accepts_annotation_only_imports():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\nfrom a import B, C, D\n"
              "def f(x: B) -> 'C':\n    return np.zeros(1)\n")
    assert unused_imports(source) == ["D (line 4)", "os (line 2)"]


def test_read_checker_counts_strings_but_not_docstrings():
    source = ('"""Mentions f."""\n'
              "def f():\n    'Mentions g.'\n    return m.h(PATCH)\n"
              "def g():\n    pass\n"
              "PATCH = ('mod', 'k')\nA, _B = 1, 2\nC: int = 3\nlower = 4\n")
    assert top_level_definitions(source) == ["f", "g", "PATCH", "A", "_B", "C"]
    read = names_read(source)
    assert {"m", "h", "PATCH", "mod", "k"} <= read
    assert not {"f", "g", "Mentions"} & read


def test_method_checker_reports_unread_methods_and_properties():
    source = ("class K:\n"
              "    def __init__(self):\n        self.used()\n"
              "    def used(self):\n        pass\n"
              "    def unread(self):\n        pass\n"
              "    @property\n"
              "    def size(self):\n        return 1\n"
              "def f(k):\n    return k.size\n")
    assert method_definitions(source) == ["K.used", "K.unread", "K.size"]
    assert unread_methods([source], [source]) == ["K.unread"]


def test_every_defaulted_parameter_is_passed():
    sources = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))]
    assert never_passed(sources, [p.read_text(encoding="utf-8") for p in READERS]) == []


def test_parameter_checker_matches_calls_by_position_keyword_and_class():
    source = ("def f(a, b=1, c=2, *, d=3):\n    pass\n"
              "def g(a=0, b=1):\n    pass\n"
              "class K:\n"
              "    def __init__(self, x, y=1, z=2):\n        pass\n"
              "    def m(self, u=1, v=2):\n        pass\n"
              "    @staticmethod\n"
              "    def s(p=1):\n        pass\n")
    assert defaulted_parameters(source) == [
        ("f", "b", 1), ("f", "c", 2), ("f", "d", None), ("g", "a", 0), ("g", "b", 1),
        ("K", "y", 1), ("K", "z", 2), ("m", "u", 0), ("m", "v", 1), ("s", "p", 0)]
    calls = "f(0, 1, d=4)\nmod.g(*xs)\nK(0, z=5)\nk.m(**kw)\nmod.s()\n"
    assert never_passed([source], [calls]) == ["f.c", "K.y", "s.p"]
