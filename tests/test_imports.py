"""Every name a package module imports is used in that module, and every
top-level function, class and UPPER_CASE constant of the package is read by
the package or by the benchmark: deletions tend to leave imports, helpers
and constants behind. A name read only in an annotation, quoted or not,
counts as used."""

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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_every_top_level_definition_is_read():
    read = set().union(*(names_read(p.read_text(encoding="utf-8")) for p in READERS))
    unread = [f"{p.name}: {name}" for p in sorted(SRC.glob("*.py"))
              for name in top_level_definitions(p.read_text(encoding="utf-8"))
              if name not in read]
    assert unread == []


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
