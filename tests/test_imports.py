"""Every name a package module imports is used in that module: deletions
tend to leave imports behind. A name read only in an annotation, quoted or
not, counts as used."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "poseinn"


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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_finds_unused_and_accepts_annotation_only_imports():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\nfrom a import B, C, D\n"
              "def f(x: B) -> 'C':\n    return np.zeros(1)\n")
    assert unused_imports(source) == ["D (line 4)", "os (line 2)"]
