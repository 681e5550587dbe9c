"""Static checks on the library source: no unused imports in src/hotmoe.

Pure stdlib `ast`, so it runs wherever the tests run. A name counts as
used when it appears anywhere in the module body, annotations included,
also inside string annotations such as -> "RoutingTrace".
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hotmoe"


def _annotation_names(node: ast.AST) -> set[str]:
    """Names inside the string parts of an annotation; ast.walk sees the rest."""
    return {name.id
            for sub in ast.walk(node)
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
            for name in ast.walk(ast.parse(sub.value, mode="eval"))
            if isinstance(name, ast.Name)}


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    return sorted(f"line {line}: {name}" for name, line in bound.items()
                  if name not in used)


def test_checker_flags_unused_and_reads_annotations():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "from pathlib import Path\n"
        "from typing import Iterator\n"
        "def f(p: 'Path') -> Iterator[int]:\n"
        "    return np.arange(3)\n")
    assert unused_imports(source) == ["line 2: os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
