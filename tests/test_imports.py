"""No module of the package imports a name that it never uses (a stdlib
stand-in for a linter's unused-import rule)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fusionmt"


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` binds by an import but never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - used)


def test_detects_an_unused_import():
    source = ("from __future__ import annotations\nimport os.path\n"
              "import numpy as np\nfrom typing import Optional, Sequence\n"
              "def f(x: Optional[int]) -> None:\n    return np.zeros(x)\n")
    assert unused_imports(source) == ["Sequence", "os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
