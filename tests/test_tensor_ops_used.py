"""Every public function of ``fusionmt.tensor`` is called from another
module of the package: an op that only the tests call is dead code (a
stdlib stand-in for a linter's unused-code rule)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fusionmt"


def uncalled(tensor_source: str, other_sources: list[str]) -> list[str]:
    """The public top-level functions of ``tensor_source`` that none of
    ``other_sources`` calls, as ``tensor.name(...)`` through a module alias
    or as ``name(...)`` after ``from .tensor import name``."""
    public = {node.name for node in ast.parse(tensor_source).body
              if isinstance(node, ast.FunctionDef)
              and not node.name.startswith("_")}
    called = set()
    for source in other_sources:
        tree = ast.parse(source)
        modules, names = set(), {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "tensor":
                names.update((a.asname or a.name, a.name) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module is None:
                modules.update(a.asname or a.name for a in node.names
                               if a.name == "tensor")
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                    and f.value.id in modules):
                called.add(f.attr)
            elif isinstance(f, ast.Name) and f.id in names:
                called.add(names[f.id])
    return sorted(public - called)


def test_detects_an_op_no_module_calls():
    tensor = ("def used(a):\n    return a\n"
              "def aliased(a):\n    return a\n"
              "def unused(a):\n    return a\n"
              "def _private(a):\n    return a\n")
    callers = ["from . import tensor as T\nT.used(1)\nT.unused\n",
               "from .tensor import aliased as al\nal(2)\n"]
    assert uncalled(tensor, callers) == ["unused"]


def test_every_tensor_op_has_a_caller_in_the_package():
    others = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))
              if p.name != "tensor.py"]
    assert uncalled((SRC / "tensor.py").read_text(encoding="utf-8"),
                    others) == []
