"""Every public function of ``fusionmt.tensor`` is called from another
module of the package, and every public function and class of the package
is read somewhere outside its own definition (by the package or by the
benchmark scripts): a name that only the tests use is dead code (a stdlib
stand-in for a linter's unused-code rule)."""

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


BENCHMARKS = SRC.parents[1] / "benchmarks"

# public names the package keeps although no code reads them, with the reason
UNREFERENCED_BY_DESIGN = {
    # the toy task's metric: the acceptance criteria read it
    "data.article_rule_violations",
}


def unreferenced(modules: dict[str, str], others: list[str]) -> list[str]:
    """``"module.name"`` for each public top-level function or class of
    ``modules`` (module name -> source) that no code reads outside its own
    definition: not as a name, not as an attribute, and not inside a dotted
    string such as the ``"module.name"`` targets a tracer wraps."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    public = {(name, node.name): node for name, tree in trees.items()
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    own = {id(sub): key for key, node in public.items()
           for sub in ast.walk(node)}  # nodes inside a definition
    read = set()
    for tree in [*trees.values(), *map(ast.parse, others)]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names = [node.id]
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                names = [node.attr]
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str) and "." in node.value):
                names = node.value.split(".")
            else:
                continue
            inside = own.get(id(node))
            read.update(n for n in names if inside is None or inside[1] != n)
    return sorted(f"{module}.{name}" for module, name in public
                  if name not in read)


def test_detects_a_name_no_code_reads():
    modules = {
        "a": "def used(x):\n    return x\n"
             "def recursive(x):\n    return recursive(x)\n"
             "class Traced:\n    pass\n"
             "class Unused:\n    pass\n"
             "def _private(x):\n    return x\n",
        "b": "from .a import used\nused(1)\n",
    }
    assert unreferenced(modules, ['TARGETS = ["a.Traced"]\n']) == [
        "a.Unused", "a.recursive"]


def test_every_public_name_is_read_outside_its_definition():
    modules = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(SRC.glob("*.py"))}
    others = [p.read_text(encoding="utf-8")
              for p in sorted(BENCHMARKS.glob("*.py"))]
    assert unreferenced(modules, others) == sorted(UNREFERENCED_BY_DESIGN)
