"""Import layering of the package, read from its source with ast."""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mmtensor"
MODULES = {p.stem: ast.parse(p.read_text(), str(p))
           for p in sorted(SRC.glob("*.py"))}


def _imports(tree) -> set[str]:
    """The package modules that tree imports anywhere, function bodies
    included; "__init__" stands for the package itself."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            out.update([node.module] if node.module else
                       [a.name if a.name in MODULES else "__init__"
                        for a in node.names])
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for name in ([node.module] if isinstance(node, ast.ImportFrom)
                         else [a.name for a in node.names]):
                package, _, module = name.partition(".")
                if package == "mmtensor":
                    out.add(module or "__init__")
    return out


GRAPH = {name: _imports(tree) for name, tree in MODULES.items()}


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_import_inside_a_function(name):
    late = [f"{name}.py:{inner.lineno}"
            for node in ast.walk(MODULES[name])
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for inner in ast.walk(node)
            if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert late == []


def test_import_graph_is_acyclic():
    assert "tensor" in GRAPH["transforms"]
    try:
        tuple(TopologicalSorter(GRAPH).static_order())
    except CycleError as exc:
        pytest.fail(f"import cycle {' -> '.join(exc.args[1])}")


def test_tensorfile_does_not_import_constructions():
    assert "constructions" not in GRAPH["tensorfile"]


def _names(module) -> set[str]:
    """The names that module imports or reads."""
    tree = MODULES[module]
    return ({a.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for a in node.names}
            | {node.id for node in ast.walk(tree)
               if isinstance(node, ast.Name)})


def test_transforms_takes_the_brent_check_from_tensor():
    names = _names("transforms")
    assert "brent_failures" in names
    assert not names & {"expansion", "monomial_key"}


def test_transforms_classes_its_cuts_through_the_tensor_classifier():
    names = _names("transforms")
    assert "classifier" in names
    assert "flat_projective_key" not in names


def test_no_module_flattens_matrix_num():
    """Matrix.num is the row-major ints already, so (m.den, m.num) is the
    flat factor: no module chains a num's rows together."""
    flattens = [f"{name}.py:{node.lineno}"
                for name, tree in MODULES.items() for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "from_iterable"
                and any(isinstance(arg, ast.Attribute) and arg.attr == "num"
                        for arg in node.args)]
    assert flattens == []


def test_no_module_reads_the_host_byte_order():
    """Kronecker lanes are read as little-endian bytes on every host, so
    no module asks which byte order the host has."""
    reads = [f"{name}.py:{node.lineno}"
             for name, tree in MODULES.items() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "byteorder"
             or isinstance(node, ast.ImportFrom) and node.module == "sys"
             and any(a.name == "byteorder" for a in node.names)]
    assert reads == []
