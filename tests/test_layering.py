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


_WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_APPEND", "O_TRUNC"}


def _opens_for_writing(call) -> bool:
    """call is open(...) with a mode that can write, or os.open(...) with a
    write flag; a mode that is not a literal counts as writing."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        mode = (call.args[1:2] or [k.value for k in call.keywords
                                   if k.arg == "mode"] or [ast.Constant("r")])
        return not (isinstance(mode[0], ast.Constant)
                    and set(mode[0].value) <= set("rbt"))
    return (isinstance(func, ast.Attribute) and func.attr == "open"
            and isinstance(func.value, ast.Name) and func.value.id == "os"
            and any(isinstance(node, ast.Attribute)
                    and node.attr in _WRITE_FLAGS
                    for arg in call.args[1:] for node in ast.walk(arg)))


def _writers(node, where):
    """The function of each call under node that opens for writing; where
    names the function that node sits in."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and _opens_for_writing(child):
            yield where
        yield from _writers(child, child.name if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where)


def test_only_cli_output_tensor_opens_a_file_for_writing():
    """cli._output_tensor rewrites --out in place without O_TRUNC; a
    second writer could bring back the truncating reopen."""
    writers = {(name, where) for name, tree in MODULES.items()
               for where in _writers(tree, "<module>")}
    assert writers == {("cli", "_output_tensor")}
