"""Module layering: which modules may import another module's private names."""

import ast
from pathlib import Path

import liequant

# (importer, imported): the only edges along which a module imports underscore names, the
# matrixcore -> liealg -> su2reps/thermal layering; every other module uses public names only
PRIVATE_EDGES = {("liealg", "matrixcore"), ("thermal", "matrixcore"), ("su2reps", "matrixcore"),
                 ("su2reps", "liealg")}


def private_imports(package: Path) -> set:
    """(importer, imported, name) for each ``from .m import _name`` in the package's modules,
    also inside functions; ``from liequant.m import _name`` counts as the same edge."""
    found = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if node.level == 0:
                if not module.startswith("liequant."):
                    continue
                module = module.removeprefix("liequant.")
            found |= {(path.stem, module, alias.name) for alias in node.names
                      if alias.name.startswith("_")}
    return found


def test_private_names_are_imported_only_along_the_layering():
    package = Path(liequant.__file__).parent
    imports = private_imports(package)
    assert {(importer, imported) for importer, imported, _ in imports} <= PRIVATE_EDGES, \
        sorted(i for i in imports if i[:2] not in PRIVATE_EDGES)
    # the walk sees the edges that exist
    assert ("su2reps", "liealg", "_span_residual") in imports


def test_private_imports_reads_relative_absolute_and_nested_imports(tmp_path):
    (tmp_path / "a.py").write_text("from .b import _x, y\n")
    (tmp_path / "c.py").write_text("def f():\n    from liequant.d import _z\n")
    (tmp_path / "e.py").write_text("from numpy import _w\nfrom . import _v\n")
    assert private_imports(tmp_path) == {("a", "b", "_x"), ("c", "d", "_z"), ("e", "", "_v")}
