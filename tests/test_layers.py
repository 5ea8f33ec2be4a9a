"""The package modules import one another only downwards, read from their source with ``ast``.

The order is numerics -> liealg -> adjoint_tensor -> yangian_action ->
rmatrix -> spinchain -> cli: a module imports only modules before it.
``jsonio`` imports no package module, ``cli`` and ``__init__`` sit on top
(``cli`` reads only ``__version__`` from the package), and no package import
sits inside a function, where it would hide a cycle until the call.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "adjrmat"
ORDER = ["numerics", "liealg", "adjoint_tensor", "yangian_action", "rmatrix", "spinchain", "cli"]
MODULES = ORDER + ["jsonio", "__init__"]


def _package_imports(name):
    """(imported module, imported names, inside a function) for every package import of ``name``.

    A ``from . import x`` names module x when x is a module of the package,
    and otherwise an attribute of ``__init__``.
    """
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    found = []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            inner = in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            if isinstance(child, ast.ImportFrom):
                parts = (child.module or "").split(".")
                if child.level:
                    module = parts[0] if child.module else None
                elif parts[0] == "adjrmat":
                    module = parts[1] if len(parts) > 1 else None
                else:
                    module = "external"
                if module is None:  # from the package itself
                    for alias in child.names:
                        target = alias.name if alias.name in MODULES else "__init__"
                        found.append((target, [alias.name], inner))
                elif module != "external":
                    found.append((module, [a.name for a in child.names], inner))
            elif isinstance(child, ast.Import):
                for alias in child.names:
                    parts = alias.name.split(".")
                    if parts[0] == "adjrmat":
                        found.append((parts[1] if len(parts) > 1 else "__init__", [], inner))
            visit(child, inner)

    visit(tree, False)
    return found


def test_every_module_has_a_place():
    assert sorted(p.stem for p in PACKAGE.glob("*.py")) == sorted(MODULES)


@pytest.mark.parametrize("name", ORDER)
def test_imports_go_down_the_order(name):
    allowed = set(ORDER[: ORDER.index(name)]) | {"jsonio"}
    for module, names, _ in _package_imports(name):
        if name == "cli" and module == "__init__":
            assert names == ["__version__"]
        else:
            assert module in allowed, f"{name} imports {module}"


def test_jsonio_imports_no_package_module():
    assert _package_imports("jsonio") == []


def test_init_imports_no_cli():
    assert "cli" not in {module for module, _, _ in _package_imports("__init__")}


@pytest.mark.parametrize("name", MODULES)
def test_no_package_import_inside_a_function(name):
    assert [module for module, _, inner in _package_imports(name) if inner] == []
