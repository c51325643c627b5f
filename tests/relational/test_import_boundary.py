"""The relational engine stands alone: it imports only the standard
library and its own modules.

This boundary is why spans and budgets reach the engine duck-typed, with
the no-op ``NO_TRACE`` / ``NO_BUDGET`` defined inside the package: an
import of ``repro.core`` (or any other layer above) from here would turn
the substrate into a client of the store built on it.
"""

import ast
import pathlib
import sys

import pytest

import repro.relational

PACKAGE_DIR = pathlib.Path(repro.relational.__file__).parent
PACKAGE = "repro.relational"
MODULES = sorted(PACKAGE_DIR.glob("*.py"))


def _imported_modules(tree: ast.Module) -> list[tuple[int, str]]:
    """Every (line, absolute module name) an import statement names;
    relative imports are resolved against the package."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                found.append((node.lineno, node.module or ""))
                continue
            base = PACKAGE.split(".")
            base = base[: len(base) - (node.level - 1)]
            if node.module:
                base.append(node.module)
            found.append((node.lineno, ".".join(base)))
    return found


def _allowed(module: str) -> bool:
    top = module.split(".")[0]
    return (
        module == PACKAGE
        or module.startswith(PACKAGE + ".")
        or top in sys.stdlib_module_names
    )


def test_package_has_modules():
    assert len(MODULES) > 5


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_imports_only_stdlib_and_own_package(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    outside = [
        f"{path.name}:{line} imports {module}"
        for line, module in _imported_modules(tree)
        if not _allowed(module)
    ]
    assert not outside, "relational layer must not import " + "; ".join(outside)
