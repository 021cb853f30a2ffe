"""The package modules import each other along one chain of layers.

``words`` -> {``geometry``, ``bijections``, ``series``} -> ``oracle`` ->
``verify`` -> ``cli``: a module may import only modules of a lower layer,
so modules of one layer never import each other.  ``reference`` (the
published tables) shares the bottom layer with ``words`` and so imports
nothing from the package.  ``oracle`` checks the series kernel and the
closed forms, so of the modules below it, it imports only ``words`` and,
from ``geometry``, only the ``PickReport`` type.  Imports are read from the
source with ``ast``, so nothing is executed.
"""

import ast
from pathlib import Path

import pytest

import fibpoly

PACKAGE = Path(fibpoly.__file__).resolve().parent

LAYER = {
    "reference": 0,
    "words": 0,
    "geometry": 1,
    "bijections": 1,
    "series": 1,
    "oracle": 2,
    "verify": 3,
    "cli": 4,
    "__main__": 5,
    "__init__": 5,
}


def package_imports(path: Path) -> set[str]:
    """Names of the fibpoly modules that the module at ``path`` imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module and node.module.startswith("fibpoly."):
                found.add(node.module.split(".")[1])
            elif node.level == 0 and node.module == "fibpoly":
                found.update(alias.name for alias in node.names)
            elif node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("fibpoly."))
    return found


def test_every_module_has_a_layer():
    assert sorted(path.stem for path in PACKAGE.glob("*.py")) == sorted(LAYER)


@pytest.mark.parametrize("module", sorted(LAYER))
def test_imports_go_down_the_layers(module):
    imported = package_imports(PACKAGE / f"{module}.py")
    assert imported <= set(LAYER), imported
    upward = sorted(name for name in imported if LAYER[name] >= LAYER[module])
    assert upward == [], f"{module} imports {upward} from its own layer or above"


def test_oracle_does_not_import_the_series_kernel():
    assert package_imports(PACKAGE / "oracle.py") == {"words", "geometry"}


def names_imported_from(path: Path, module: str) -> set[str]:
    """Names that the module at ``path`` binds from the fibpoly module ``module``.

    An import of the module itself, in any form, adds the module's own name.
    """
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if (node.level, node.module) in ((1, module), (0, f"fibpoly.{module}")):
                found.update(alias.name for alias in node.names)
            elif (node.level, node.module) in ((1, None), (0, "fibpoly")):
                found.update(alias.name for alias in node.names if alias.name == module)
        elif isinstance(node, ast.Import):
            found.update(module for alias in node.names
                         if alias.name == f"fibpoly.{module}")
    return found


def test_oracle_takes_only_the_report_type_from_geometry():
    assert names_imported_from(PACKAGE / "oracle.py", "geometry") == {"PickReport"}
