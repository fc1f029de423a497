import ast
import importlib
import pathlib
import pkgutil

import pytest

import lurelab

MODULES = sorted(info.name for info in pkgutil.iter_modules(lurelab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_exported_name(name):
    module = importlib.import_module(f"lurelab.{name}")
    namespace = {}
    exec(f"from lurelab.{name} import *", namespace)
    missing = [n for n in module.__all__ if n not in namespace]
    assert not missing, f"lurelab.{name}.__all__ names undefined {missing}"


@pytest.mark.parametrize("path", sorted(pathlib.Path(__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_name_a_test_module_imports_is_used(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names
                            if a.name != "*")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not imported - used, f"{path.name} imports unused {sorted(imported - used)}"
