import importlib
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
