import importlib
import pkgutil

import pytest

import dualprox

MODULES = [f"dualprox.{info.name}" for info in pkgutil.iter_modules(dualprox.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
