"""Every name a module exports resolves, so `from qsum import *` cannot fail,
and the package re-exports exactly its modules' names."""

import importlib
import pkgutil

import pytest

import qsum
from qsum import boolfn, bounds, closedform, simulator

MODULES = ["qsum"] + sorted(f"qsum.{m.name}" for m in pkgutil.iter_modules(qsum.__path__))


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_package_names_are_in_their_module_all():
    modules = (boolfn, bounds, closedform, simulator)
    assert set(qsum.__all__) == {name for m in modules for name in m.__all__} | {"__version__"}
