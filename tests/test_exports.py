"""Every name a module exports resolves, so `from qsum import *` cannot fail,
and every name the package re-exports is exported by its own module."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import qsum

MODULES = ["qsum"] + sorted(f"qsum.{m.name}" for m in pkgutil.iter_modules(qsum.__path__))


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_package_names_are_in_their_module_all():
    imports = [node for node in ast.parse(inspect.getsource(qsum)).body
               if isinstance(node, ast.ImportFrom)]
    assert imports
    missing = [
        f"qsum.{node.module}.{alias.name}"
        for node in imports for alias in node.names
        if alias.name not in importlib.import_module(f"qsum.{node.module}").__all__
    ]
    assert missing == []
