import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import timefreq

MODULES = sorted(m.name for m in pkgutil.iter_modules(timefreq.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a stale __all__ entry breaks `from timefreq.<module> import *`
    module = importlib.import_module(f"timefreq.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"timefreq.{name}.__all__ names missing attributes: {missing}"
    exec(f"from timefreq.{name} import *", {})


def test_package_exports_listed_in_module_all():
    # every name the package imports from a module with an __all__ is one of that module's exports
    tree = ast.parse(Path(timefreq.__file__).read_text())
    unlisted = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"timefreq.{node.module}")
            if hasattr(module, "__all__"):
                unlisted += [f"{node.module}.{a.name}" for a in node.names if a.name not in module.__all__]
    assert not unlisted, f"exported by timefreq but missing from their module's __all__: {unlisted}"
