import importlib
import pkgutil

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
