import importlib
import pkgutil

import pytest

import tractrix

MODULES = ["tractrix"] + [f"tractrix.{info.name}"
                          for info in pkgutil.iter_modules(tractrix.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    # a name left in __all__ after its definition goes breaks
    # `from <module> import *`
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert not missing
