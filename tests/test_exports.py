"""Every name the package and its modules export resolves under import *."""

import importlib
import pkgutil

import pytest

import ewagg

MODULES = ["ewagg"] + [f"ewagg.{info.name}" for info in pkgutil.iter_modules(ewagg.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_star_import_binds_every_exported_name(module):
    namespace: dict = {}
    # A name in __all__ that the module no longer defines raises AttributeError here.
    exec(f"from {module} import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(importlib.import_module(module).__all__)
