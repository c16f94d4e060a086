"""Every name a medsum module lists in `__all__` resolves, so a deleted or
renamed definition cannot linger in a module's public list."""

import importlib
import pkgutil

import pytest

import medsum

MODULES = ["medsum", *sorted(m.name for m in pkgutil.iter_modules(medsum.__path__, "medsum."))]


def test_every_module_is_listed():
    assert {"medsum.backend", "medsum.chain", "medsum.cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
