"""Every name the package and its modules export resolves."""

import importlib
import pkgutil

import pytest

import dimwitness

MODULES = ["dimwitness",
           *(f"dimwitness.{info.name}" for info in pkgutil.iter_modules(dimwitness.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [attr for attr in exported if not hasattr(module, attr)] == []
