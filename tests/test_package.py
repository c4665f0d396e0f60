"""Each public name has one import path: its home module."""

import importlib
import pkgutil
import sys

import pytest

import qrlev

MODULES = sorted(m.name for m in pkgutil.iter_modules(qrlev.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_package_attribute_is_the_submodule(name):
    importlib.import_module(f"qrlev.{name}")
    assert getattr(qrlev, name) is sys.modules[f"qrlev.{name}"]


def test_package_exposes_only_submodules_and_version():
    for name in MODULES:
        importlib.import_module(f"qrlev.{name}")
    public = {n for n in vars(qrlev) if not n.startswith("_")}
    assert public == set(MODULES)
    assert qrlev.__version__ == "0.1.0"
