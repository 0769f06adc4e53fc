"""Every name a cowsim module exports in __all__ exists in that module."""

import importlib
import pkgutil

import pytest

import cowsim

# __main__ runs the command line when imported
MODULES = [m.name for m in pkgutil.iter_modules(cowsim.__path__) if m.name != "__main__"]


def test_modules_found():
    assert {"alice", "bob", "engine", "eve", "sifting"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"cowsim.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
