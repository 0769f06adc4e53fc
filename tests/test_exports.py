"""Every name a cowsim module exports in __all__ exists in that module, and
the package, its benchmark or its demos use it: no API serves only its tests."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import cowsim

# __main__ runs the command line when imported
MODULES = [m.name for m in pkgutil.iter_modules(cowsim.__path__) if m.name != "__main__"]

ROOT = Path(__file__).resolve().parents[1]
# __init__ only re-exports, so an import there is no use
CALLERS = [
    path
    for folder in ("src/cowsim", "perfbench", "demos")
    for path in sorted((ROOT / folder).glob("*.py"))
    if path.name != "__init__.py"
]


def _loaded_names() -> set[str]:
    """Every name the callers load, as a name, an attribute or an import: strings
    such as docstrings or the tracer's layer lists do not count."""
    names = set()
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_modules_found():
    assert {"alice", "bob", "engine", "eve", "sifting"} <= set(MODULES)


def test_callers_found():
    assert {"engine.py", "run.py", "attack_walkthrough.py"} <= {path.name for path in CALLERS}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"cowsim.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_all_names_used_outside_tests(name):
    module = importlib.import_module(f"cowsim.{name}")
    unused = [attr for attr in module.__all__ if attr not in _loaded_names()]
    assert unused == []
