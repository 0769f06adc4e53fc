"""Every name a cowsim module exports in __all__ exists in that module, and
the package, its benchmark or its demos use it: no API serves only its tests.
Outside alice.py no module shifts, masks or offsets a slot pattern by hand,
and no module draws through a numpy Generator's distribution methods."""

import ast
import functools
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
# every package module but alice.py, the home of the slot encoding
ENCODING_USERS = [path for path in sorted((ROOT / "src/cowsim").glob("*.py")) if path.name != "alice.py"]
# the names a slot-pattern array goes by in the stages
PATTERN_NAMES = {"train", "mask", "sent"}
# Generator methods whose streams numpy does not promise to keep (NEP 19);
# the package draws every number with bit_generator.random_raw instead
DISTRIBUTIONS = {"random", "standard_exponential", "geometric", "integers"}


@functools.cache
def _tree(path: Path) -> ast.Module:
    """path parsed, once per session."""
    return ast.parse(path.read_text(), str(path))


@functools.cache
def _loaded_names() -> frozenset[str]:
    """Every name the callers load, as a name, an attribute or an import: strings
    such as docstrings or the tracer's layer lists do not count."""
    names = set()
    for path in CALLERS:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return frozenset(names)


def _is_pattern(node: ast.expr) -> bool:
    """node is a slot-pattern array by name, or a subscript of one."""
    if isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Name) and node.id in PATTERN_NAMES


def _encoding_sites(path: Path) -> list[str]:
    """file:line of each >>, & or + with the constant 1 applied to a slot
    pattern in path, in place or not."""
    sites = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.BinOp):
            operands = (node.left, node.right)
        elif isinstance(node, ast.AugAssign):
            operands = (node.target, node.value)
        else:
            continue
        one = any(isinstance(x, ast.Constant) and x.value == 1 for x in operands)
        if one and isinstance(node.op, (ast.RShift, ast.BitAnd, ast.Add)) and any(map(_is_pattern, operands)):
            sites.append(f"{path.name}:{node.lineno}")
    return sites


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


def test_slot_encoding_only_in_alice():
    # alice's _as_data_slots, _data_bit and _bin_level say what a pattern
    # holds; position arithmetic such as pos >> 1 is no pattern and passes
    assert {"engine.py", "eve.py", "sifting.py", "bob.py"} <= {path.name for path in ENCODING_USERS}
    assert [site for path in ENCODING_USERS for site in _encoding_sites(path)] == []


def test_draws_only_raw_words():
    # a call such as rng.random(n) or rng.geometric(p, n), on any object
    sites = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src/cowsim").glob("*.py"))
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in DISTRIBUTIONS
    ]
    assert sites == []
