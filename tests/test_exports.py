"""Every name a cowsim module exports in __all__ exists in that module, and
the package, its benchmark or its demos use it: no API serves only its tests.
Outside alice.py no module shifts, masks or offsets a slot pattern or a
train's packed bins by hand, no module draws through a numpy Generator's
distribution methods, and nothing calls numpy past the floor pyproject.toml
declares."""

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
# the names a train or a slot-pattern array goes by in the stages
PATTERN_NAMES = {"train", "mask", "sent"}
# the constants that pick or move a bin, a slot's two bits or a data bit in
# a packed byte: bit 0 or 1, a pattern's 3, a bin's place within its byte 7
ENCODING_CONSTANTS = {1, 2, 3, 7}
# Generator methods whose streams numpy does not promise to keep (NEP 19);
# the package draws every number with bit_generator.random_raw instead
DISTRIBUTIONS = {"random", "standard_exponential", "geometric", "integers"}
# every numpy name and bit-generator method the package uses, each checked
# against numpy 1.24, the floor pyproject.toml declares
NUMPY_FLOOR_NAMES = {
    "any", "arange", "argmin", "array", "asarray", "ascontiguousarray", "bitwise_and", "concatenate",
    "copyto", "count_nonzero", "cumsum", "diff", "empty", "empty_like", "exp", "flatnonzero",
    "float64", "floor", "floor_divide", "frombuffer", "generic", "int64", "invert", "left_shift",
    "log", "mean", "minimum", "multiply", "ndarray", "random.Generator", "random.SeedSequence",
    "random.default_rng", "right_shift", "searchsorted", "subtract", "take", "uint32", "uint64",
    "uint8", "unpackbits", "zeros",
    "bit_generator.advance", "bit_generator.random_raw",
}


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
    """node is a train or a slot-pattern array by name, a train's bins, or a
    subscript of either."""
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute) and node.attr == "bins":
        node = node.value
    return isinstance(node, ast.Name) and node.id in PATTERN_NAMES


def _encoding_sites(path: Path) -> list[str]:
    """file:line of each >>, <<, & or + with the constant 1, 2, 3 or 7 applied
    to a train, its bins or a slot pattern in path, in place or not."""
    sites = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.BinOp):
            operands = (node.left, node.right)
        elif isinstance(node, ast.AugAssign):
            operands = (node.target, node.value)
        else:
            continue
        constant = any(isinstance(x, ast.Constant) and x.value in ENCODING_CONSTANTS for x in operands)
        ops = (ast.RShift, ast.LShift, ast.BitAnd, ast.Add)
        if constant and isinstance(node.op, ops) and any(map(_is_pattern, operands)):
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
    # alice's _data_slots, _pattern, _data_bit and _bin_level say what a train
    # holds; position arithmetic such as pos >> 1 or 2 * train.n - 1 passes
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


def _numpy_uses(path: Path) -> set[str]:
    """Every np. attribute path uses, dotted past np (such as random.default_rng),
    and every method it calls on a bit generator, as bit_generator.<method>: on
    rng.bit_generator, or on a name bound to it."""
    tree = _tree(path)
    bit_generators = {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "bit_generator"
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    uses, inner = set(), set()
    for node in ast.walk(tree):  # outer attributes first, so a chain counts whole
        if not isinstance(node, ast.Attribute) or id(node) in inner:
            continue
        chain, root = [], node
        while isinstance(root, ast.Attribute):
            chain.append(root.attr)
            inner.add(id(root))
            root = root.value
        chain.reverse()
        if isinstance(root, ast.Name) and root.id == "np":
            uses.add(".".join(chain))
        elif isinstance(root, ast.Name) and root.id in bit_generators:
            uses.add(f"bit_generator.{chain[0]}")
        elif "bit_generator" in chain[:-1]:
            uses.add(f"bit_generator.{chain[chain.index('bit_generator') + 1]}")
    return uses


def test_numpy_floor():
    # numpy.bitwise_count came with numpy 2.0, past the numpy>=1.24 that
    # pyproject.toml declares, so it is not listed; the package counts bits without it
    sources = sorted((ROOT / "src/cowsim").glob("*.py"))
    unlisted = {f"{path.name}: {use}" for path in sources for use in _numpy_uses(path) - NUMPY_FLOOR_NAMES}
    assert not unlisted, (
        f"{sorted(unlisted)} not in NUMPY_FLOOR_NAMES: check that the oldest numpy "
        "pyproject.toml declares has them, and add them to the list or raise the floor"
    )


def test_no_python_integer_pass():
    # a pass over the whole train through one Python integer costs a copy in,
    # a copy out and a full-length big-integer operation per step; the
    # package keeps such passes on numpy words
    sources = sorted((ROOT / "src/cowsim").glob("*.py"))
    found = [path.name for path in sources if "int.from_bytes" in path.read_text() or ".to_bytes(" in path.read_text()]
    assert found == []
