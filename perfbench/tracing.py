"""Per-layer spans around cowsim's public functions, installed from outside.

The tracer replaces each listed function by a wrapper, wherever the package
binds it (the defining module, re-exports in ``cowsim`` and names imported
into sibling modules such as ``cowsim.engine.run_sifting``).  Because the
engine calls its stages through those module attributes, the unmodified
``engine.run`` and ``engine.sweep_mu`` then produce nested spans, and a
span's self time is its duration minus the time its child spans cover.

A listed function that no longer exists is reported as absent, so the
benchmark keeps working when a refactor removes or moves a stage.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import tracemalloc
from time import perf_counter

import numpy as np

PACKAGE = "cowsim"

# layer module -> public functions to wrap; "Class.method" wraps a method
LAYERS = {
    "alice": (
        "generate_raw_bits",
        "insert_decoys",
        "encode",
        "coherent_boundaries",
        "announce_coherence_checks",
    ),
    "eve": ("generate_mask", "apply_and_mask", "observe_transcript", "reconstruct_key"),
    "optics": ("click_probability",),
    "bob": ("receive", "decode", "monitor_outcome"),
    "sifting": ("run_sifting", "Transcript.to_jsonl", "Transcript.from_jsonl"),
    "engine": ("run", "sweep_mu"),
}


def span_names() -> list[str]:
    """Every span name, e.g. "alice.insert_decoys" or "sifting.to_jsonl"."""
    return [f"{layer}.{attr.rpartition('.')[2]}" for layer, attrs in LAYERS.items() for attr in attrs]


def out_bytes(value, depth: int = 0) -> int:
    """Computed size of the arrays and text a call returned.

    Counts ndarray ``nbytes`` and str/bytes length, found directly, inside
    tuples, or in dataclass fields (nested up to three levels).  Python lists
    and scalars count zero: this is the size of the array payload, not a
    measurement of memory traffic.
    """
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (str, bytes)):
        return len(value)
    if depth >= 3:
        return 0
    if isinstance(value, tuple):
        return sum(out_bytes(v, depth + 1) for v in value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return sum(out_bytes(getattr(value, f.name), depth + 1) for f in dataclasses.fields(value))
    return 0


@dataclasses.dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    out_bytes: int = 0
    peak_bytes: int = 0


@dataclasses.dataclass
class Spans:
    """Per-span totals of one pass.

    root_s is the time covered by outermost spans, bookkeeping included;
    summed over spans, self_s plus bookkeeping_s equals root_s.
    """

    stats: dict[str, SpanStats]
    bins_passed: int
    bookkeeping_s: float
    root_s: float


@dataclasses.dataclass
class _Frame:
    child_s: float = 0.0
    mem_start: int = 0
    mem_seen: int = 0


class Tracer:
    """Spans recorded in memory while ``active`` is set; see ``install``.

    With ``memory`` set, tracemalloc must be running and each span also
    records its peak of traced memory above what was allocated at entry.
    """

    def __init__(self):
        self.active = False
        self.memory = False
        self.absent: list[str] = []
        self.bins_passed_missing = False
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[_Frame] = []
        self.reset()

    def reset(self) -> None:
        """Start a fresh set of per-span totals."""
        self.stats = {name: SpanStats() for name in span_names()}
        self.bins_passed = 0
        self.bookkeeping_s = 0.0
        self.root_s = 0.0

    def take(self) -> "Spans":
        """The totals recorded since the last reset, then reset."""
        spans = Spans(self.stats, self.bins_passed, self.bookkeeping_s, self.root_s)
        self.reset()
        return spans

    @property
    def wrapped(self) -> int:
        return len(self.stats) - len(self.absent)

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for layer, attrs in LAYERS.items():
            try:
                module = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                module = None
            for attr in attrs:
                name = f"{layer}.{attr.rpartition('.')[2]}"
                if not self._patch(module, attr, name, modules):
                    self.absent.append(name)

    def _patch(self, module, attr: str, name: str, modules) -> bool:
        owner_name, _, leaf = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            raw = vars(owner).get(leaf) if isinstance(owner, type) else None
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self._wrap(name, raw.__func__))
            elif callable(raw):
                new = self._wrap(name, raw)
            else:
                return False
            setattr(owner, leaf, new)
            self._patches.append((owner, leaf, raw))
            return True
        original = getattr(module, leaf, None)
        if not callable(original):
            return False
        new = self._wrap(name, original)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, new)
                    self._patches.append((m, key, original))
        return True

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            frame = self._enter()
            t1 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = perf_counter()
                self._stack.pop()
            stats = self.stats[name]
            stats.calls += 1
            stats.self_s += (t2 - t1) - frame.child_s
            stats.out_bytes += out_bytes(result)
            if self.memory:
                stats.peak_bytes = max(stats.peak_bytes, self._exit_memory(frame))
            if name == "bob.receive":
                self._count_bins_passed(args)
            t3 = perf_counter()
            self.bookkeeping_s += (t1 - t0) + (t3 - t2)
            if self._stack:
                self._stack[-1].child_s += t3 - t0
            else:
                self.root_s += t3 - t0
            return result

        return traced

    def _enter(self) -> _Frame:
        frame = _Frame()
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                parent = self._stack[-1]
                parent.mem_seen = max(parent.mem_seen, peak)
            tracemalloc.reset_peak()
            frame.mem_start = frame.mem_seen = current
        self._stack.append(frame)
        return frame

    def _exit_memory(self, frame: _Frame) -> int:
        _, peak = tracemalloc.get_traced_memory()
        frame.mem_seen = max(frame.mem_seen, peak)
        if self._stack:
            parent = self._stack[-1]
            parent.mem_seen = max(parent.mem_seen, frame.mem_seen)
        tracemalloc.reset_peak()
        return frame.mem_seen - frame.mem_start

    def _count_bins_passed(self, args) -> None:
        """funnel.bins_passed: occupied bins of the train reaching Bob,
        i.e. after Eve's mask.  Missing if receive no longer takes a train
        with per-bin means."""
        try:
            self.bins_passed += int(np.count_nonzero(args[0].means))
        except (AttributeError, IndexError, TypeError):
            self.bins_passed_missing = True
