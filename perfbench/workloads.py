"""The benchmark's workloads: inputs made from a seed, one pass, and checks.

Each workload is a closed loop run by one client in one thread: a call into
cowsim starts only after the previous one returned.  A pass times only the
calls a user of the workload makes (and the transcript file I/O of
bulk-attack); correctness checks run outside the timed sections.

An operation is one timed cowsim call or one correctness check.  An
exception or a failed check counts as a failed operation.
"""

from __future__ import annotations

import hashlib
import math
import os
import traceback
from contextlib import contextmanager
from dataclasses import replace
from time import perf_counter

import numpy as np

import cowsim


def derive_seeds(seed: int, tag: int, n: int) -> list[int]:
    """n config seeds from the benchmark seed, distinct per workload tag."""
    return [int(s) for s in np.random.SeedSequence([seed, tag]).generate_state(n)]


class Pass:
    """Timing, operation counts, exact-repeat counts and digests of one pass."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.spans = None  # tracing.Spans of a traced pass
        self.scale = 1.0  # host seconds -> reference seconds
        self.seconds = 0.0
        self.slots = 0
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.counts = {
            "funnel.slots": 0,
            "funnel.data_clicks": 0,
            "funnel.decoys_dropped": 0,
            "funnel.verified": 0,
            "funnel.kept": 0,
            "sifted_len": 0,
            "bob.checked_boundaries": 0,
            "bob.monitor_clicks": 0,
            "verdict.aborts_no_attack": 0,
            "verdict.aborts_attack": 0,
        }
        self._digests = {}

    @contextmanager
    def timed(self):
        """Count the enclosed host time in the pass (and trace it, if tracing)."""
        if self.tracer is not None:
            self.tracer.active = True
        t0 = perf_counter()
        try:
            yield
        finally:
            self.seconds += perf_counter() - t0
            if self.tracer is not None:
                self.tracer.active = False

    def call(self, fn, *args, latency: bool = False):
        """One timed cowsim operation; an exception propagates and fails the pass."""
        self.attempted += 1
        t0 = perf_counter()
        with self.timed():
            result = fn(*args)
        if latency:
            self.latencies.append(perf_counter() - t0)
        return result

    def check(self, name: str, predicate) -> None:
        self.attempted += 1
        try:
            ok = bool(predicate())
        except Exception:
            ok = False
            self.errors.append(f"{name}: {traceback.format_exc(limit=3)}")
        if not ok:
            self.failed += 1
            self.errors.append(f"check failed: {name}")

    def record_run(self, config, stats, transcript, jsonl: str) -> None:
        """Fold one engine.run result into the pass's counts and digests."""
        attacked = config.attack is cowsim.Attack.AND_MASK
        monitor = transcript.get("MonitorReport")
        c = self.counts
        c["funnel.slots"] += stats.slots_sent
        c["funnel.data_clicks"] += stats.detections
        c["funnel.decoys_dropped"] += len(transcript.get("DecoyDiscard")["slots"])
        c["funnel.verified"] += stats.verified_count
        c["funnel.kept"] += stats.sifted_len
        c["sifted_len"] += stats.sifted_len
        c["bob.checked_boundaries"] += len(monitor["boundaries"])
        c["bob.monitor_clicks"] += sum(monitor["clicks"])
        if stats.verdict == "abort":
            c["verdict.aborts_attack" if attacked else "verdict.aborts_no_attack"] += 1
        self.digest("to_lines", stats.to_lines())
        self.digest("to_jsonl", jsonl)

    def digest(self, name: str, text: str) -> None:
        """Extend the running SHA-256 of one kind of output."""
        self._digests.setdefault(name, hashlib.sha256()).update(text.encode())

    def digests(self) -> dict[str, str]:
        return {f"{name}_sha256": h.hexdigest() for name, h in self._digests.items()}


class BulkAttack:
    """One ~3M-bit attacked run, its transcript written, read back and replayed."""

    name = "bulk-attack"
    N_BITS = 3_000_000

    def __init__(self, seed: int, workdir: str):
        (config_seed,) = derive_seeds(seed, 1, 1)
        self.config = cowsim.SimConfig(
            n_bits=self.N_BITS,
            decoy_strategy=cowsim.DecoyStrategy.SUBSTITUTE_PATTERN,
            attack=cowsim.Attack.AND_MASK,
            p_dark_data=1e-5,
            p_dark_mon=1e-5,
            seed=config_seed,
        )
        self.path = os.path.join(workdir, "transcript.jsonl")

    def warm_up(self) -> None:
        cowsim.run(self.config)

    def run_pass(self, p: Pass) -> None:
        stats, transcript, record = p.call(cowsim.run, self.config, latency=True)
        text = p.call(transcript.to_jsonl)
        with p.timed():
            with open(self.path, "w", encoding="ascii") as f:
                f.write(text)
            with open(self.path, encoding="ascii") as f:
                text_back = f.read()
        replay = p.call(cowsim.Transcript.from_jsonl, text_back)
        kept = p.call(cowsim.observe_transcript, replay)
        key = p.call(cowsim.reconstruct_key, record.mask, kept)
        p.slots += stats.slots_sent
        p.record_run(self.config, stats, transcript, text)
        p.check("from_jsonl(to_jsonl(t)).to_jsonl() == to_jsonl(t)", lambda: replay.to_jsonl() == text)
        p.check(
            "key replayed from the file == EveRecord.reconstructed_key",
            lambda: np.array_equal(key, record.reconstructed_key),
        )
        p.check("eve_recovery_fraction >= 0.99", lambda: stats.eve_recovery_fraction >= 0.99)


class SeedSweep:
    """Paired-seed 10k-bit frame-header runs, attack off then on."""

    name = "seed-sweep"
    N_BITS = 10_000
    N_PAIRS = 100

    def __init__(self, seed: int, workdir: str):
        base = cowsim.SimConfig(
            n_bits=self.N_BITS,
            decoy_strategy=cowsim.DecoyStrategy.FRAME_HEADER,
            p_dark_mon=1e-5,
        )
        self.pairs = [
            (replace(base, seed=s, attack=cowsim.Attack.NONE), replace(base, seed=s, attack=cowsim.Attack.AND_MASK))
            for s in derive_seeds(seed, 2, self.N_PAIRS)
        ]

    def warm_up(self) -> None:
        cowsim.run(self.pairs[0][0])

    def run_pass(self, p: Pass) -> None:
        sifted = {False: 0, True: 0}
        first = None
        for pair in self.pairs:
            for config in pair:
                stats, transcript, _ = p.call(cowsim.run, config, latency=True)
                jsonl = transcript.to_jsonl()
                p.slots += stats.slots_sent
                p.record_run(config, stats, transcript, jsonl)
                sifted[config.attack is cowsim.Attack.AND_MASK] += stats.sifted_len
                if first is None:
                    first = (config, stats.to_lines(), jsonl)
        p.check(
            "paired-seed sifted-rate ratio in [0.48, 0.52]",
            lambda: 0.48 <= sifted[True] / sifted[False] <= 0.52,
        )
        p.check("re-run of one seed repeats to_lines() and to_jsonl()", lambda: _repeats(*first))


def _repeats(config, lines: str, jsonl: str) -> bool:
    stats, transcript, _ = cowsim.run(config)
    return stats.to_lines() == lines and transcript.to_jsonl() == jsonl


class MuSweep:
    """engine.sweep_mu over an 8-point grid, ~1M data slots per point."""

    name = "mu-sweep"
    N_BITS = 1_000_000
    MU_GRID = (0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0, 1.5)

    def __init__(self, seed: int, workdir: str):
        (config_seed,) = derive_seeds(seed, 3, 1)
        self.config = cowsim.SimConfig(
            n_bits=self.N_BITS, decoy_strategy=cowsim.DecoyStrategy.NONE, seed=config_seed
        )

    def warm_up(self) -> None:
        cowsim.sweep_mu(self.config, self.MU_GRID)

    def run_pass(self, p: Pass) -> None:
        rows = p.call(cowsim.sweep_mu, self.config, self.MU_GRID, latency=True)
        c = self.config
        p.check("one row per grid point", lambda: [r.mu for r in rows] == list(self.MU_GRID))
        for row in rows:
            p.slots += c.n_bits
            p.counts["funnel.slots"] += c.n_bits
            p.counts["funnel.data_clicks"] += round(row.empirical * c.n_bits)
            p_click = -math.expm1(-row.mu * c.channel_t * c.t_b * c.eta_data)
            se = math.sqrt(p_click * (1.0 - p_click) / c.n_bits)
            p.check(f"empirical within 5 SE at mu={row.mu}", lambda: abs(row.empirical - p_click) <= 5.0 * se)
            p.check(
                f"detectable and splittable closed forms at mu={row.mu}",
                lambda: math.isclose(row.detectable, -math.expm1(-row.mu), rel_tol=1e-12)
                and math.isclose(
                    row.splittable,
                    (1.0 - (1.0 + row.mu) * math.exp(-row.mu)) / -math.expm1(-row.mu),
                    rel_tol=1e-12,
                ),
            )
            p.digest("sweep_rows", f"{row.mu!r},{row.detectable!r},{row.splittable!r},{row.empirical!r}\n")


WORKLOADS = {w.name: w for w in (BulkAttack, SeedSweep, MuSweep)}
