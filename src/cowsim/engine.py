"""End-to-end orchestration: seeded runs, parameter sweeps, attack comparisons.

Every run derives four named random streams from the master seed (Alice's
key bits, Alice's public choices, Eve's mask, detection sampling), so
toggling the attack or reseeding Eve alone never perturbs the rest.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import alice as alice_mod
from . import bob as bob_mod
from . import eve as eve_mod
from .alice import DecoyStrategy
from .bob import DetectionMode
from .eve import EveRecord, MaskMode
from .optics import detectable_fraction, splittable_fraction
from .sifting import Transcript, run_sifting

__all__ = [
    "Attack",
    "SimConfig",
    "RunStats",
    "SweepRow",
    "CompareResult",
    "run",
    "sweep_mu",
    "compare_attack",
    "table1_rows",
    "TABLE1_EXPECTED",
]


class Attack(Enum):
    NONE = "none"
    AND_MASK = "andmask"


def _check_unit(name: str, value: float, *, open_top: bool = False) -> None:
    if not (0.0 <= value <= 1.0) or (open_top and value == 1.0):
        hi = "1)" if open_top else "1]"
        raise ValueError(f"{name} must be in [0, {hi}, got {value}")


@dataclass(frozen=True)
class SimConfig:
    """One full simulation setup, the only home of every physical parameter.

    Defaults follow the reference COW setup: mu = 0.5, t_b = 0.9, 2.4 ns
    bins, a lossy long-haul channel and a low-efficiency single-photon
    detector.

    channel_t   fiber transmittance
    t_b         fraction routed to the data detector (rest feeds the monitor)
    eta_data    data detector quantum efficiency
    eta_mon     monitor detector quantum efficiency
    p_dark_data dark-click probability per bin, data detector
    p_dark_mon  dark-click probability per interferometer output, monitor
    visibility  interferometric visibility (1.0 = ideal cancellation)
    """

    n_bits: int = 10_000
    mu: float = 0.5
    tau_ns: float = 2.4
    channel_t: float = 0.5
    t_b: float = 0.9
    eta_data: float = 0.1
    eta_mon: float = 0.1
    p_dark_data: float = 0.0
    p_dark_mon: float = 0.0
    visibility: float = 1.0
    decoy_strategy: DecoyStrategy = DecoyStrategy.SUBSTITUTE_PATTERN
    attack: Attack = Attack.NONE
    eve_mode: MaskMode = MaskMode.RANDOM
    f_verify: float = 0.1
    f_coh: float = 0.25
    alarm_threshold: float | None = None  # None -> dark-count floor + 3 sigma
    seed: int = 1
    eve_seed: int | None = None
    detection_mode: DetectionMode = DetectionMode.SAMPLED

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.n_bits < 1:
            raise ValueError(f"n_bits must be >= 1, got {self.n_bits}")
        if self.mu <= 0:
            raise ValueError(f"mu must be > 0, got {self.mu}")
        # the raw rate divides by tau_ns * 1e-9, which must not underflow
        if self.tau_ns * 1e-9 < sys.float_info.min:
            raise ValueError(f"tau_ns must be > 0 with tau_ns * 1e-9 a normal float, got {self.tau_ns}")
        if not 0.0 <= self.f_verify < 1.0:
            raise ValueError(f"f_verify must be in [0, 1), got {self.f_verify}")
        if not 0.0 <= self.f_coh <= 1.0:
            raise ValueError(f"f_coh must be in [0, 1], got {self.f_coh}")
        for name in ("channel_t", "t_b", "eta_data", "eta_mon"):
            _check_unit(name, getattr(self, name))
        _check_unit("p_dark_data", self.p_dark_data, open_top=True)
        _check_unit("p_dark_mon", self.p_dark_mon, open_top=True)
        _check_unit("visibility", self.visibility)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.eve_seed is not None and self.eve_seed < 0:
            raise ValueError(f"eve_seed must be >= 0, got {self.eve_seed}")


@dataclass
class RunStats:
    """Aggregate outcome of one run."""

    slots_sent: int
    decoy_slots: int
    detections: int
    sifted_len: int
    qber: float
    eve_recovery_fraction: float
    break_rate: float
    verdict: str
    verified_count: int
    raw_rate_bits_per_s: float

    def to_lines(self) -> str:
        parts = []
        for name, value in vars(self).items():
            if isinstance(value, float):
                parts.append(f"{name}={value:.17g}")
            else:
                parts.append(f"{name}={value}")
        return "\n".join(parts) + "\n"


@dataclass(frozen=True)
class SweepRow:
    mu: float
    detectable: float
    splittable: float
    empirical: float


@dataclass(frozen=True)
class CompareResult:
    rate_ratio: float
    recovery_no_attack: float
    recovery_attack: float


def _streams(config: SimConfig):
    master = np.random.SeedSequence(config.seed)
    s_bits, s_choices, s_eve, s_det = master.spawn(4)
    if config.eve_seed is not None:
        s_eve = np.random.SeedSequence(config.eve_seed)
    return (
        np.random.default_rng(s_bits),
        np.random.default_rng(s_choices),
        np.random.default_rng(s_eve),
        np.random.default_rng(s_det),
    )


def _alarm_threshold(config: SimConfig, n_checked: int) -> float:
    if config.alarm_threshold is not None:
        return config.alarm_threshold
    if n_checked == 0 or config.p_dark_mon == 0.0:
        return 0.0
    p = config.p_dark_mon
    return p + 3.0 * math.sqrt(p * (1.0 - p) / n_checked)


def run(config: SimConfig) -> tuple[RunStats, Transcript, EveRecord]:
    """Execute one full protocol round, attack included when configured."""
    rng_bits, rng_choices, rng_eve, rng_det = _streams(config)

    bits = alice_mod.generate_raw_bits(config.n_bits, rng_bits)
    slot_map = alice_mod.insert_decoys(bits, config.decoy_strategy)
    train = alice_mod.encode(slot_map)
    boundaries = alice_mod.coherent_boundaries(train)
    checked = alice_mod.announce_coherence_checks(boundaries, config.f_coh, rng_choices)

    mask = eve_mod.generate_mask(slot_map.n_slots, config.eve_mode, rng_eve)
    sent = eve_mod.apply_and_mask(train, mask) if config.attack is Attack.AND_MASK else train

    rec = bob_mod.receive(sent, config, rng_det)
    decoded = bob_mod.decode(rec)
    monitor = (checked, rec.monitor_clicks[checked])

    threshold = _alarm_threshold(config, int(checked.size))
    sift, transcript = run_sifting(
        slot_map, decoded, monitor, config.f_verify, threshold, rng_choices
    )

    kept = eve_mod.observe_transcript(transcript)
    eve_key = eve_mod.reconstruct_key(mask, kept)
    record = EveRecord(mask=mask, observed_indices=kept, reconstructed_key=eve_key)

    if sift.alice_key.size:
        recovery = float(np.mean(eve_key == sift.alice_key))
    else:
        recovery = 0.0

    stats = RunStats(
        slots_sent=slot_map.n_slots,
        decoy_slots=int(slot_map.is_decoy.sum()),
        detections=int(decoded[0].size),
        sifted_len=int(sift.kept_indices.size),
        qber=sift.qber,
        eve_recovery_fraction=recovery,
        break_rate=sift.break_rate,
        verdict=sift.verdict,
        verified_count=sift.verified_count,
        raw_rate_bits_per_s=sift.kept_indices.size
        / (2.0 * slot_map.n_slots * config.tau_ns * 1e-9),
    )
    return stats, transcript, record


def sweep_mu(config: SimConfig, mu_grid) -> list[SweepRow]:
    """Closed-form detectability curves plus an empirical per-slot detection rate.

    The empirical column Monte Carlo samples config.n_bits pure data slots
    (no decoys, no attack) at each grid point and reports the detected
    fraction, which should track 1 - exp(-mu * t * t_b * eta).
    """
    rows = []
    for i, mu in enumerate(mu_grid):
        point = replace(
            config,
            mu=float(mu),
            decoy_strategy=DecoyStrategy.NONE,
            attack=Attack.NONE,
            seed=config.seed + i,
        )
        rng_bits, _, _, rng_det = _streams(point)
        bits = alice_mod.generate_raw_bits(point.n_bits, rng_bits)
        slot_map = alice_mod.insert_decoys(bits, DecoyStrategy.NONE)
        train = alice_mod.encode(slot_map)
        rec = bob_mod.receive(train, point, rng_det)
        empirical = int(np.count_nonzero(rec.data_clicks)) / slot_map.n_slots
        rows.append(
            SweepRow(
                mu=float(mu),
                detectable=detectable_fraction(mu),
                splittable=splittable_fraction(mu),
                empirical=empirical,
            )
        )
    return rows


def compare_attack(config: SimConfig) -> CompareResult:
    """Run the identical experiment with the mask off and on.

    Both runs share the master seed, so Alice's bits, her public choices and
    every detector draw coincide; only whether Eve's mask is applied changes.
    """
    stats_off, _, _ = run(replace(config, attack=Attack.NONE))
    stats_on, _, _ = run(replace(config, attack=Attack.AND_MASK))
    if stats_off.sifted_len == 0:
        ratio = float("nan")
    else:
        ratio = stats_on.sifted_len / stats_off.sifted_len
    return CompareResult(
        rate_ratio=ratio,
        recovery_no_attack=stats_off.eve_recovery_fraction,
        recovery_attack=stats_on.eve_recovery_fraction,
    )


# The six-slot worked example: Alice sends 0, 0, 1, 1, decoy, decoy while Eve's
# pattern is 0, 1, 0, 1, 0, 1.  Expected received bin patterns and decodings.
TABLE1_EXPECTED = (
    ("0", "10", "0", "10", "10", "0"),
    ("0", "10", "1", "01", "00", "n.d."),
    ("1", "01", "0", "10", "00", "n.d."),
    ("1", "01", "1", "01", "01", "1"),
    ("d.s.", "11", "0", "10", "10", "0"),
    ("d.s.", "11", "1", "01", "01", "1"),
)


def table1_rows() -> tuple[list[tuple[str, ...]], bool]:
    """Reproduce the worked attack example with deterministic detection.

    Returns the simulated six rows (alice bit, alice bins, eve bit, eve bins,
    received bins, decoded bit) and whether they match TABLE1_EXPECTED.
    """
    slot_map = alice_mod.SlotMap(np.array([0, 0, 1, 1, alice_mod.DECOY, alice_mod.DECOY]))
    mask = eve_mod.EveMask(np.array([0, 1, 0, 1, 0, 1]), MaskMode.ALTERNATING)
    train = alice_mod.encode(slot_map)
    sent = eve_mod.apply_and_mask(train, mask)

    config = SimConfig(channel_t=1.0, detection_mode=DetectionMode.DETERMINISTIC)
    rec = bob_mod.receive(sent, config, np.random.default_rng(0))
    slots, values = bob_mod.decode(rec)
    decoded = dict(zip(slots.tolist(), values.tolist()))

    def bins_str(occupancy, slot):
        return "".join("1" if occupancy[2 * slot + k] else "0" for k in (0, 1))

    rows = []
    for s in range(slot_map.n_slots):
        alice_ib = "d.s." if slot_map.is_decoy[s] else str(int(slot_map.codes[s]))
        eve_bit = int(mask.bits[s])
        rows.append(
            (
                alice_ib,
                bins_str(train, s),
                str(eve_bit),
                "10" if eve_bit == 0 else "01",
                bins_str(sent, s),
                str(decoded[s]) if s in decoded else "n.d.",
            )
        )
    return rows, tuple(rows) == TABLE1_EXPECTED
