"""End-to-end orchestration: seeded runs, parameter sweeps, attack comparisons.

Every run derives four named random streams from the master seed (Alice's
key bits, Alice's public choices, Eve's mask, detection sampling), so
toggling the attack never perturbs the rest.
"""

from __future__ import annotations

import copy
import math
import sys
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import alice as alice_mod
from . import bob as bob_mod
from . import eve as eve_mod
from .alice import DecoyStrategy
from .eve import EveRecord
from .optics import detectable_fraction, splittable_fraction
from .sifting import Transcript, run_sifting

__all__ = [
    "Attack",
    "SimConfig",
    "RunStats",
    "SweepRow",
    "CompareResult",
    "NoKeyError",
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
    f_verify: float = 0.1
    f_coh: float = 0.25
    alarm_threshold: float | None = None  # None -> dark-count floor + 3 sigma
    seed: int = 1

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
        # a run aborts when break_rate > threshold: below 0 every run would abort, at 1 none could
        if self.alarm_threshold is not None:
            _check_unit("alarm_threshold", self.alarm_threshold, open_top=True)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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


class NoKeyError(ValueError):
    """The run without the attack sifted no key, so a rate ratio is undefined."""


def _streams(master: np.random.SeedSequence) -> list[np.random.Generator]:
    return [np.random.default_rng(s) for s in master.spawn(4)]


# Alice's side before transmission: (pulse train, checked boundaries)
_AliceStage = tuple[np.ndarray, np.ndarray]


def _alice_stage(
    config: SimConfig, rng_bits: np.random.Generator, rng_choices: np.random.Generator
) -> _AliceStage:
    """Alice's raw bits, pulse train and the boundaries she asks Bob to check."""
    bits = alice_mod.generate_raw_bits(config.n_bits, rng_bits)
    train = alice_mod.insert_decoys(bits, config.decoy_strategy)
    boundaries = alice_mod.coherent_boundaries(train)
    checked = alice_mod.announce_coherence_checks(boundaries, config, rng_choices)
    return train, checked


def _transmit_and_sift(
    config: SimConfig,
    alice_stage: _AliceStage,
    rng_choices: np.random.Generator,
    rng_eve: np.random.Generator,
    rng_det: np.random.Generator,
) -> tuple[RunStats, Transcript, EveRecord]:
    """Everything after Alice's stage: Eve's mask, Bob's detectors and sifting."""
    train, checked = alice_stage
    mask = eve_mod.generate_mask(train.size, rng_eve)
    sent = eve_mod.apply_and_mask(train, mask) if config.attack is Attack.AND_MASK else train

    detected, monitor = bob_mod.receive(sent, config, rng_det)
    sift, transcript = run_sifting(train, detected, (checked, monitor), config, rng_choices)

    kept = eve_mod.observe_transcript(transcript)
    eve_key = eve_mod.reconstruct_key(mask, kept)
    record = EveRecord(mask=mask, reconstructed_key=eve_key)

    if sift.alice_key.size:
        recovery = float(np.mean(eve_key == sift.alice_key))
    else:
        recovery = 0.0

    stats = RunStats(
        slots_sent=train.size,
        decoy_slots=int(np.count_nonzero(train == alice_mod.DECOY)),
        detections=int(detected[0].size),
        sifted_len=int(sift.kept_indices.size),
        qber=sift.qber,
        eve_recovery_fraction=recovery,
        break_rate=sift.break_rate,
        verdict=sift.verdict,
        verified_count=sift.verified_count,
        raw_rate_bits_per_s=sift.kept_indices.size
        / (2.0 * train.size * config.tau_ns * 1e-9),
    )
    return stats, transcript, record


def run(config: SimConfig) -> tuple[RunStats, Transcript, EveRecord]:
    """Execute one full protocol round, attack included when configured."""
    rng_bits, rng_choices, rng_eve, rng_det = _streams(np.random.SeedSequence(config.seed))
    alice_stage = _alice_stage(config, rng_bits, rng_choices)
    return _transmit_and_sift(config, alice_stage, rng_choices, rng_eve, rng_det)


def sweep_mu(config: SimConfig, mu_grid) -> list[SweepRow]:
    """Closed-form detectability curves plus an empirical per-slot detection rate.

    The empirical column Monte Carlo samples config.n_bits pure data slots
    (no decoys, no attack) at each grid point and reports the detected
    fraction, which should track 1 - exp(-mu * t * t_b * eta).  Only the
    data detector is sampled; the monitor line plays no part in the rate.
    Point i draws from child i of the master seed's SeedSequence, so no
    point shares its streams with a point of another seed.
    """
    rows = []
    master = np.random.SeedSequence(config.seed)
    for mu in mu_grid:
        point = replace(config, mu=float(mu), decoy_strategy=DecoyStrategy.NONE, attack=Attack.NONE)
        (child,) = master.spawn(1)  # the next child: child i at point i
        rng_bits, _, _, rng_det = _streams(child)
        bits = alice_mod.generate_raw_bits(point.n_bits, rng_bits)
        train = alice_mod.insert_decoys(bits, DecoyStrategy.NONE)
        slots, _ = bob_mod.detect_data(train, point, rng_det)
        empirical = slots.size / train.size
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
    Alice's stage runs once; each run continues from a copy of the streams
    as they stood after it, so each equals its own run() call.
    Raises NoKeyError naming n_bits when the run without the mask sifts no
    key, since the rate ratio is then undefined.
    """
    rng_bits, rng_choices, rng_eve, rng_det = _streams(np.random.SeedSequence(config.seed))
    alice_stage = _alice_stage(config, rng_bits, rng_choices)
    rngs = (rng_choices, rng_eve, rng_det)
    stats_off, _, _ = _transmit_and_sift(
        replace(config, attack=Attack.NONE), alice_stage, *copy.deepcopy(rngs)
    )
    if stats_off.sifted_len == 0:
        raise NoKeyError(
            f"n_bits={config.n_bits} sifts no key without the attack, so the rate ratio "
            "is undefined; raise n_bits"
        )
    stats_on, _, _ = _transmit_and_sift(replace(config, attack=Attack.AND_MASK), alice_stage, *rngs)
    return CompareResult(
        rate_ratio=stats_on.sifted_len / stats_off.sifted_len,
        recovery_no_attack=stats_off.eve_recovery_fraction,
        recovery_attack=stats_on.eve_recovery_fraction,
    )


# The six-slot worked example: Alice sends 0, 0, 1, 1, decoy, decoy while Eve's
# bits are 0, 1, 0, 1, 0, 1.  Expected received bin patterns and decodings.
TABLE1_EXPECTED = (
    ("0", "10", "0", "10", "10", "0"),
    ("0", "10", "1", "01", "00", "n.d."),
    ("1", "01", "0", "10", "00", "n.d."),
    ("1", "01", "1", "01", "01", "1"),
    ("d.s.", "11", "0", "10", "10", "0"),
    ("d.s.", "11", "1", "01", "01", "1"),
)


# Detector settings at which every click probability is exactly 0 or 1: each
# nonzero mean times eta is far past 54 ln 2 ~ 37.4, so 1 - exp(-eta mean)
# rounds to 1.0, while a zero mean (an empty bin, or an intact pair at V = 1)
# never clicks.  Every geometric gap is then 1 and every u < 1 holds, so the
# sampled detectors click exactly where light arrives, whatever the seed.
_SATURATED = dict(mu=1e6, channel_t=1.0, eta_data=1.0, eta_mon=1.0, p_dark_data=0.0, p_dark_mon=0.0)


def table1_rows() -> tuple[list[tuple[str, ...]], bool]:
    """Reproduce the worked attack example with saturated detectors.

    Returns the simulated six rows (alice bit, alice bins, eve bit, eve bins,
    received bins, decoded bit) and whether they match TABLE1_EXPECTED.
    """
    train = np.array([1, 1, 2, 2, alice_mod.DECOY, alice_mod.DECOY], dtype=np.uint8)
    mask = np.array([1, 2, 1, 2, 1, 2], dtype=np.uint8)
    sent = eve_mod.apply_and_mask(train, mask)

    (slots, values), _ = bob_mod.receive(sent, SimConfig(**_SATURATED), np.random.default_rng(0))
    decoded = dict(zip(slots.tolist(), values.tolist()))

    def bins_str(train, slot):
        return f"{train[slot] & 1}{train[slot] >> 1}"

    rows = []
    for s in range(train.size):
        alice_ib = "d.s." if train[s] == alice_mod.DECOY else str(train[s] >> 1)
        rows.append(
            (
                alice_ib,
                bins_str(train, s),
                str(mask[s] >> 1),
                bins_str(mask, s),
                bins_str(sent, s),
                str(decoded[s]) if s in decoded else "n.d.",
            )
        )
    return rows, tuple(rows) == TABLE1_EXPECTED
