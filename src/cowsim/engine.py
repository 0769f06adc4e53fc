"""End-to-end orchestration: seeded runs, parameter sweeps, attack comparisons.

run() lists every stage of one protocol round in order.  It derives four
named random streams from the master seed (Alice's key bits, Alice's public
choices, Eve's mask, detection sampling), so toggling the attack never
perturbs the rest, and an attack comparison is two runs of one seed.
"""

from __future__ import annotations

import sys
import typing
from dataclasses import dataclass, fields, replace
from enum import Enum

import numpy as np

from . import alice, bob, eve
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
    "FIELD_TYPES",
    "format_value",
    "run",
    "sweep_mu",
    "compare_attack",
    "table1_rows",
    "TABLE1_EXPECTED",
]


class Attack(Enum):
    NONE = "none"
    AND_MASK = "andmask"


def format_value(value) -> str:
    """A value as every output file prints it: a float to 17 digits, which reads back exactly."""
    return f"{value:.17g}" if isinstance(value, float) else str(value)


class _Record:
    """A dataclass record whose text form is one name=value line per field."""

    def to_lines(self) -> str:
        return "".join(f"{name}={format_value(value)}\n" for name, value in vars(self).items())


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
    alarm_alpha false-alarm rate of the monitor verdict (sifting.run_sifting)
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
    alarm_alpha: float = 0.0013498980316300946  # Phi(-3): the one-sided 3-sigma rate
    seed: int = 1

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, np.generic):  # a numpy scalar stands for its Python value
                value = value.item()
                object.__setattr__(self, field.name, value)
            kind = FIELD_TYPES[field.name]
            # an int is a number too, but a bool is never one
            accepted = (int, float) if kind is float else kind
            if isinstance(value, bool) or not isinstance(value, accepted):
                raise ValueError(f"{field.name} must be of type {kind.__name__}, got {value!r}")
            # compared exactly, so an int past the float range fails here too
            if kind is float and not abs(value) <= sys.float_info.max:
                raise ValueError(f"{field.name} must be finite, got {value}")
        # the positions of 2 * n_bits bins must fit in int64
        if not 1 <= self.n_bits < 2**62:
            raise ValueError(f"n_bits must be in [1, 2**62), got {self.n_bits}")
        if self.mu <= 0:
            raise ValueError(f"mu must be > 0, got {self.mu}")
        # the raw rate divides by tau_ns * 1e-9, which must not underflow
        if self.tau_ns * 1e-9 < sys.float_info.min:
            raise ValueError(f"tau_ns must be > 0 with tau_ns * 1e-9 a normal float, got {self.tau_ns}")
        _check_unit("f_verify", self.f_verify, open_top=True)
        for name in ("channel_t", "t_b", "eta_data", "eta_mon"):
            _check_unit(name, getattr(self, name))
        _check_unit("p_dark_data", self.p_dark_data, open_top=True)
        _check_unit("p_dark_mon", self.p_dark_mon, open_top=True)
        _check_unit("visibility", self.visibility)
        # at 0 no run could abort, and at 1 one click of an intact pair would
        if not 0.0 < self.alarm_alpha < 1.0:
            raise ValueError(f"alarm_alpha must be in (0, 1), got {self.alarm_alpha}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


# SimConfig field -> the type of its values
FIELD_TYPES = typing.get_type_hints(SimConfig)


@dataclass
class RunStats(_Record):
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


@dataclass(frozen=True)
class SweepRow:
    mu: float
    detectable: float
    splittable: float
    empirical: float


@dataclass(frozen=True)
class CompareResult(_Record):
    rate_ratio: float
    recovery_no_attack: float
    recovery_attack: float


class NoKeyError(ValueError):
    """The run without the attack sifted no key, so a rate ratio is undefined."""


def _streams(master: np.random.SeedSequence) -> list[np.random.Generator]:
    return [np.random.default_rng(s) for s in master.spawn(4)]


def run(config: SimConfig) -> tuple[RunStats, Transcript, EveRecord]:
    """Execute one full protocol round, attack included when configured."""
    rng_bits, rng_choices, rng_eve, rng_det = _streams(np.random.SeedSequence(config.seed))
    bits = alice.generate_raw_bits(config.n_bits, rng_bits)
    train = alice.insert_decoys(bits, config.n_bits, config.decoy_strategy)
    del bits  # freed before Bob's stage, to bound the run's peak memory

    mask = eve.generate_mask(train.n, rng_eve)
    sent = eve.apply_and_mask(train, mask) if config.attack is Attack.AND_MASK else train

    detected, monitor = bob.receive(sent, config, rng_det)
    sift, transcript = run_sifting(train, detected, monitor, config, rng_choices)

    eve_key = eve.reconstruct_key(mask, eve.observe_transcript(transcript))
    record = EveRecord(mask=mask, reconstructed_key=eve_key)

    if sift.alice_key.size:
        recovery = float(np.mean(eve_key == sift.alice_key))
    else:
        recovery = 0.0

    stats = RunStats(
        slots_sent=train.n,
        decoy_slots=sift.decoy_slots,
        detections=int(detected[0].size),
        sifted_len=int(sift.kept_indices.size),
        qber=sift.qber,
        eve_recovery_fraction=recovery,
        break_rate=sift.break_rate,
        verdict=sift.verdict,
        verified_count=sift.verified_count,
        raw_rate_bits_per_s=sift.kept_indices.size
        / (2.0 * train.n * config.tau_ns * 1e-9),
    )
    return stats, transcript, record


def sweep_mu(config: SimConfig, mu_grid) -> list[SweepRow]:
    """Closed-form detectability curves plus an empirical per-slot detection rate.

    The empirical column Monte Carlo samples config.n_bits pure data slots
    (no decoys, no attack) at each grid point and reports the detected
    fraction, which should track 1 - exp(-mu * t * t_b * eta).  The train is
    Alice's raw bits laid out as data slots by alice._data_slots, as
    insert_decoys lays them out with DecoyStrategy.NONE.  Only the data
    detector is sampled; the monitor line plays no part in the rate.
    Point i draws from child i of the master seed's SeedSequence, so no
    point shares its streams with a point of another seed.
    """
    rows = []
    master = np.random.SeedSequence(config.seed)
    for mu in mu_grid:
        point = replace(config, mu=float(mu))
        (child,) = master.spawn(1)  # the next child: child i at point i
        rng_bits, _, _, rng_det = _streams(child)
        train = alice._data_slots(alice.generate_raw_bits(point.n_bits, rng_bits), point.n_bits)
        slots, _ = bob.detect_data(train, point, rng_det)
        empirical = slots.size / train.n
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

    The two runs are run() calls on one seed, so Alice's bits, her public
    choices and every detector draw coincide; only whether Eve's mask is
    applied changes.  The rate ratio is undefined when the run without the
    mask sifts no key, so that raises NoKeyError.  It names channel_t, t_b
    or eta_data if one of them being 0 leaves a pulse bin no chance of a
    data click (or mu, if its product underflows), before any run, since
    then no n_bits helps; otherwise it names n_bits, with a pulse bin's click
    probability p and the about 1/p bits per expected data click.
    """
    p = float(bob.data_click_probability(config)[1])
    if p == 0.0:
        zero = [name for name in ("channel_t", "t_b", "eta_data") if getattr(config, name) == 0.0]
        named = ", ".join(f"{name}=0" for name in zero) or f"mu={config.mu}"
        raise NoKeyError(
            f"a pulse bin's data click probability is 0 with {named}, so no run sifts "
            "a key and the rate ratio is undefined at any n_bits"
        )
    stats_off, _, _ = run(replace(config, attack=Attack.NONE))
    if stats_off.sifted_len == 0:
        raise NoKeyError(
            f"n_bits={config.n_bits} sifts no key without the attack, so the rate ratio "
            f"is undefined; a pulse bin clicks with p={p:.3g}, one expected data click per "
            f"about {1 / p:.3g} bits; raise n_bits"
        )
    stats_on, _, _ = run(replace(config, attack=Attack.AND_MASK))
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
    # Alice's bits 0, 0, 1, 1, then two decoys; Eve's bits 0, 1, 0, 1, 0, 1
    train = alice._pack([alice._DATA[b] for b in (0, 0, 1, 1)] + [alice.DECOY] * 2)
    mask = alice._pack([alice._DATA[b] for b in (0, 1, 0, 1, 0, 1)])
    sent = eve.apply_and_mask(train, mask)

    (slots, values), _ = bob.receive(sent, SimConfig(**_SATURATED), np.random.default_rng(0))
    decoded = dict(zip(slots.tolist(), values.tolist()))

    def bins_str(pulses):
        """Each slot's early and late pulses as text, such as "10"."""
        levels = alice._bin_level(pulses, np.arange(2 * pulses.n)).reshape(-1, 2)
        return ["".join(map(str, pair)) for pair in levels.tolist()]

    alice_bins, eve_bins, sent_bins = bins_str(train), bins_str(mask), bins_str(sent)
    alice_patterns = alice._pattern(train, np.arange(train.n))
    alice_bits = alice._data_bit(alice_patterns).tolist()
    eve_bits = alice._data_bit(alice._pattern(mask, np.arange(mask.n))).tolist()
    rows = []
    for s in range(train.n):
        alice_ib = "d.s." if alice_patterns[s] == alice.DECOY else str(alice_bits[s])
        rows.append(
            (
                alice_ib,
                alice_bins[s],
                str(eve_bits[s]),
                eve_bins[s],
                sent_bins[s],
                str(decoded[s]) if s in decoded else "n.d.",
            )
        )
    return rows, tuple(rows) == TABLE1_EXPECTED
