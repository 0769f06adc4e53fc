"""The public classical-channel dialog and key sifting.

Every message is appended to a Transcript in a fixed order and is readable
by anyone, including Eve.  The transcript serializes to JSON lines so a run
can be replayed offline.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .alice import DECOY, SlotMap

if TYPE_CHECKING:
    from .engine import SimConfig

__all__ = [
    "MESSAGE_ORDER",
    "Message",
    "Transcript",
    "SiftResult",
    "compute_qber",
    "run_sifting",
]

MESSAGE_ORDER = (
    "DetectionReport",
    "DecoyDiscard",
    "VerificationRequest",
    "VerificationReveal",
    "CoherenceCheck",
    "MonitorReport",
    "Verdict",
    "KeyIndices",
)


@dataclass(frozen=True)
class Message:
    kind: str
    payload: dict


class TranscriptError(ValueError):
    """Raised on malformed or out-of-order transcripts."""


@dataclass
class Transcript:
    """Append-only, order-enforced record of the classical dialog."""

    messages: list[Message] = field(default_factory=list)

    def append(self, kind: str, payload: dict) -> None:
        if kind not in MESSAGE_ORDER:
            raise TranscriptError(f"unknown message kind: {kind}")
        rank = MESSAGE_ORDER.index(kind)
        if self.messages:
            last_rank = MESSAGE_ORDER.index(self.messages[-1].kind)
            if rank <= last_rank:
                raise TranscriptError(
                    f"{kind} may not follow {self.messages[-1].kind}"
                )
        self.messages.append(Message(kind, payload))

    def get(self, kind: str) -> dict:
        for msg in self.messages:
            if msg.kind == kind:
                return msg.payload
        raise TranscriptError(f"transcript has no {kind} message")

    def to_jsonl(self) -> str:
        lines = [
            json.dumps({"kind": m.kind, **m.payload}, sort_keys=True)
            for m in self.messages
        ]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "Transcript":
        out = cls()
        for lineno, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TranscriptError(f"bad transcript line {lineno}: {exc}") from exc
            if not isinstance(record, dict) or "kind" not in record:
                raise TranscriptError(f"bad transcript line {lineno}: not an object with a kind")
            out.append(record.pop("kind"), record)
        return out


@dataclass
class SiftResult:
    kept_indices: np.ndarray
    alice_key: np.ndarray
    qber: float
    break_rate: float
    verdict: str
    verified_count: int


def compute_qber(alice_bits, bob_bits) -> float:
    """Mismatch fraction over revealed bits, paired by position; 0 on empty."""
    alice_bits, bob_bits = np.asarray(alice_bits), np.asarray(bob_bits)
    if alice_bits.size == 0:
        return 0.0
    return int(np.count_nonzero(alice_bits != bob_bits)) / alice_bits.size


def _alarm_threshold(config: SimConfig, n_checked: int) -> float:
    """config.alarm_threshold if set, else the dark-count floor plus 3 sigma."""
    if config.alarm_threshold is not None:
        return config.alarm_threshold
    if n_checked == 0:
        return 0.0
    p = config.p_dark_mon
    return p + 3.0 * math.sqrt(p * (1.0 - p) / n_checked)


def run_sifting(
    slot_map: SlotMap,
    detected,
    monitor,
    config: SimConfig,
    rng: np.random.Generator,
) -> tuple[SiftResult, Transcript]:
    """Run the whole public dialog and extract the sifted key.

    detected is Bob's (slots, values) pair of arrays, one detected bit each.
    monitor is the (checked, clicks) pair: the boundaries Alice asked to be
    checked and, per checked boundary, whether Bob's monitor detector fired.
    Bob announces which slots he detected; Alice discards her decoys among
    them, samples a verification subset of fraction config.f_verify that
    both sides reveal, and keeps the rest as key.  The verdict aborts when
    the monitor break rate exceeds the alarm threshold, read from
    config.alarm_threshold or, when that is None, config.p_dark_mon.
    """
    slots, values = detected
    slots = np.asarray(slots, dtype=np.int64)
    values = np.asarray(values, dtype=np.uint8)
    if slots.shape != values.shape:
        raise ValueError("detected slots and values differ in length")
    if slots.size and (slots.min() < 0 or slots.max() >= slot_map.n_slots):
        raise ValueError("detected slot outside the slot map")

    checked, clicks = monitor
    checked = np.asarray(checked, dtype=np.int64)
    clicks = np.asarray(clicks, dtype=bool)
    if checked.shape != clicks.shape:
        raise ValueError("monitor boundaries and clicks differ in length")

    order = np.argsort(slots)
    slots, values = slots[order], values[order]

    is_decoy = slot_map.codes[slots] == DECOY
    decoy_detected = slots[is_decoy]
    remainder, remainder_values = slots[~is_decoy], values[~is_decoy]

    verify_mask = rng.random(remainder.size) < config.f_verify
    verify_slots = remainder[verify_mask]
    kept = remainder[~verify_mask]

    reveal_alice = slot_map.codes[verify_slots]
    reveal_bob = remainder_values[verify_mask]
    qber = compute_qber(reveal_alice, reveal_bob)

    break_rate = int(np.count_nonzero(clicks)) / checked.size if checked.size else 0.0
    verdict = "abort" if break_rate > _alarm_threshold(config, checked.size) else "accept"

    alice_key = slot_map.codes[kept]

    checked_list = checked.tolist()
    transcript = Transcript()
    transcript.append("DetectionReport", {"slots": slots.tolist()})
    transcript.append("DecoyDiscard", {"slots": decoy_detected.tolist()})
    transcript.append("VerificationRequest", {"slots": verify_slots.tolist()})
    transcript.append(
        "VerificationReveal",
        {
            "slots": verify_slots.tolist(),
            "alice_bits": reveal_alice.tolist(),
            "bob_bits": reveal_bob.tolist(),
        },
    )
    transcript.append("CoherenceCheck", {"boundaries": checked_list})
    transcript.append(
        "MonitorReport",
        {
            "boundaries": checked_list,
            "clicks": clicks.astype(int).tolist(),
        },
    )
    transcript.append("Verdict", {"verdict": verdict})
    transcript.append("KeyIndices", {"slots": kept.tolist()})

    result = SiftResult(
        kept_indices=kept,
        alice_key=alice_key,
        qber=qber,
        break_rate=break_rate,
        verdict=verdict,
        verified_count=int(verify_slots.size),
    )
    return result, transcript
