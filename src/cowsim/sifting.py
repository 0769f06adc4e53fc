"""The public classical-channel dialog and key sifting.

Every message is appended to a Transcript in a fixed order and is readable
by anyone, including Eve.  The transcript serializes to JSON lines so a run
can be replayed offline.  run_sifting keeps its index lists as numpy arrays
inside the messages and to_jsonl writes them straight to text; get() and a
replayed transcript show the same payloads as JSON values.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .alice import DECOY

if TYPE_CHECKING:
    from .engine import SimConfig

__all__ = [
    "MESSAGE_ORDER",
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


class TranscriptError(ValueError):
    """Raised on malformed or out-of-order transcripts."""


def _json_ints(a: np.ndarray) -> str:
    """json.dumps(a.tolist()) for a 1-D integer array, byte for byte.

    Each number fills one fixed-width row of bytes: sign, digits, then
    ", ".  The bytes left of its first digit (or sign) stay NUL and are
    deleted in one pass over the whole buffer.
    """
    if a.size == 0:
        return "[]"
    mag = a.astype(np.uint64)
    neg = a < 0
    signed = bool(neg.any())
    if signed:
        mag[neg] = -mag[neg]  # modulo 2**64, so int64's minimum comes out too
    top = int(mag.max())
    width = len(str(top))
    if top < 2**32:
        mag = mag.astype(np.uint32)  # divides faster
    rows = np.zeros((a.size, signed + width + 2), dtype=np.uint8)
    q = mag
    for k in range(width):  # k-th digit from the right
        q_next = q // 10
        digit = q - q_next * 10
        digit += ord("0")
        if k:
            digit[mag < 10**k] = 0
        rows[:, signed + width - 1 - k] = digit
        q = q_next
    if signed:
        rows[neg, 0] = ord("-")
    rows[:, -2] = ord(",")
    rows[:, -1] = ord(" ")
    return "[" + rows.tobytes().translate(None, b"\0")[:-2].decode("ascii") + "]"


@dataclass
class Transcript:
    """Append-only, order-enforced record of the classical dialog.

    messages maps each announced kind to its payload of named values, in
    the order they were sent; each kind comes at most once, in MESSAGE_ORDER.
    A payload value is a JSON value, or a 1-D integer numpy array that
    stands for the list of its elements.
    """

    messages: dict[str, dict] = field(default_factory=dict)

    def append(self, kind: str, payload: dict) -> None:
        if kind not in MESSAGE_ORDER:
            raise TranscriptError(f"unknown message kind: {kind}")
        if self.messages:
            last = next(reversed(self.messages))
            if MESSAGE_ORDER.index(kind) <= MESSAGE_ORDER.index(last):
                raise TranscriptError(f"{kind} may not follow {last}")
        for key, value in payload.items():
            if not isinstance(key, str) or key == "kind":
                raise TranscriptError(f"{kind} payload key {key!r}: must be a str other than 'kind'")
            if isinstance(value, np.ndarray) and (value.ndim != 1 or value.dtype.kind not in "iu"):
                raise TranscriptError(f"{kind} payload {key!r}: arrays must be 1-D integer arrays")
        self.messages[kind] = payload

    def get(self, kind: str) -> dict:
        """The kind message's payload as JSON values: a new dict, arrays as lists of int."""
        if kind not in self.messages:
            raise TranscriptError(f"transcript has no {kind} message")
        return {
            key: value.tolist() if isinstance(value, np.ndarray) else value
            for key, value in self.messages[kind].items()
        }

    def to_jsonl(self) -> str:
        """One json.dumps({"kind": kind, **payload}, sort_keys=True) line per message.

        Each line is built key by key so that arrays go through _json_ints
        and never through a list of Python ints.  An array held by several
        messages (the checked boundaries) is formatted once.
        """
        arrays: dict[int, str] = {}  # id -> text; the messages keep every array alive

        def value_text(value) -> str:
            if not isinstance(value, np.ndarray):
                return json.dumps(value, sort_keys=True)
            if id(value) not in arrays:
                arrays[id(value)] = _json_ints(value)
            return arrays[id(value)]

        lines = []
        for kind, payload in self.messages.items():
            record = {"kind": kind, **payload}
            fields = (f"{json.dumps(key)}: {value_text(value)}" for key, value in sorted(record.items()))
            lines.append("{" + ", ".join(fields) + "}")
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
    """Mismatch fraction over revealed bits, paired by position; 0 on empty.

    Raises ValueError when the two sides differ in shape.
    """
    alice_bits, bob_bits = np.asarray(alice_bits), np.asarray(bob_bits)
    if alice_bits.shape != bob_bits.shape:
        raise ValueError(f"revealed bits differ in shape: {alice_bits.shape} and {bob_bits.shape}")
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
    train: np.ndarray,
    detected,
    monitor,
    config: SimConfig,
    rng: np.random.Generator,
) -> tuple[SiftResult, Transcript]:
    """Run the whole public dialog and extract the sifted key.

    train is Alice's pulse train as she sent it, before any mask: her record
    of which slots are decoys (pattern DECOY) and of each data slot's bit
    (pattern >> 1).  detected is Bob's (slots, values) pair of arrays, one
    detected bit each, with slots strictly increasing as receive returns them.
    monitor is the (checked, clicked) pair: the boundaries Alice asked to be
    checked, and the boundaries where Bob's monitor detector fired, as
    integer positions.  MonitorReport flags each checked boundary that is
    among the clicked ones.
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
    if np.any(np.diff(slots) <= 0):
        raise ValueError("detected slots must be strictly increasing")
    if slots.size and (slots[0] < 0 or slots[-1] >= train.size):
        raise ValueError("detected slot outside the train")

    checked, clicked = monitor
    checked = np.asarray(checked, dtype=np.int64)
    # kind="table": one bool array over the clicks' range, where the default
    # would sort the checked boundaries once their range is wide
    clicks = np.isin(checked, np.asarray(clicked, dtype=np.int64), kind="table")

    is_decoy = train[slots] == DECOY
    decoy_detected = slots[is_decoy]
    remainder, remainder_values = slots[~is_decoy], values[~is_decoy]

    verify_mask = rng.random(remainder.size) < config.f_verify
    verify_slots = remainder[verify_mask]
    kept = remainder[~verify_mask]

    reveal_alice = train[verify_slots] >> 1
    reveal_bob = remainder_values[verify_mask]
    qber = compute_qber(reveal_alice, reveal_bob)

    break_rate = int(np.count_nonzero(clicks)) / checked.size if checked.size else 0.0
    verdict = "abort" if break_rate > _alarm_threshold(config, checked.size) else "accept"

    alice_key = train[kept] >> 1

    transcript = Transcript()
    transcript.append("DetectionReport", {"slots": slots})
    transcript.append("DecoyDiscard", {"slots": decoy_detected})
    transcript.append("VerificationRequest", {"slots": verify_slots})
    transcript.append(
        "VerificationReveal",
        {"slots": verify_slots, "alice_bits": reveal_alice, "bob_bits": reveal_bob},
    )
    transcript.append("CoherenceCheck", {"boundaries": checked})
    transcript.append("MonitorReport", {"boundaries": checked, "clicks": clicks.view(np.uint8)})
    transcript.append("Verdict", {"verdict": verdict})
    transcript.append("KeyIndices", {"slots": kept})

    result = SiftResult(
        kept_indices=kept,
        alice_key=alice_key,
        qber=qber,
        break_rate=break_rate,
        verdict=verdict,
        verified_count=int(verify_slots.size),
    )
    return result, transcript
