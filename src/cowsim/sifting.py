"""The public classical-channel dialog and key sifting.

Every message is appended to a Transcript in a fixed order and is readable
by anyone, including Eve.  The transcript serializes to JSON lines so a run
can be replayed offline.  run_sifting keeps its index lists as numpy arrays
inside the messages and to_jsonl writes them straight to text; from_jsonl
reads each integer list back as an int64 array, and get() shows every
payload as JSON values.
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


# numbers formatted, or monitor flags read, at a time: a block's buffers stay in cache
_BLOCK = 2**14


def _json_ints(a: np.ndarray) -> str:
    """json.dumps(a.tolist()) for a 1-D integer array, byte for byte.

    The numbers are formatted one block at a time, so the row buffers
    stay small and only the text grows with the array.
    """
    blocks = (_ints_text(a[i : i + _BLOCK]) for i in range(0, a.size, _BLOCK))
    return "[" + ", ".join(blocks) + "]"


def _ints_text(a: np.ndarray) -> str:
    """The numbers of a non-empty 1-D integer array, joined by ", ".

    Each number fills one fixed-width row of bytes: sign, digits, then
    ", ".  The bytes left of its first digit (or sign) stay NUL and are
    deleted in one pass over the whole buffer.
    """
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
    return rows.tobytes().translate(None, b"\0")[:-2].decode("ascii")


_DECODER = json.JSONDecoder()


def _read_line(line: str, lists: dict[str, np.ndarray]) -> dict | None:
    """The object on a line laid out exactly as to_jsonl writes it, else None.

    A list value is cut at the next "]" and kept as an int64 array only
    if _json_ints gives back the cut text; lists maps each list text read
    so far to its array.
    """
    if not line.startswith("{"):
        return None
    record = {}
    pos = 1
    try:
        while line.startswith('"', pos):
            key, pos = json.decoder.scanstring(line, pos + 1)
            if not line.startswith(": ", pos):
                return None
            pos += 2
            if line.startswith("[", pos):
                stop = line.find("]", pos) + 1
                text = line[pos:stop]  # "" when no "]" follows, which fails the check
                if text not in lists:
                    array = np.fromstring(text[1:-1], dtype=np.int64, sep=",")
                    if _json_ints(array) != text:
                        return None
                    lists[text] = array
                value, pos = lists[text], stop
            else:
                value, pos = _DECODER.raw_decode(line, pos)
            record[key] = value
            if line[pos:] == "}":
                return record
            if not line.startswith(", ", pos):
                return None
            pos += 2
    # json.JSONDecodeError, or np.fromstring on text it cannot read; older
    # numpy warns there instead, and the part it read then fails the check
    except (ValueError, DeprecationWarning):
        return None
    return None


@dataclass
class Transcript:
    """Append-only, order-enforced record of the classical dialog.

    messages maps each announced kind to its payload of named values, in
    the order they were sent; each kind comes at most once, in MESSAGE_ORDER.
    A payload value is a JSON value, or a 1-D integer numpy array that
    stands for the list of its elements.  from_jsonl reads each integer
    list of a line as to_jsonl writes it into an int64 array, kept only if
    formatting it again gives the list's text exactly; any other line is
    read by json.loads and keeps its lists as lists.
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
        lines.append("")  # the final newline, without a second copy of the text
        return "\n".join(lines)

    @classmethod
    def from_jsonl(cls, text: str) -> "Transcript":
        """The transcript on text's lines, each a JSON object with a kind.

        Lines end at a line feed only, as JSON Lines has them, so any other
        line break is text within its line.  Lines of JSON whitespace alone
        (space, tab, carriage return) are skipped.

        A line laid out exactly as to_jsonl writes it is read field by
        field, and each list on it becomes an int64 array, accepted only if
        _json_ints(array) is the list's text: then that text is json.dumps
        of the array's list.  A list text that recurs (the checked
        boundaries) is read once, and its messages share one array.  Any
        other line goes whole to json.loads, as does every line holding a
        list that fails the check.  Either way each payload equals what
        json.loads gives.  A carriage return ending a line is dropped for
        the field-by-field read only, so json.loads errors keep their
        columns.  TranscriptError names the number of a line that is not
        JSON or not an object with a kind.
        """
        out = cls()
        lists: dict[str, np.ndarray] = {}
        for lineno, line in enumerate(text.split("\n"), 1):
            if not line.strip(" \t\r"):
                continue
            record = _read_line(line.removesuffix("\r"), lists)
            if record is None:
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


def _check_range(name: str, a, stop: int) -> np.ndarray:
    """a as an int64 array, checked before the cast to hold integers in [0, stop).

    An empty a passes whatever its dtype.  A ValueError gives name.
    """
    a = np.asarray(a)
    if a.size and a.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integers, got {a.dtype}")
    if a.size and (a.min() < 0 or a.max() >= stop):
        raise ValueError(f"{name} must lie in [0, {stop}), got values in [{a.min()}, {a.max()}]")
    return a.astype(np.int64, copy=False)


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
    integer positions in [0, 2 * train.size - 1).  MonitorReport flags each
    checked boundary, in Alice's order, that is among the clicked ones,
    read from a set of one bit per boundary: no sort, and no byte per
    boundary.  Index arrays must hold integers and values must be 0 or 1;
    ValueError names the first input that does not.
    Bob announces which slots he detected; Alice discards her decoys among
    them, samples a verification subset of fraction config.f_verify that
    both sides reveal, and keeps the rest as key.  The verdict aborts when
    the monitor break rate exceeds the alarm threshold, read from
    config.alarm_threshold or, when that is None, config.p_dark_mon.
    """
    slots, values = detected
    slots = _check_range("detected slots", slots, train.size)
    values = _check_range("detected values", values, 2).astype(np.uint8)
    if slots.shape != values.shape:
        raise ValueError("detected slots and values differ in length")
    if np.any(np.diff(slots) <= 0):
        raise ValueError("detected slots must be strictly increasing")

    checked, clicked = monitor
    n_boundaries = 2 * train.size - 1
    checked = _check_range("checked boundaries", checked, n_boundaries)
    clicked = _check_range("clicked boundaries", clicked, n_boundaries)
    # one bit per boundary marks the clicked ones; each checked boundary
    # reads its bit, a block at a time, in whatever order Alice sent them
    seen = np.zeros(n_boundaries // 8 + 1, dtype=np.uint8)
    np.bitwise_or.at(seen, clicked >> 3, (1 << (clicked & 7)).astype(np.uint8))
    clicks = np.empty(checked.size, dtype=np.uint8)
    for i in range(0, checked.size, _BLOCK):
        k = checked[i : i + _BLOCK]
        clicks[i : i + _BLOCK] = (seen[k >> 3] >> (k & 7)) & 1

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
    transcript.append("MonitorReport", {"boundaries": checked, "clicks": clicks})
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
