"""The public classical-channel dialog and key sifting.

Every message is appended to a Transcript in a fixed order and is readable
by anyone, including Eve.  The transcript serializes to JSON lines so a run
can be replayed offline; it holds each integer list as a numpy array,
and get() shows every payload as JSON values.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .alice import (
    DECOY, Train, _check_is_train, _check_range, _data_bit, _keep_below, _pair_level, _pattern,
)
from .bob import monitor_click_probability

if TYPE_CHECKING:
    from .engine import SimConfig

__all__ = [
    "MESSAGE_ORDER",
    "Transcript",
    "SiftResult",
    "run_sifting",
]

MESSAGE_ORDER = (
    "DetectionReport",
    "DecoyDiscard",
    "MonitorReport",
    "VerificationRequest",
    "VerificationReveal",
    "Verdict",
    "KeyIndices",
)


class TranscriptError(ValueError):
    """Raised on malformed or out-of-order transcripts."""


# numbers formatted at a time: a block's row buffers stay in cache
_BLOCK = 2**14
# characters of a list's text read at a time: a chunk stays in cache
_CHUNK = 2**17
# the ", " between two numbers, read as one two-byte word
_SEP = np.frombuffer(b", ", dtype="<u2")[0]


def _list_pieces(a: np.ndarray) -> list[str]:
    """json.dumps(a.tolist()) for a 1-D integer array, as pieces to join.

    The pieces are "[", each block's numbers with ", " between blocks, and
    "]".  The numbers are formatted one block at a time, so the row
    buffers stay small and only the text grows with the array.
    """
    pieces = ["["]
    for i in range(0, a.size, _BLOCK):
        if i:
            pieces.append(", ")
        pieces.append(_ints_text(a[i : i + _BLOCK]))
    pieces.append("]")
    return pieces


def _ints_text(a: np.ndarray) -> str:
    """The numbers of a non-empty 1-D integer array, joined by ", ", for _list_pieces.

    A block holding a negative number is joined from its Python ints, as
    json.dumps writes them; no run writes one.  Otherwise each number
    fills one fixed-width row of bytes: digits, then ", ".  The digits are
    peeled off right to left, each quotient written into one of two
    buffers used in turn, so a digit makes no fresh array.  When every
    number has one digit count, every row is full and the buffer is
    decoded as it is.  Otherwise every byte left of a number's first
    digit is set to NUL by np.copyto(where=), as a write through a boolean
    index is numpy's slow path, and the NULs are deleted in one pass.
    """
    low, top = int(a.min()), int(a.max())
    if low < 0:
        return ", ".join(map(str, a.tolist()))
    width = len(str(top))
    a = a.astype(np.uint32 if top < 2**32 else np.uint64, copy=False)  # uint32 divides faster
    rows = np.empty((a.size, width + 2), dtype=np.uint8)
    quotients, product = (np.empty_like(a), np.empty_like(a)), np.empty_like(a)
    q = a
    for k in range(width):  # k-th digit from the right, written straight into its column
        q_next = np.floor_divide(q, 10, out=quotients[k % 2])
        np.multiply(q_next, 10, out=product)
        np.subtract(q, product, out=rows[:, width - 1 - k], casting="unsafe")
        q = q_next
    rows += ord("0")
    rows[:, -2] = ord(",")
    rows[:, -1] = ord(" ")
    if width == 1 or low >= 10 ** (width - 1):
        return str(rows.reshape(-1)[:-2], "ascii")
    for k in range(1, width):
        np.copyto(rows[:, width - 1 - k], 0, where=a < 10**k)
    return rows.tobytes().translate(None, b"\0")[:-2].decode("ascii")


def _parse_ints(raw: bytes, at: int) -> tuple[np.ndarray, int] | None:
    """The run of numbers that opens raw[at:] and its digit count, else None.

    raw is a chunk of a list's text with ", " appended.  The run is every
    number from at on, each followed by ", ", that has the first one's digit
    count, and it is read digit column by digit column.  None if that count
    is 0 or past 18 (the most that always fits in int64), or if a number in
    the run holds a non-digit or, past one digit, a leading zero; so a run
    it returns is json.dumps' text of its numbers, each followed by ", ".
    "0" is subtracted once over the run's contiguous bytes, and one
    transposed copy lays each digit column out contiguously, as a subtract
    over a strided view is numpy's slow path.  The numbers add up in
    uint32, which holds any 9 digits, and in int64 past that.
    """
    width = raw.find(b", ", at) - at
    if not 0 < width <= 18:
        return None
    count = (len(raw) - at) // (width + 2)
    seps = np.ndarray(count, _SEP.dtype, raw, at + width, (width + 2,))
    count = int(np.argmin(seps == _SEP)) or count  # the first is ", ", so 0 means all are
    run = np.frombuffer(raw, np.uint8, count * (width + 2), at) - ord("0")
    # row j holds the j-th digit of every number in the run
    digits = np.ascontiguousarray(run.reshape(count, width + 2)[:, :width].T)
    del run  # freed before the numbers are made, to bound the read's peak memory
    if digits.max() > 9 or (width > 1 and not digits[0].all()):
        return None
    numbers = digits[0].astype(np.uint32 if width <= 9 else np.int64)
    for row in digits[1:]:
        numbers *= 10
        numbers += row
    return numbers, width


def _read_ints(text: str, start: int, stop: int) -> np.ndarray | None:
    """The list whose inside is text[start:stop] as an int64 array, else None.

    The inside is read in chunks, each cut at the first ", " at or past
    _CHUNK characters from its start, or at the inside's end, and each
    chunk run by run (_parse_ints).  None when a chunk is not ASCII, or a
    run is empty or has fewer digits than the one before, which no sorted
    index list or 0/1 list does; so a list takes a run per chunk plus one
    per added digit.
    """
    length = stop - start
    array = np.empty((length + 2) // 3, dtype=np.int64)  # k numbers take 3k - 2 characters or more
    n, pos, last = 0, start, 1
    while length and pos <= stop:  # a ", " is always followed by one more chunk
        cut = text.find(", ", pos + _CHUNK, stop)
        if cut < 0:
            cut = stop
        try:  # the slice is dropped once encoded: a chunk is held twice at most
            raw = text[pos:cut].encode("ascii") + b", "
        except UnicodeEncodeError:  # no int list holds a non-ASCII character
            return None
        at = 0
        while at < len(raw):
            run = _parse_ints(raw, at)
            if run is None or run[1] < last:
                return None
            numbers, last = run
            array[n : n + numbers.size] = numbers
            n += numbers.size
            at += numbers.size * (last + 2)
        pos = cut + 2
    array.resize(n, refcheck=False)  # in place: no view of array escaped
    return array


_scan_once = json.JSONDecoder().scan_once
# the end of the JSON whitespace (space, tab, "\r", "\n") at text[pos:stop]
_blank = json.decoder.WHITESPACE.match


def _value(text: str, pos: int) -> tuple:
    """json's scan_once, but a list that _read_ints reads comes back as its int64 array.

    The list is cut at the first "]" past pos: a list _read_ints reads holds
    digits and ", " alone, so that "]" closes it.
    """
    if text.startswith("[", pos):
        close = text.find("]", pos)
        array = _read_ints(text, pos + 1, close) if close >= 0 else None
        if array is not None:
            return array, close + 1
    return _scan_once(text, pos)


@dataclass
class Transcript:
    """Append-only, order-enforced record of the classical dialog.

    messages maps each announced kind to its payload of named values, in
    the order they were sent; each kind comes at most once, in MESSAGE_ORDER.
    A payload holds each list of ints within int64's range as a 1-D integer
    numpy array, and any other value as a JSON value.
    """

    messages: dict[str, dict] = field(default_factory=dict)

    def append(self, kind: str, payload: dict) -> None:
        """Record the kind message as a copy of payload, its int lists as int64 arrays."""
        if not isinstance(kind, str) or kind not in MESSAGE_ORDER:  # a list kind is an array
            raise TranscriptError(f"unknown message kind: {kind}")
        if self.messages:
            last = next(reversed(self.messages))
            if MESSAGE_ORDER.index(kind) <= MESSAGE_ORDER.index(last):
                raise TranscriptError(f"{kind} may not follow {last}")
        payload = dict(payload)
        for key, value in payload.items():
            if not isinstance(key, str) or key == "kind":
                raise TranscriptError(f"{kind} payload key {key!r}: must be a str other than 'kind'")
            if isinstance(value, list) and set(map(type, value)) <= {int}:  # exact types: no bool
                if -(2**63) <= min(value, default=0) and max(value, default=0) < 2**63:
                    payload[key] = np.array(value, dtype=np.int64)
            elif isinstance(value, np.ndarray) and (value.ndim != 1 or value.dtype.kind not in "iu"):
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

        The whole text is one list of pieces, joined once: braces, keys,
        scalars, and each array's pieces from _list_pieces, so that arrays
        never pass through a list of Python ints and no line or list is
        copied on its own.
        """
        pieces: list[str] = []
        for kind, payload in self.messages.items():
            opening = "{"
            for key, value in sorted({"kind": kind, **payload}.items()):
                pieces += (opening, json.dumps(key), ": ")
                opening = ", "
                if isinstance(value, np.ndarray):
                    pieces += _list_pieces(value)
                else:
                    pieces.append(json.dumps(value, sort_keys=True))
            pieces.append("}\n")
        return "".join(pieces)

    @classmethod
    def from_jsonl(cls, text: str) -> "Transcript":
        """The transcript on text's lines, each a JSON object with a kind.

        Lines end at a line feed only, as JSON Lines has them, so any other
        line break is text within its line.  Lines of JSON whitespace alone
        (space, tab, carriage return) are skipped.

        Each line is found with text.find, and an object line is read in
        place by json's own object parser, json.decoder.JSONObject, with
        _value reading its values: each list that _read_ints reads (an int
        list as to_jsonl writes it, a chunk of about _CHUNK characters at a
        time) becomes an int64 array of its own, and json reads the rest.
        append holds the other int lists (one with a negative number, a
        number past 18 digits or falling digit counts) as int64 arrays too,
        so each payload equals what json.loads gives.  json.loads reads only
        a line that is not an object, and raises the error, with that line's
        columns, of one that is not a single valid object ending on its own
        line.  TranscriptError names the number of every line it rejects.
        """
        out = cls()
        start, lineno = 0, 1
        while start < len(text):
            stop = text.find("\n", start)
            if stop < 0:
                stop = len(text)
            pos = _blank(text, start, stop).end()
            if pos < stop:
                record = end = None
                if text.startswith("{", pos):
                    try:
                        record, end = json.decoder.JSONObject((text, pos + 1), True, _value, None, None, {})
                    except ValueError:  # JSONDecodeError, or an int past Python's digit limit
                        pass
                # not an object, a parse error, an object past its line feed, or text after it
                if end is None or end > stop or _blank(text, end, stop).end() < stop:
                    try:
                        record = json.loads(text[start:stop])
                    except ValueError as exc:
                        raise TranscriptError(f"bad transcript line {lineno}: {exc}") from exc
                try:
                    if not isinstance(record, dict) or "kind" not in record:
                        raise TranscriptError("not an object with a kind")
                    out.append(record.pop("kind"), record)
                except TranscriptError as exc:
                    raise TranscriptError(f"bad transcript line {lineno}: {exc}") from exc
            start, lineno = stop + 1, lineno + 1
        return out


@dataclass
class SiftResult:
    kept_indices: np.ndarray
    alice_key: np.ndarray
    qber: float
    break_rate: float
    verdict: str
    verified_count: int
    decoy_slots: int


def _binomial_tail(k: int, n: int, q: float) -> float:
    """P(K >= k) for K ~ Binomial(n, q) in O(sqrt(n q (1 - q))) terms, summed
    from k up (past the mean they fall ever faster) to one below 1e-17 of the
    sum, or 1 minus the other side's at or below the mean.  lgamma's rounding
    bounds the relative error by about 2 n ln n 2**-52: 6e-9 at n = 10**6."""
    if k <= n * q:  # k <= 0 included: then the other side's tail is 0
        return 1.0 - _binomial_tail(n - k + 1, n, 1.0 - q)
    if k > n or q == 0.0:
        return 0.0
    log_comb = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    term = math.exp(log_comb + k * math.log(q) + (n - k) * math.log1p(-q))
    total, odds = 0.0, q / (1.0 - q)
    while term > total * 1e-17:  # a term of 0 ends it: the pmf is 0 past n
        total += term
        term *= (n - k) / (k + 1) * odds
        k += 1
    return total


def run_sifting(
    train: Train,
    detected,
    monitor,
    config: SimConfig,
    rng: np.random.Generator,
) -> tuple[SiftResult, Transcript]:
    """Run the whole public dialog and extract the sifted key.

    train is Alice's pulse train as she sent it, before any mask: her record
    of which slots are decoys (pattern DECOY) and of each data slot's bit
    (alice._data_bit).  detected is Bob's (slots, values) pair of arrays, one
    detected bit each, with slots strictly increasing as receive returns them.
    monitor is Bob's monitor clicks: the interferometer boundaries k (bins k
    and k+1) where his monitor detector fired, strictly increasing in
    [0, 2 * train.n - 1) as receive returns them.  train must be an
    alice.Train, index arrays integers in range and values 0 or 1, as
    integers or bools; ValueError names the first input that does not.

    The messages go in MESSAGE_ORDER, each list in one of them.  Bob announces
    his detected slots, and Alice the decoys among them.  MonitorReport holds
    Bob's monitor clicks and Alice's answer: a flag per click that fell on a
    coherent boundary of her train, one with both bins lit, and the count of
    coherent boundaries she sent.  That count, and her decoy slots for
    SiftResult.decoy_slots, are train.counts, which alice.insert_decoys and
    alice._pack make as they build the train; a train without them, such as
    Eve's mask or a bare alice.Train(bins, n), is not hers, and ValueError
    names train.  A flag tells of the data slots beside its boundary (set at
    2i + 1, it fixes slot i at 1 and slot i + 1 at 0), so the slots k >> 1
    and (k + 1) >> 1 of every click k leave the key, as do Alice's decoys,
    before the verification draw that follows.
    Of the rest she samples a verification subset of fraction config.f_verify,
    both sides reveal its bits in the order of its slots, and she keeps the
    others as key.  The verdict aborts when k of the n coherent boundaries
    clicked and P(K >= k) < config.alarm_alpha for K ~ Binomial(n, q0), q0
    being an intact pair's click probability.
    """
    train = _check_is_train("train", train)
    if train.counts is None:
        raise ValueError("train must be Alice's train, with the counts insert_decoys makes, got one without them")
    slots, values = detected
    slots = _check_range("detected slots", slots, train.n)
    values = _check_range("detected values", values, 2, np.uint8)
    if slots.shape != values.shape:
        raise ValueError("detected slots and values differ in length")
    if np.any(np.diff(slots) <= 0):
        raise ValueError("detected slots must be strictly increasing")
    monitor = _check_range("monitor clicks", monitor, 2 * train.n - 1)
    if np.any(np.diff(monitor) <= 0):
        raise ValueError("monitor clicks must be strictly increasing")

    flags = (_pair_level(train, monitor) == 2).view(np.uint8)
    n_decoy, n_coherent = train.counts

    # every gather below goes through np.flatnonzero: numpy gathers by a
    # boolean mask far slower than by index, and one index serves both arrays
    is_decoy = _pattern(train, slots) == DECOY
    decoy_detected = slots[np.flatnonzero(is_decoy)]
    keyable = ~is_decoy
    # each click's two slots, looked up among the sorted detected slots: a
    # search per click, so no array spans the train
    beside = np.concatenate((monitor >> 1, (monitor + 1) >> 1))
    at = np.searchsorted(slots, beside)
    found = at < slots.size
    at, beside = at[found], beside[found]
    keyable[at[slots[at] == beside]] = False
    keyable_at = np.flatnonzero(keyable)
    remainder, remainder_values = slots[keyable_at], values[keyable_at]

    verify_mask = rng.bit_generator.random_raw(remainder.size) < _keep_below(config.f_verify)
    verify_at = np.flatnonzero(verify_mask)
    verify_slots = remainder[verify_at]
    kept = remainder[np.flatnonzero(~verify_mask)]

    reveal_alice = _data_bit(_pattern(train, verify_slots))
    reveal_bob = remainder_values[verify_at]
    n_verified = reveal_alice.size
    qber = int(np.count_nonzero(reveal_alice != reveal_bob)) / n_verified if n_verified else 0.0

    n_clicks = int(np.count_nonzero(flags))
    break_rate = n_clicks / n_coherent if n_coherent else 0.0
    q0 = float(monitor_click_probability(config)[2])  # an intact pair's, as all are without Eve
    verdict = "abort" if _binomial_tail(n_clicks, n_coherent, q0) < config.alarm_alpha else "accept"

    alice_key = _data_bit(_pattern(train, kept))

    transcript = Transcript()
    transcript.append("DetectionReport", {"slots": slots})
    transcript.append("DecoyDiscard", {"slots": decoy_detected})
    transcript.append("MonitorReport", {"boundaries": monitor, "clicks": flags, "coherent": n_coherent})
    transcript.append("VerificationRequest", {"slots": verify_slots})
    transcript.append("VerificationReveal", {"alice_bits": reveal_alice, "bob_bits": reveal_bob})
    transcript.append("Verdict", {"verdict": verdict})
    transcript.append("KeyIndices", {"slots": kept})

    result = SiftResult(
        kept_indices=kept,
        alice_key=alice_key,
        qber=qber,
        break_rate=break_rate,
        verdict=verdict,
        verified_count=n_verified,
        decoy_slots=n_decoy,
    )
    return result, transcript
