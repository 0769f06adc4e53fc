"""Eve: the synchronized AND-mask intercept and key reconstruction.

Eve never measures the quantum channel.  She draws her own uniform bit
sequence and encodes it as Alice does, reusing Alice's bit draw and slot
encoder, then lets her intensity modulator pass only the bins her own
pattern marks nonempty (a bitwise AND of the two slot patterns).
Afterwards she reads the public sifting dialog and looks up her own bits at
the announced key positions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import alice
from .sifting import Transcript, TranscriptError

__all__ = [
    "EveMask",
    "EveRecord",
    "generate_mask",
    "apply_and_mask",
    "observe_transcript",
    "reconstruct_key",
]


@dataclass
class EveMask:
    """One bit per slot; bit e passes bin e of the slot and blocks the other."""

    bits: np.ndarray

    def __post_init__(self):
        self.bits = np.asarray(self.bits, dtype=np.uint8)
        if self.bits.ndim != 1 or self.bits.size == 0:
            raise ValueError("mask needs a nonempty 1-d bit sequence")
        if not np.all(self.bits <= 1):
            raise ValueError("mask bits must be 0 or 1")


@dataclass
class EveRecord:
    """Everything Eve ends a run with: her mask and her key."""

    mask: EveMask
    reconstructed_key: np.ndarray


def generate_mask(n_slots: int, rng: np.random.Generator) -> EveMask:
    """Eve's slot pattern: n_slots uniform bits, drawn as Alice draws her key."""
    return EveMask(alice.generate_raw_bits(n_slots, rng))


def apply_and_mask(train: np.ndarray, mask: EveMask) -> np.ndarray:
    """AND Eve's pattern onto the channel's slot patterns: blocked bins become vacuum.

    Eve's pattern is her bits encoded as Alice encodes data slots: bit 0
    passes the early bin and blocks the late one, bit 1 the opposite.
    Passed pulses are untouched.
    """
    if mask.bits.size != train.size:
        raise ValueError(f"mask length {mask.bits.size} does not match {train.size} slots")
    return train & alice.encode(alice.SlotMap(mask.bits))


def observe_transcript(transcript: Transcript) -> np.ndarray:
    """Pull the announced key-slot indices out of the public dialog.

    Raises TranscriptError unless KeyIndices carries a "slots" list of
    integers that fit in int64.
    """
    slots = transcript.get("KeyIndices").get("slots")
    # bool is a subclass of int, so compare types exactly
    if not isinstance(slots, list) or not set(map(type, slots)) <= {int}:
        raise TranscriptError("KeyIndices slots must be a list of integers")
    try:
        return np.array(slots, dtype=np.int64)
    except OverflowError as exc:
        raise TranscriptError(f"KeyIndices slot out of range: {exc}") from exc


def reconstruct_key(mask: EveMask, kept_indices) -> np.ndarray:
    """Eve's copy of the key: her own mask bits at the announced positions."""
    kept = np.asarray(kept_indices, dtype=np.int64)
    if kept.size and (kept.min() < 0 or kept.max() >= mask.bits.size):
        raise ValueError("kept index outside the masked slot range")
    return mask.bits[kept]
