"""Eve: the synchronized AND-mask intercept and key reconstruction.

Eve never measures the quantum channel.  She draws her own uniform bit
sequence as Alice draws her key and lays it out as data slot patterns in
Alice's encoding (alice._as_data_slots), then lets her intensity modulator
pass only the bins her own pattern marks nonempty: a bitwise AND of her
patterns and the channel's.  Afterwards she reads the public sifting dialog
and looks up the data bits of her own patterns (alice._data_bit) at the
announced key positions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import alice
from .sifting import Transcript, TranscriptError

__all__ = [
    "EveRecord",
    "generate_mask",
    "apply_and_mask",
    "observe_transcript",
    "reconstruct_key",
]


@dataclass
class EveRecord:
    """Everything Eve ends a run with: her slot patterns and her key."""

    mask: np.ndarray
    reconstructed_key: np.ndarray


def generate_mask(n_slots: int, rng: np.random.Generator) -> np.ndarray:
    """Eve's slot patterns: n_slots uniform bits, drawn as Alice draws her key,
    each laid out as a data slot by alice._as_data_slots (a uint8 of 1 or 2)."""
    return alice._as_data_slots(alice.generate_raw_bits(n_slots, rng))


def apply_and_mask(train: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """AND Eve's patterns onto the channel's slot patterns: blocked bins become vacuum.

    Pattern 1 (Eve's bit 0) passes the early bin and blocks the late one,
    pattern 2 (bit 1) the opposite.  Passed pulses are untouched.
    """
    train = alice._check_train("train", train)
    mask = alice._check_train("mask", mask)
    if mask.size != train.size:
        raise ValueError(f"mask length {mask.size} does not match {train.size} slots")
    return train & mask


def observe_transcript(transcript: Transcript) -> np.ndarray:
    """Pull the announced key-slot indices out of the public dialog.

    KeyIndices' int64 "slots" array, which a transcript holds for a list of
    integers that fit in int64, is returned itself, not a copy.  Any other
    value, or no such message or field, raises TranscriptError.
    """
    slots = transcript.messages.get("KeyIndices", {}).get("slots")
    if not isinstance(slots, np.ndarray) or slots.dtype != np.int64 or slots.ndim != 1:
        raise TranscriptError("KeyIndices slots must be a list of integers that fit in int64")
    return slots


def reconstruct_key(mask: np.ndarray, kept_indices) -> np.ndarray:
    """Eve's copy of the key: the data bits of her slot patterns (alice._data_bit)
    at the announced positions, which must be integers in the masked slot range."""
    mask = alice._check_train("mask", mask)
    return alice._data_bit(mask[alice._check_range("kept_indices", kept_indices, mask.size)])
