"""Eve: the synchronized AND-mask intercept and key reconstruction.

Eve never measures the quantum channel.  She draws her own uniform bit
sequence as Alice draws her key and lays it out as a train of data slots in
Alice's encoding (alice._data_slots), then lets her intensity modulator
pass only the bins her own train lights: a bitwise AND of her train's bins
and the channel's, a byte at a time.  Afterwards she reads the public
sifting dialog and looks up the data bits of her own slot patterns
(alice._pattern and alice._data_bit) at the announced key positions.
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
    """Everything Eve ends a run with: her train of data slots, the mask, and her key."""

    mask: alice.Train
    reconstructed_key: np.ndarray


def generate_mask(n_slots: int, rng: np.random.Generator) -> alice.Train:
    """Eve's mask: n_slots uniform bits, drawn as Alice draws her key, laid out
    as a train of data slots by alice._data_slots."""
    return alice._data_slots(alice.generate_raw_bits(n_slots, rng), n_slots)


def apply_and_mask(train: alice.Train, mask: alice.Train) -> alice.Train:
    """AND Eve's mask onto the channel's train: blocked bins become vacuum.

    Her data 0 passes a slot's early bin and blocks the late one, her data 1
    the opposite.  Passed pulses are untouched.
    """
    train = alice._check_is_train("train", train)
    mask = alice._check_is_train("mask", mask)
    if mask.n != train.n:
        raise ValueError(f"mask length {mask.n} does not match {train.n} slots")
    return alice.Train(train.bins & mask.bins, train.n)


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


def reconstruct_key(mask: alice.Train, kept_indices) -> np.ndarray:
    """Eve's copy of the key: the data bits of her slot patterns (alice._data_bit)
    at the announced positions, which must be integers in the masked slot range."""
    mask = alice._check_is_train("mask", mask)
    kept = alice._check_range("kept_indices", kept_indices, mask.n)
    return alice._data_bit(alice._pattern(mask, kept))
