"""Eve: the synchronized AND-mask intercept and key reconstruction.

Eve never measures the quantum channel.  She encodes her own bit sequence
with the same two-bin rule Alice uses and lets her intensity modulator pass
only the bins her own pattern marks nonempty (a bitwise AND on occupancy).
Afterwards she reads the public sifting dialog and looks up her own bits at
the announced key positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .sifting import Transcript

__all__ = [
    "MaskMode",
    "EveMask",
    "EveRecord",
    "generate_mask",
    "apply_and_mask",
    "observe_transcript",
    "reconstruct_key",
]


class MaskMode(Enum):
    RANDOM = "random"
    ALTERNATING = "alternating"


@dataclass
class EveMask:
    """One bit per slot; bit e passes bin e of the slot and blocks the other."""

    bits: np.ndarray
    mode: MaskMode

    def __post_init__(self):
        self.bits = np.asarray(self.bits, dtype=np.uint8)
        if self.bits.ndim != 1 or self.bits.size == 0:
            raise ValueError("mask needs a nonempty 1-d bit sequence")
        if not np.all(self.bits <= 1):
            raise ValueError("mask bits must be 0 or 1")


@dataclass
class EveRecord:
    """Everything Eve ends a run with: her mask, the announced key slots, her key."""

    mask: EveMask
    observed_indices: np.ndarray
    reconstructed_key: np.ndarray


def generate_mask(n_slots: int, mode: MaskMode, rng: np.random.Generator) -> EveMask:
    """Eve's slot pattern: uniform random bits, or the fixed 1,0,1,0,... sequence."""
    if n_slots < 1:
        raise ValueError(f"need at least one slot, got {n_slots}")
    if mode is MaskMode.ALTERNATING:
        bits = (1 - np.arange(n_slots, dtype=np.uint8) % 2).astype(np.uint8)
    elif mode is MaskMode.RANDOM:
        bits = rng.integers(0, 2, size=n_slots, dtype=np.uint8)
    else:
        raise ValueError(f"unknown mask mode: {mode!r}")
    return EveMask(bits, mode)


def apply_and_mask(occupancy: np.ndarray, mask: EveMask) -> np.ndarray:
    """AND Eve's pattern onto the channel's bin occupancy: blocked bins become vacuum.

    Mask bit 0 passes the early bin and blocks the late one; bit 1 does the
    opposite.  Passed pulses are untouched.
    """
    if 2 * mask.bits.size != occupancy.size:
        raise ValueError(
            f"mask length {mask.bits.size} does not match {occupancy.size // 2} slots"
        )
    passed = occupancy.copy()
    passed[0::2] &= mask.bits == 0
    passed[1::2] &= mask.bits == 1
    return passed


def observe_transcript(transcript: Transcript) -> np.ndarray:
    """Pull the announced key-slot indices out of the public dialog."""
    payload = transcript.get("KeyIndices")
    return np.asarray(payload["slots"], dtype=np.int64)


def reconstruct_key(mask: EveMask, kept_indices) -> np.ndarray:
    """Eve's copy of the key: her own mask bits at the announced positions."""
    kept = np.asarray(kept_indices, dtype=np.int64)
    if kept.size and (kept.min() < 0 or kept.max() >= mask.bits.size):
        raise ValueError("kept index outside the masked slot range")
    return mask.bits[kept]
