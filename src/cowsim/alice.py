"""Alice: raw key generation, decoy insertion, and time-bin encoding.

Each information bit occupies one slot of two time bins (early, late):

    0 -> (pulse, empty)
    1 -> (empty, pulse)

A decoy slot is (pulse, pulse).  Slot i owns bins 2i and 2i+1.  The pulse
train is one boolean per bin, True where a pulse leaves; every pulse has the
same mean photon number mu.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .engine import SimConfig

__all__ = [
    "DECOY",
    "DecoyStrategy",
    "SlotMap",
    "generate_raw_bits",
    "insert_decoys",
    "encode",
    "coherent_boundaries",
    "announce_coherence_checks",
]

# slot codes: 0 and 1 are data bits, DECOY marks a decoy slot
DECOY = 2


class DecoyStrategy(Enum):
    NONE = "none"
    SUBSTITUTE_PATTERN = "substitute-pattern"
    FRAME_HEADER = "frame-header"


@dataclass
class SlotMap:
    """Alice's ground truth: one code per slot (0, 1, or DECOY)."""

    codes: np.ndarray

    def __post_init__(self):
        self.codes = np.asarray(self.codes, dtype=np.uint8)
        if self.codes.ndim != 1 or self.codes.size == 0:
            raise ValueError("SlotMap needs a nonempty 1-d code sequence")
        if not np.all(self.codes <= DECOY):
            raise ValueError("slot codes must be 0, 1 or DECOY")

    @property
    def n_slots(self) -> int:
        return int(self.codes.size)

    @property
    def is_decoy(self) -> np.ndarray:
        return self.codes == DECOY


def generate_raw_bits(n: int, rng: np.random.Generator) -> np.ndarray:
    """n independent uniform key bits."""
    if n < 1:
        raise ValueError(f"need at least one bit, got n={n}")
    return rng.integers(0, 2, size=n, dtype=np.uint8)


def insert_decoys(bits, strategy: DecoyStrategy) -> SlotMap:
    """Lay raw bits out into slots, inserting decoys per the chosen strategy.

    NONE               every bit becomes a data slot, in order.
    SUBSTITUTE_PATTERN each non-overlapping occurrence of 1,0,1,0 (scanned
                       left to right) is replaced by four decoy slots; the
                       consumed bits are dropped, so slot count = bit count.
    FRAME_HEADER       frames of four slots, the first of each being a decoy
                       and the rest carrying the next three bits; a final
                       partial frame keeps one leading decoy.

    Two occurrences of 1,0,1,0 can overlap only when they start exactly two
    bits apart, as in 1,0,1,0,1,0.  Occurrences spaced by two form chains,
    and the left-to-right scan keeps the even-indexed members of each chain
    (the first, third, ...): each kept one consumes its odd successor.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.size == 0:
        raise ValueError("bit sequence must be nonempty")
    if not np.all(bits <= 1):
        raise ValueError("bits must be 0 or 1")

    if strategy is DecoyStrategy.NONE:
        return SlotMap(bits.copy())

    if strategy is DecoyStrategy.SUBSTITUTE_PATTERN:
        ones = bits.view(bool)
        starts = np.flatnonzero(ones[:-3] & ~ones[1:-2] & ones[2:-1] & ~ones[3:])
        chain_head = np.ones(starts.size, dtype=bool)
        chain_head[1:] = np.diff(starts) != 2
        index = np.arange(starts.size)
        head_index = np.maximum.accumulate(np.where(chain_head, index, 0))
        kept = starts[(index - head_index) % 2 == 0]
        codes = bits.copy()
        for offset in range(4):
            codes[kept + offset] = DECOY
        return SlotMap(codes)

    if strategy is DecoyStrategy.FRAME_HEADER:
        n_full, rest = divmod(bits.size, 3)
        frames = np.full((n_full + (rest > 0), 4), DECOY, dtype=np.uint8)
        frames[:n_full, 1:] = bits[: 3 * n_full].reshape(n_full, 3)
        frames[n_full:, 1 : 1 + rest] = bits[3 * n_full :]
        return SlotMap(frames.ravel()[: len(frames) + bits.size])

    raise ValueError(f"unknown decoy strategy: {strategy!r}")


def encode(slot_map: SlotMap) -> np.ndarray:
    """Translate slots into the transmitted pulse train: per-bin occupancy."""
    occ = np.zeros(2 * slot_map.n_slots, dtype=bool)
    occ[0::2] = (slot_map.codes == 0) | (slot_map.codes == DECOY)
    occ[1::2] = (slot_map.codes == 1) | (slot_map.codes == DECOY)
    return occ


def coherent_boundaries(occupancy: np.ndarray) -> np.ndarray:
    """Bin indices k where bins k and k+1 are both nonempty in Alice's train.

    These are the decoy-internal pairs plus every 1-then-0 slot boundary;
    only these can show perfect destructive interference at the monitor.
    """
    return np.flatnonzero(occupancy[:-1] & occupancy[1:])


def announce_coherence_checks(
    boundaries: np.ndarray, config: SimConfig, rng: np.random.Generator
) -> np.ndarray:
    """Uniformly random subset of intact boundaries Alice publishes for checking,
    each kept with probability config.f_coh (all, with nothing drawn, at 1)."""
    boundaries = np.asarray(boundaries, dtype=np.int64)
    if config.f_coh == 1.0:
        return boundaries.copy()
    keep = rng.random(boundaries.size) < config.f_coh
    return boundaries[keep]
