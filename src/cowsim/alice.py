"""Alice: raw key generation and decoy insertion into the time-bin pulse train.

Each information bit occupies one slot of two time bins (early, late):

    0 -> (pulse, empty)
    1 -> (empty, pulse)

A decoy slot is (pulse, pulse).  Slot i owns bins 2i and 2i+1.  The pulse
train is one uint8 pattern per slot, bit v set when bin v (0 = early,
1 = late) holds a pulse: 1 for a data 0, 2 for a data 1 and DECOY = 3 for
a decoy.  insert_decoys builds it, and it is also Alice's record of what she
sent: a data slot's bit is pattern >> 1.  Every pulse has the same mean
photon number mu.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .engine import SimConfig

__all__ = [
    "DECOY",
    "DecoyStrategy",
    "generate_raw_bits",
    "insert_decoys",
    "coherent_boundaries",
    "announce_coherence_checks",
]

# slot patterns: data bit b is pattern b + 1, and DECOY lights both bins
DECOY = 3


class DecoyStrategy(Enum):
    NONE = "none"
    SUBSTITUTE_PATTERN = "substitute-pattern"
    FRAME_HEADER = "frame-header"


def generate_raw_bits(n: int, rng: np.random.Generator) -> np.ndarray:
    """n independent uniform key bits."""
    if n < 1:
        raise ValueError(f"need at least one bit, got n={n}")
    # The top bit of each byte of ceil(n/8) raw 64-bit outputs, read in
    # little-endian order.  On numpy 2.4 this equals rng.integers(0, 2, n,
    # dtype=np.uint8), which runs Lemire's method on those buffered bytes
    # and keeps each byte's top bit.  Both consume ceil(n/8) outputs, so a
    # later rng.random() or rng.geometric() agrees too; only a 32-bit draw
    # could differ, since integers() may leave half an output buffered.
    return rng.bit_generator.random_raw(-(-n // 8)).view(np.uint8)[:n] >> 7


def insert_decoys(bits, strategy: DecoyStrategy) -> np.ndarray:
    """Lay raw bits out into the pulse train, inserting decoys per the chosen strategy.

    Returns the pulse train, one uint8 pattern per slot: bit + 1 for a data
    slot and DECOY for a decoy.

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
    bits = np.asarray(bits)
    if bits.size == 0:
        raise ValueError("bit sequence must be nonempty")
    # checked before the cast, which would wrap 256 to 0 and truncate 0.7 to 0
    if bits.dtype.kind not in "biu" or bits.min() < 0 or bits.max() > 1:
        raise ValueError("bits must be 0 or 1")
    bits = bits.astype(np.uint8, copy=False)

    if strategy is DecoyStrategy.NONE:
        return bits + 1

    if strategy is DecoyStrategy.SUBSTITUTE_PATTERN:
        ones = bits.view(bool)
        starts = np.flatnonzero(ones[:-3] & ~ones[1:-2] & ones[2:-1] & ~ones[3:])
        chain_head = np.ones(starts.size, dtype=bool)
        chain_head[1:] = np.diff(starts) != 2
        index = np.arange(starts.size)
        head_index = np.maximum.accumulate(np.where(chain_head, index, 0))
        kept = starts[(index - head_index) % 2 == 0]
        train = bits + 1
        for offset in range(4):
            train[kept + offset] = DECOY
        return train

    if strategy is DecoyStrategy.FRAME_HEADER:
        n_full, rest = divmod(bits.size, 3)
        frames = np.full((n_full + (rest > 0), 4), DECOY, dtype=np.uint8)
        frames[:n_full, 1:] = bits[: 3 * n_full].reshape(n_full, 3) + 1
        frames[n_full:, 1 : 1 + rest] = bits[3 * n_full :] + 1
        return frames.ravel()[: len(frames) + bits.size]

    raise ValueError(f"unknown decoy strategy: {strategy!r}")


def coherent_boundaries(train: np.ndarray) -> np.ndarray:
    """Bin indices k where bins k and k+1 are both nonempty in a slot-pattern train.

    Boundary 2i is coherent when slot i is a decoy (pattern DECOY), and boundary
    2i+1 when slot i's late bin and slot i+1's early bin both hold pulses;
    only these can show perfect destructive interference at the monitor.
    """
    coherent = np.zeros((train.size, 2), dtype=bool)
    coherent[:, 0] = train == DECOY
    coherent[:-1, 1] = (train[:-1] >> 1) & train[1:]
    return np.flatnonzero(coherent)


def announce_coherence_checks(
    boundaries: np.ndarray, config: SimConfig, rng: np.random.Generator
) -> np.ndarray:
    """Uniformly random subset of intact boundaries Alice publishes for checking,
    each kept with probability config.f_coh (all, with nothing drawn, at 1)."""
    boundaries = np.asarray(boundaries, dtype=np.int64)
    if config.f_coh == 1.0:
        return boundaries.copy()
    keep = rng.random(boundaries.size) < config.f_coh
    return boundaries[np.flatnonzero(keep)]  # an index gather beats a boolean one here
