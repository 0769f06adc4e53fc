"""Alice: raw key generation and decoy insertion into the time-bin pulse train.

Each information bit occupies one slot of two time bins (early, late):

    0 -> (pulse, empty)
    1 -> (empty, pulse)

A decoy slot is (pulse, pulse).  Slot i owns bins 2i and 2i+1.  The pulse
train is one uint8 pattern per slot, bit v set when bin v (0 = early,
1 = late) holds a pulse: 1 for a data 0, 2 for a data 1 and DECOY = 3 for
a decoy.  insert_decoys builds it, and it is also Alice's record of what she
sent: a data slot's bit is pattern >> 1.  Every pulse has the same mean
photon number mu.  This module alone holds that encoding: it lays bits out
as data slots (_as_data_slots), reads a pattern's data bit (_data_bit),
checks a train (_check_train), and says what a pattern lights: the bins
(_bin_level), the pairs of bins the monitor overlaps (_pair_level), and how
many of those pairs are coherent (_n_coherent).  It also holds the rules
for reading raw 64-bit words: as key bits (generate_raw_bits), and as a
Bernoulli(f) test (_keep_below), which Bob's click thinning and the
verification draw of the sifting dialog both take.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

__all__ = [
    "DECOY",
    "DecoyStrategy",
    "generate_raw_bits",
    "insert_decoys",
]

# slot patterns: data bit b is pattern b + 1, and DECOY lights both bins
DECOY = 3


def _check_range(name: str, a, stop: int, dtype=np.int64) -> np.ndarray:
    """a as a dtype array, checked before the cast to be 1-D and hold integers in [0, stop).

    The one check on an integer array a stage takes.  Bits and slot patterns
    come out uint8 and may be bool; positions come out int64, and a bool
    array of them, a mask, is rejected.  The cast would wrap 259 to 3 and
    truncate 3.7 to 3.  An unsigned or bool array needs only its max, and
    an empty one passes whatever its dtype.  A ValueError gives name.
    """
    a = np.asarray(a)
    if a.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {a.shape}")
    if a.size and a.dtype.kind not in ("biu" if dtype == np.uint8 else "iu"):
        raise ValueError(f"{name} must be integers, got {a.dtype}")
    if a.size and (a.max() >= stop or a.dtype.kind == "i" and a.min() < 0):
        raise ValueError(f"{name} must lie in [0, {stop}), got values in [{a.min():d}, {a.max():d}]")
    return a.astype(dtype, copy=False)


def _check_train(name: str, a) -> np.ndarray:
    """a as a uint8 train, checked to hold slot patterns 0 to DECOY; see _check_range."""
    return _check_range(name, a, DECOY + 1, np.uint8)


def _as_data_slots(bits: np.ndarray) -> np.ndarray:
    """Lay uint8 bits out in place as data-slot patterns, bit b as pattern b + 1."""
    bits += 1
    return bits


def _data_bit(patterns: np.ndarray) -> np.ndarray:
    """The data bit of each data-slot pattern, a new uint8 array."""
    return patterns >> 1


def _bin_level(train: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Pulses (0 or 1) in bins pos of a slot-pattern train."""
    # in uint8, in place: the cast drops all but the low byte, which holds
    # bit 0 (the bin within its slot), and saves an int64 temporary
    shift = pos.astype(np.uint8)
    shift &= 1
    level = train[pos >> 1]
    level >>= shift
    level &= 1
    return level


def _pair_level(train: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Pulses (0, 1 or 2) in bins k and k+1 of a slot-pattern train: the late
    bin of slot k >> 1 plus the early bin of slot (k + 1) >> 1, which is the
    same slot when k is even.  Boundary k is coherent where this is 2: only
    there can the monitor see perfect destructive interference."""
    return (train[k >> 1] >> 1) + (train[(k + 1) >> 1] & 1)


def _n_coherent(train: np.ndarray) -> tuple[int, int]:
    """(decoy slots, coherent boundaries) of a slot-pattern train, the latter
    the boundaries k with _pair_level 2: one inside each decoy, and one
    between a late pulse and the next slot's early one."""
    n_decoy = int(np.count_nonzero(train == DECOY))
    return n_decoy, n_decoy + int(np.count_nonzero((train[:-1] >> 1) & train[1:]))


class DecoyStrategy(Enum):
    NONE = "none"
    SUBSTITUTE_PATTERN = "substitute-pattern"
    FRAME_HEADER = "frame-header"


def generate_raw_bits(n: int, rng: np.random.Generator) -> np.ndarray:
    """n independent uniform key bits: every bit of ceil(n/64) raw 64-bit words, low bit first."""
    if n < 1:
        raise ValueError(f"need at least one bit, got n={n}")
    words = rng.bit_generator.random_raw(-(-n // 64))
    return np.unpackbits(words.view(np.uint8), count=n, bitorder="little")


def _keep_below(f: float) -> np.uint64:
    """The raw words w with w < this are a fraction f < 1 of all: (w >> 11) < ceil(f * 2**53),
    which holds exactly when the uniform (w >> 11) * 2**-53 that rng.random() reads is below f."""
    return np.uint64(math.ceil(f * 2**53) << 11)


def insert_decoys(bits, strategy: DecoyStrategy) -> np.ndarray:
    """Lay raw bits out into the pulse train, inserting decoys per the chosen strategy.

    Returns the pulse train, one uint8 pattern per slot: a data slot as
    _as_data_slots lays it out and DECOY for a decoy.  bits is left unchanged.

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
    (the first, third, ...): each kept one consumes its odd successor.  So
    with s_i set where an occurrence starts at bit i, the kept starts are
    kept_i = s_i & ~kept_{i-2}.  This is solved on the bits held as one Python
    integer: composing the rule with itself doubles its reach per pass, so a
    longest chain of L occurrences costs O(log L) operations on the whole
    string, each linear in n.
    """
    bits = _check_range("bits", bits, 2, np.uint8)
    if bits.size == 0:
        raise ValueError("bit sequence must be nonempty")

    if strategy is DecoyStrategy.NONE:
        return _as_data_slots(bits.copy())

    if strategy is DecoyStrategy.SUBSTITUTE_PATTERN:
        n = bits.size
        x = int.from_bytes(np.packbits(bits, bitorder="little"), "little")
        # the complement is taken within n bits, so past the end neither x
        # nor it has a set bit, and no false start can sit at n - 3
        ten = x & ((x ^ ((1 << n) - 1)) >> 1)  # a 1,0 starts at bit i
        # kept = a ^ (link & kept << k) with a = link = starts and k = 2;
        # substituting the rule into itself keeps that form at 2k
        kept = link = ten & (ten >> 2)  # the 1,0,1,0 starts
        k = 2
        while link:
            kept ^= link & (kept << k)
            link &= link << k
            k *= 2
        kept *= 0b1111  # kept starts lie 4 or more apart, so no carry crosses
        packed = np.frombuffer(kept.to_bytes(-(-n // 8), "little"), dtype=np.uint8)
        decoys = np.unpackbits(packed, count=n, bitorder="little")
        # the mask is scaled in place: a fresh DECOY * mask temporary here
        # raised the process's peak RSS by about 7% at 3M bits
        train = _as_data_slots(bits.copy())
        decoys *= DECOY
        np.maximum(train, decoys, out=train)
        return train

    if strategy is DecoyStrategy.FRAME_HEADER:
        n_full, rest = divmod(bits.size, 3)
        frames = np.full((n_full + (rest > 0), 4), DECOY, dtype=np.uint8)
        data = _as_data_slots(bits.copy())
        frames[:n_full, 1:] = data[: 3 * n_full].reshape(n_full, 3)
        frames[n_full:, 1 : 1 + rest] = data[3 * n_full :]
        return frames.ravel()[: len(frames) + bits.size]

    raise ValueError(f"unknown decoy strategy: {strategy!r}")

