"""Alice: raw key generation and decoy insertion into the time-bin pulse train.

Each information bit occupies one slot of two time bins (early, late):

    0 -> (pulse, empty)
    1 -> (empty, pulse)

A decoy slot is (pulse, pulse).  Slot i owns bins 2i and 2i+1.  A pulse
train is a Train: its bins as one little-endian bit string, bin k at bit
k & 7 of byte k >> 3, set when the bin holds a pulse.  Slot i's pattern is
then the two bits at 2 * (i & 3) of byte i >> 2, bit v for bin v (0 =
early, 1 = late): 1 for a data 0, 2 for a data 1 and DECOY = 3 for a decoy,
four slots to a byte.  insert_decoys builds Alice's train, and it is also
her record of what she sent: a data slot's bit is pattern >> 1.  It lays
substitute-pattern decoys out as data 1s and then lights their early bins,
2 + 1 = DECOY.  Eve's mask and the train Bob receives are Trains too.
Every pulse has the same mean photon number mu.  This module alone holds
that encoding: it lays bits out as data slots (_data_slots), packs a list
of patterns (_pack), reads a slot's pattern (_pattern) and a pattern's data
bit (_data_bit), and says what a train lights: the bins (_bin_level) and
the pairs of bins the monitor overlaps (_pair_level).  Alice's train also
carries her counts of its decoy slots and of its coherent pairs, which
insert_decoys and _pack make while they build it.  The module also holds
the rules for reading raw 64-bit words: as packed key bits
(generate_raw_bits), and as a Bernoulli(f) test (_keep_below), which Bob's
click thinning and the verification draw of the sifting dialog both take.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "DECOY",
    "DecoyStrategy",
    "Train",
    "generate_raw_bits",
    "insert_decoys",
]

# slot patterns: data bit b is pattern _DATA[b] = b + 1, and DECOY lights both bins
_DATA = (1, 2)
DECOY = 3

# 16 bits v with bit i moved to bit 2i, at index v: two bytes' spreads side by side
_SPREAD = sum(((np.arange(256) >> i) & 1) << 2 * i for i in range(8))
_SPREAD = (_SPREAD[:, None] << 16 | _SPREAD).ravel().astype("<u4")
# bit 0 of every 2-bit field, and the masks and the byte sum that add up fields
_EVEN = np.uint64(0x5555555555555555)
_PAIRS = np.uint64(0x3333333333333333)
_NIBBLES = np.uint64(0x0F0F0F0F0F0F0F0F)
_BYTE_SUM = np.uint64(0x0101010101010101)


def _check_range(name: str, a, stop: int, dtype=np.int64) -> np.ndarray:
    """a as a dtype array, checked before the cast to be 1-D and hold integers in [0, stop).

    The one check on an integer array a stage takes.  Bytes, bits and slot
    patterns come out uint8 and may be bool; positions come out int64, and a
    bool array of them, a mask, is rejected.  The cast would wrap 259 to 3
    and truncate 3.7 to 3.  An unsigned or bool array needs only its max,
    and an empty one passes whatever its dtype.  A ValueError gives name.
    """
    a = np.asarray(a)
    if a.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {a.shape}")
    if a.size and a.dtype.kind not in ("biu" if dtype == np.uint8 else "iu"):
        raise ValueError(f"{name} must be integers, got {a.dtype}")
    if a.size and (a.max() >= stop or a.dtype.kind == "i" and a.min() < 0):
        raise ValueError(f"{name} must lie in [0, {stop}), got values in [{a.min():d}, {a.max():d}]")
    return a.astype(dtype, copy=False)


@dataclass(frozen=True, eq=False)
class Train:
    """A pulse train of n slots, packed 4 to a byte as the module docstring lays
    it out: bins holds ceil(n / 4) uint8, and every bit past bin 2n is clear.

    Every 2-bit value is a slot pattern, so a train is checked once, here,
    by n's type, bins' dtype and length and its last byte, never by a pass
    over it.  A stage that takes a train checks only that it is one
    (_check_is_train).

    counts is (decoy slots, coherent boundaries), the boundaries k with
    _pair_level 2: one inside each decoy, and one between a late pulse and
    the next slot's early one.  insert_decoys and _pack count them as they
    build Alice's train, so no stage makes a pass over it for them.  Every
    other train, such as Eve's mask or the train Bob receives, has None.
    """

    bins: np.ndarray
    n: int
    counts: tuple[int, int] | None = None

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, numbers.Integral) or self.n < 0:
            raise ValueError(f"a train's n must be a nonnegative integer, got {self.n!r}")
        size = -(-self.n // 4)
        bins = self.bins
        if not (isinstance(bins, np.ndarray) and bins.dtype == np.uint8 and bins.shape == (size,)):
            got = f"{bins.dtype} of shape {bins.shape}" if isinstance(bins, np.ndarray) else type(bins).__name__
            raise ValueError(f"a train of n={self.n} slots needs {size} uint8 bytes of bins, got {got}")
        if self.n % 4 and bins[-1] >> 2 * (self.n % 4):
            raise ValueError(f"a train of n={self.n} slots must have no bin set past bin {2 * self.n}")


def _spread(plane: np.ndarray, n: int) -> np.ndarray:
    """The ceil(n / 4) bytes with bit i of the packed bits plane at bit 2i, a new
    writable array: the bins of n slots that light bin 0 where plane's bit is set."""
    # looked up 16 bits at a time: np.take copies its indices as 8-byte intp,
    # so this halves that copy and the lookups of a byte table.  A uint16
    # cannot leave the 2**16-entry table, so mode="wrap" skips only the bounds
    # check: 105 against 129 us per 1M-bit plane (2-vCPU Xeon, numpy 2.4.6)
    pairs = np.zeros(-(-plane.size // 2), dtype="<u2")
    pairs.view(np.uint8)[: plane.size] = plane
    return np.take(_SPREAD, pairs, mode="wrap").view(np.uint8)[: -(-n // 4)]


def _shifted(words: np.ndarray, k: int, out: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """out, set to the bit string of little-endian uint64 words moved up k bits,
    k a power of 2, or down -k bits for k in (-64, 0), with the bits moved past
    either end dropped.  spare is scratch of words' size; neither it nor out
    overlaps words."""
    if k >= 8:  # whole bytes: one copy, and a move past the end leaves 0
        step = min(k // 8, out.nbytes)
        out.view(np.uint8)[step:] = words.view(np.uint8)[: words.nbytes - step]
        out.view(np.uint8)[:step] = 0
    elif k > 0:  # each word's top k bits carry into the next word's bottom
        np.left_shift(words, np.uint64(k), out=out)
        np.right_shift(words[:-1], np.uint64(64 - k), out=spare[1:])
        out[1:] |= spare[1:]
    else:
        np.right_shift(words, np.uint64(-k), out=out)
        np.left_shift(words[1:], np.uint64(64 + k), out=spare[:-1])
        out[:-1] |= spare[:-1]
    return out


def _check_is_train(name: str, train) -> Train:
    """train, checked to be a Train, which was checked where it was built: a
    stage's one check on a train it takes.  A ValueError gives name."""
    if not isinstance(train, Train):
        raise ValueError(f"{name} must be an alice.Train, got {type(train).__name__}")
    return train


def _data_slots(bits: np.ndarray, n: int, counts: tuple[int, int] | None = None) -> Train:
    """The n packed bits (as generate_raw_bits lays them out) as a train of data
    slots, bit b as pattern b + 1, carrying the counts it is given."""
    bins = _spread(bits, n)
    bins += 0x55  # 1 added to each slot's pattern, which is at most 1: no carry
    if n % 4:  # the 1s added past slot n
        bins[-1] &= (1 << 2 * (n % 4)) - 1
    return Train(bins, n, counts)


def _pack(patterns) -> Train:
    """A list of slot patterns 0 to DECOY as Alice's Train, with its counts."""
    patterns = _check_range("patterns", patterns, DECOY + 1, np.uint8)
    slots = np.zeros(4 * -(-patterns.size // 4), dtype=np.uint8)
    slots[: patterns.size] = patterns
    n_decoy = int(np.count_nonzero(patterns == DECOY))
    # a slot's late bin is pattern bit 1, the next slot's early bin its bit 0
    n_between = int(np.count_nonzero((patterns[:-1] >> 1) & patterns[1:]))
    return Train(_bytes(*(slots[i::4] for i in range(4))), patterns.size, (n_decoy, n_decoy + n_between))


def _bytes(p0, p1, p2, p3) -> np.ndarray:
    """The bytes of runs of 4 slots, slot j of each with pattern pj (p0 may be
    a number), a new array: pj at bit 2j, summed as ((p3 * 4 + p2) * 4 + p1) * 4 + p0."""
    b = p3 * np.uint8(4)
    b += p2
    b *= 4
    b += p1
    b *= 4
    b += p0
    return b


def _pattern(train: Train, slots: np.ndarray) -> np.ndarray:
    """The uint8 patterns of slots (int64 positions) of a train."""
    # in uint8, in place: the cast keeps the low byte, which holds slot & 3
    shift = slots.astype(np.uint8)
    shift &= 3
    shift *= 2
    pattern = train.bins[slots >> 2]
    pattern >>= shift
    pattern &= 3
    return pattern


def _data_bit(patterns: np.ndarray) -> np.ndarray:
    """The data bit of each data-slot pattern, a new uint8 array."""
    return patterns >> 1


def _bin_level(train: Train, pos: np.ndarray) -> np.ndarray:
    """Pulses (0 or 1) in bins pos (int64 positions) of a train."""
    # in uint8, in place: the cast keeps the low byte, which holds pos & 7
    shift = pos.astype(np.uint8)
    shift &= 7
    level = train.bins[pos >> 3]
    level >>= shift
    level &= 1
    return level


def _pair_level(train: Train, k: np.ndarray) -> np.ndarray:
    """Pulses (0, 1 or 2) in bins k and k+1 of a train: the late bin of slot
    k >> 1 plus the early bin of slot (k + 1) >> 1, which is the same slot
    when k is even.  Boundary k is coherent where this is 2: only there can
    the monitor see perfect destructive interference."""
    level = _bin_level(train, k)
    level += _bin_level(train, k + 1)
    return level


def _between(late: np.ndarray, early: np.ndarray, n: int, out: np.ndarray, spare: np.ndarray) -> int:
    """The boundaries between two of n slots with both bins lit, a late pulse
    and then the next slot's early one: the set bits of late & early >> 1, late
    and early the little-endian uint64 words of the slots' late and early bins.
    early, out and spare are overwritten; late is kept."""
    early[-1] &= np.uint64((1 << (n % 64 or 64)) - 1)
    x = _shifted(early, -1, out, spare)
    x &= late
    # counted by halving (numpy before 2.0 has no bitwise_count): 2-bit fields,
    # then 4-bit fields, then bytes, then each word's bytes added into its top byte
    np.right_shift(x, np.uint64(1), out=spare)
    spare &= _EVEN
    x -= spare
    np.right_shift(x, np.uint64(2), out=spare)
    spare &= _PAIRS
    x &= _PAIRS
    x += spare
    np.right_shift(x, np.uint64(4), out=spare)
    x += spare
    x &= _NIBBLES
    x *= _BYTE_SUM
    x >>= np.uint64(56)
    return int(x.sum())


def _nibbles_with(x: np.ndarray, mask: int, out: np.ndarray) -> int:
    """How many aligned nibbles of the uint8 bytes x have a bit of the 4-bit
    mask set, with out scratch of x's size."""
    return sum(int(np.count_nonzero(np.bitwise_and(x, m, out=out))) for m in (mask, mask << 4))


class DecoyStrategy(Enum):
    NONE = "none"
    SUBSTITUTE_PATTERN = "substitute-pattern"
    FRAME_HEADER = "frame-header"


def generate_raw_bits(n: int, rng: np.random.Generator) -> np.ndarray:
    """n independent uniform key bits, packed 8 to a byte, low bit first: the first
    ceil(n/8) bytes of ceil(n/64) raw 64-bit words, writable, with every bit past n clear."""
    if n < 1:
        raise ValueError(f"need at least one bit, got n={n}")
    bits = rng.bit_generator.random_raw(-(-n // 64)).view(np.uint8)[: -(-n // 8)]
    if n % 8:
        bits[-1] &= (1 << n % 8) - 1
    return bits


def _keep_below(f: float) -> np.uint64:
    """The raw words w with w < this are a fraction f < 1 of all: (w >> 11) < ceil(f * 2**53),
    which holds exactly when the uniform (w >> 11) * 2**-53 that rng.random() reads is below f."""
    return np.uint64(math.ceil(f * 2**53) << 11)


def insert_decoys(bits, n: int, strategy: DecoyStrategy) -> Train:
    """Lay n raw bits out into the pulse train, inserting decoys per the chosen strategy.

    bits holds the n bits packed as generate_raw_bits packs them: ceil(n/8)
    bytes, low bit first, every bit past n clear.  It is left unchanged.
    Returns Alice's train: a data slot as _data_slots lays it out and DECOY
    for a decoy, with its counts (Train.counts) made as it is built.

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
    kept_i = s_i & ~kept_{i-2}.  This is solved on the bits copied into
    little-endian uint64 words, the whole string shifted with each word's
    carry into its neighbour (_shifted): composing the rule with itself
    doubles its reach per pass, so a longest chain of L occurrences costs
    O(log L) operations on the whole string, each linear in n.  Each kept
    start then fills its four decoy bits D, and the train is the data slots
    of bits | D, a decoy as a data 1 (pattern 2), with D's early bins added:
    2 + 1 = DECOY.

    The counts come from the same words: four decoys per kept start, and as
    coherent boundaries one inside each decoy plus the set bits of L & E >> 1
    (_between), with L = bits | D and E = ~bits | D the slots that light
    their late and early bins (D = 0 for NONE).  FRAME_HEADER counts on its
    frame bytes.
    """
    bits = _check_range("bits", bits, 256, np.uint8)
    if n < 1:
        raise ValueError(f"bit sequence must be nonempty, got n={n}")
    if bits.size != -(-n // 8):
        raise ValueError(f"bits must be n={n} bits packed in {-(-n // 8)} bytes, got {bits.size}")
    if n % 8 and bits[-1] >> n % 8:
        raise ValueError(f"bits must have no bit set past bit n={n}")

    if strategy is DecoyStrategy.NONE:
        late = np.zeros(-(-n // 64), dtype="<u8")
        late.view(np.uint8)[: bits.size] = bits
        n_between = _between(late, np.invert(late), n, np.empty_like(late), np.empty_like(late))
        del late  # freed before the spread, to bound the peak memory
        return _data_slots(bits, n, (0, n_between))

    if strategy is DecoyStrategy.SUBSTITUTE_PATTERN:
        # a copy into zero words: the bytes past bits in generate_raw_bits'
        # words hold random bits
        kept = np.zeros(-(-n // 64), dtype="<u8")
        kept.view(np.uint8)[: bits.size] = bits
        link, moved, spare = np.empty_like(kept), np.empty_like(kept), np.empty_like(kept)
        # the complement is taken within n bits, so past the end neither the
        # bits nor it has a set bit, and no false start can sit at n - 3
        np.invert(kept, out=link)
        link[-1] &= np.uint64((1 << (n % 64 or 64)) - 1)
        kept &= _shifted(link, -1, moved, spare)  # a 1,0 starts at bit i
        kept &= _shifted(kept, -2, moved, spare)  # the 1,0,1,0 starts
        link[:] = kept
        # kept = a ^ (link & kept << k) with a = link = starts and k = 2;
        # substituting the rule into itself keeps that form at 2k
        k = 2
        while link.any():
            _shifted(kept, k, moved, spare)
            moved &= link
            kept ^= moved
            link &= _shifted(link, k, moved, spare)
            k *= 2
        # four decoy slots to a kept start; kept starts lie at least 4 bits
        # apart, so each aligned nibble holds one at most
        n_decoy = 4 * _nibbles_with(kept.view(np.uint8), 0xF, moved.view(np.uint8))
        # each kept start and the three bits after it: no start lies within 3
        # bits of n, so nothing moves past the end
        kept |= _shifted(kept, 1, moved, spare)
        kept |= _shifted(kept, 2, moved, spare)
        # L in link, which is all 0 once the chain loop ends, and E in moved
        link.view(np.uint8)[: bits.size] = bits
        np.invert(link, out=moved)
        moved |= kept
        link |= kept
        decoys = _spread(kept.view(np.uint8)[: bits.size], n)
        n_coherent = n_decoy + _between(link, moved, n, kept, spare)
        # a decoy is a data 1, pattern 2, plus its early bin: 2 + 1 = DECOY, no carry
        train = _data_slots(link.view(np.uint8)[: bits.size], n, (n_decoy, n_coherent))
        train.bins[:] += decoys
        return train

    if strategy is DecoyStrategy.FRAME_HEADER:
        # a frame is one byte: DECOY, then its bits' data-slot patterns, with
        # a partial frame's missing slots left 0
        n_frames = -(-n // 3)
        data = np.zeros(3 * n_frames, dtype=np.uint8)
        data[:n] = np.unpackbits(bits, count=n, bitorder="little")
        data[:n] += 1
        bins = _bytes(DECOY, data[0::3], data[1::3], data[2::3])
        # the coherent boundaries after a frame's decoy and its first two
        # data slots are bits 1, 3 and 5 of bins & bins >> 1, and the one into
        # the next frame's decoy is a lit bit 7.  A data slot lights one bin,
        # so bits 1 and 3 exclude each other, as do bits 5 and 7: each nibble
        # of bins & (bins >> 1 | 0x80) holds one at most.  Counted in data's
        # bytes, which are free now
        both = np.right_shift(bins, np.uint8(1), out=data[:n_frames])
        both |= 0x80
        both &= bins
        n_between = _nibbles_with(both, 0xA, data[n_frames : 2 * n_frames])
        n_between -= int(bins[-1] >> 7)  # the last frame has no next decoy
        return Train(bins, n + n_frames, (n_frames, n_frames + n_between))

    raise ValueError(f"unknown decoy strategy: {strategy!r}")
