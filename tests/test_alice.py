import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cowsim.alice import (
    DECOY,
    DecoyStrategy,
    announce_coherence_checks,
    coherent_boundaries,
    generate_raw_bits,
    insert_decoys,
)
from cowsim.bob import _bin_level, _pair_level, receive
from cowsim.engine import _SATURATED, SimConfig
from cowsim.eve import apply_and_mask

# data-slot patterns: a 0 lights the early bin, a 1 the late bin
ZERO, ONE = 0b01, 0b10
PATTERN = {0: ZERO, 1: ONE}


def substitute_pattern_reference(bits):
    """The left-to-right scan insert_decoys must reproduce, one bit per step."""
    bits = np.asarray(bits, dtype=np.uint8)
    train = np.array([PATTERN[b] for b in bits.tolist()], dtype=np.uint8)
    i = 0
    n = bits.size
    while i + 4 <= n:
        if bits[i] == 1 and bits[i + 1] == 0 and bits[i + 2] == 1 and bits[i + 3] == 0:
            train[i : i + 4] = DECOY
            i += 4
        else:
            i += 1
    return train


def frame_header_reference(bits):
    """One decoy, then up to three data slots, per frame."""
    bits = np.asarray(bits, dtype=np.uint8).tolist()
    train = []
    for start in range(0, len(bits), 3):
        train += [DECOY] + [PATTERN[b] for b in bits[start : start + 3]]
    return np.array(train, dtype=np.uint8)


def pattern_bins_reference(train):
    """The per-bin train: one boolean per bin, True where a pulse leaves.

    The early bin holds a pulse for a data 0 or a decoy, the late bin for a
    data 1 or a decoy.
    """
    train = np.asarray(train, dtype=np.uint8)
    occ = np.zeros(2 * train.size, dtype=bool)
    occ[0::2] = (train == ZERO) | (train == DECOY)
    occ[1::2] = (train == ONE) | (train == DECOY)
    return occ


def and_mask_bins_reference(occ, mask):
    """The per-bin AND: Eve's data-slot patterns, per bin, ANDed onto the occupancy."""
    return occ & pattern_bins_reference(mask)


def coherent_boundaries_bins_reference(occ):
    """Bin indices k where bins k and k+1 both hold a pulse."""
    return np.flatnonzero(occ[:-1] & occ[1:])


def pair_level_bins_reference(occ):
    """Pulses in bins k and k+1, one level per interferometer boundary."""
    level = occ.view(np.uint8)
    return level[:-1] + level[1:]


def _train(*patterns):
    return np.array(patterns, dtype=np.uint8)


REFERENCES = {
    DecoyStrategy.SUBSTITUTE_PATTERN: substitute_pattern_reference,
    DecoyStrategy.FRAME_HEADER: frame_header_reference,
}

# runs of 1,0,1,0,... pieced together, so chains of overlapping 1010 occur
_alternating_runs = st.lists(
    st.tuples(st.integers(0, 1), st.integers(1, 12)), min_size=1, max_size=12
).map(lambda runs: [(first + k) % 2 for first, length in runs for k in range(length)])


def _assert_matches_reference(bits, strategy):
    train = insert_decoys(bits, strategy)
    expect = REFERENCES[strategy](bits)
    assert train.dtype == expect.dtype
    assert np.array_equal(train, expect)


class TestRawBits:
    def test_deterministic(self):
        a = generate_raw_bits(8, np.random.default_rng(42))
        b = generate_raw_bits(8, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_uniform(self):
        bits = generate_raw_bits(1_000_000, np.random.default_rng(0))
        assert abs(bits.mean() - 0.5) < 3 * 0.0005

    def test_single(self):
        assert generate_raw_bits(1, np.random.default_rng(0))[0] in (0, 1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            generate_raw_bits(0, np.random.default_rng(0))

    @pytest.mark.parametrize("n", [*range(1, 18), 100_001])
    @pytest.mark.parametrize("seed", [0, 7, 2024])
    def test_matches_bounded_integers(self, n, seed):
        # the byte read is numpy's own uniform-bit draw, tail byte included,
        # and leaves the generator where a later float draw agrees
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        bits = generate_raw_bits(n, rng_a)
        expect = rng_b.integers(0, 2, n, dtype=np.uint8)
        assert bits.dtype == expect.dtype and np.array_equal(bits, expect)
        assert np.array_equal(rng_a.random(5), rng_b.random(5))


class TestInsertDecoys:
    def test_none(self):
        train = insert_decoys([0, 1], DecoyStrategy.NONE)
        assert train.tolist() == [ZERO, ONE]

    def test_substitute_pattern(self):
        train = insert_decoys([1, 0, 1, 0, 1], DecoyStrategy.SUBSTITUTE_PATTERN)
        assert train.tolist() == [DECOY, DECOY, DECOY, DECOY, ONE]

    def test_substitute_non_overlapping(self):
        # 101010: the scan consumes the first match, leaving a trailing 1,0
        train = insert_decoys([1, 0, 1, 0, 1, 0], DecoyStrategy.SUBSTITUTE_PATTERN)
        assert train.tolist() == [DECOY, DECOY, DECOY, DECOY, ONE, ZERO]

    def test_frame_header(self):
        train = insert_decoys([0, 0, 1], DecoyStrategy.FRAME_HEADER)
        assert train.tolist() == [DECOY, ZERO, ZERO, ONE]

    def test_frame_header_partial(self):
        train = insert_decoys([0, 0, 1, 1, 1], DecoyStrategy.FRAME_HEADER)
        assert train.tolist() == [DECOY, ZERO, ZERO, ONE, DECOY, ONE, ONE]

    @pytest.mark.parametrize(
        "bits",
        [np.array([256, 257]), np.array([0.7, 1.9]), np.array([-1, 0]), [0, 2]],
        ids=["wrap-on-cast", "truncate-on-cast", "negative", "two"],
    )
    @pytest.mark.parametrize("strategy", list(DecoyStrategy))
    def test_non_bits_rejected(self, bits, strategy):
        # checked before any cast to uint8, which would turn these into 0s and 1s
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            insert_decoys(bits, strategy)

    @pytest.mark.parametrize(
        "bits",
        [[1, 0, 1, 0, 1], np.array([1, 0, 1, 0, 1], dtype=np.uint8), np.array([1, 0, 1, 0, 1]),
         np.array([True, False, True, False, True])],
        ids=["list", "uint8", "int64", "bool"],
    )
    def test_bit_inputs_accepted(self, bits):
        train = insert_decoys(bits, DecoyStrategy.SUBSTITUTE_PATTERN)
        assert train.dtype == np.uint8
        assert train.tolist() == [DECOY, DECOY, DECOY, DECOY, ONE]

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=300))
    def test_slot_count_preserved(self, bits):
        assert insert_decoys(bits, DecoyStrategy.NONE).size == len(bits)
        assert insert_decoys(bits, DecoyStrategy.SUBSTITUTE_PATTERN).size == len(bits)

    @given(st.lists(st.integers(0, 1), min_size=4, max_size=300))
    def test_no_adjacent_1010_survives(self, bits):
        train = insert_decoys(bits, DecoyStrategy.SUBSTITUTE_PATTERN)
        for i in range(len(train) - 3):
            window = train[i : i + 4].tolist()
            assert window != [ONE, ZERO, ONE, ZERO]

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=300))
    def test_frame_layout(self, bits):
        train = insert_decoys(bits, DecoyStrategy.FRAME_HEADER)
        assert np.all(train[0::4] == DECOY)
        assert (train != DECOY).sum() == len(bits)


class TestInsertDecoysReference:
    @pytest.mark.parametrize("strategy", list(REFERENCES))
    @given(bits=st.lists(st.integers(0, 1), min_size=1, max_size=64))
    def test_short_random(self, strategy, bits):
        _assert_matches_reference(bits, strategy)

    @pytest.mark.parametrize("strategy", list(REFERENCES))
    @given(bits=_alternating_runs)
    def test_alternating_runs(self, strategy, bits):
        _assert_matches_reference(bits, strategy)

    @pytest.mark.parametrize("strategy", list(REFERENCES))
    def test_every_short_length(self, strategy):
        # n < 4 and every n % 3, on the all-alternating input and its shift
        for n in range(1, 65):
            for first in (0, 1):
                _assert_matches_reference([(first + k) % 2 for k in range(n)], strategy)

    @pytest.mark.parametrize("strategy", list(REFERENCES))
    def test_long_seeded(self, strategy):
        bits = generate_raw_bits(200_000, np.random.default_rng(20_051))
        _assert_matches_reference(bits, strategy)


class TestEncode:
    """insert_decoys' time-bin encoding: one pattern per slot, bit 0 the
    early bin and bit 1 the late bin."""

    def test_data_zero(self):
        assert insert_decoys([0], DecoyStrategy.NONE).tolist() == [0b01]

    def test_data_one(self):
        assert insert_decoys([1], DecoyStrategy.NONE).tolist() == [0b10]

    def test_decoy(self):
        assert DECOY == 0b11
        assert insert_decoys([1], DecoyStrategy.FRAME_HEADER).tolist() == [0b11, 0b10]

    def test_one_zero_adjacency(self):
        train = insert_decoys([1, 0], DecoyStrategy.NONE)
        assert train.tolist() == [0b10, 0b01]
        assert train.dtype == np.uint8

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=200), st.sampled_from(DecoyStrategy))
    def test_occupancy_counts(self, bits, strategy):
        train = insert_decoys(bits, strategy)
        assert train.dtype == np.uint8
        per_slot = (train & 1) + (train >> 1)
        expect = np.where(train == DECOY, 2, 1)
        assert np.array_equal(per_slot, expect)


class TestSlotPatternReference:
    """The slot-pattern train against the per-bin train it replaced."""

    @given(
        st.lists(
            st.tuples(st.sampled_from([ZERO, ONE, DECOY]), st.sampled_from([ZERO, ONE])),
            min_size=1,
            max_size=200,
        )
    )
    def test_same_bins_boundaries_and_pair_levels(self, slots):
        # random Alice patterns and Eve patterns, one pair per slot
        train, mask = (np.array(column, dtype=np.uint8) for column in zip(*slots))
        occ = pattern_bins_reference(train)
        assert np.array_equal(coherent_boundaries(train), coherent_boundaries_bins_reference(occ))
        bins, boundaries = np.arange(occ.size), np.arange(occ.size - 1)
        for sent, sent_bins in (
            (train, occ),
            (apply_and_mask(train, mask), and_mask_bins_reference(occ, mask)),
        ):
            assert np.array_equal(_bin_level(sent, bins), sent_bins)
            assert np.array_equal(_pair_level(sent, boundaries), pair_level_bins_reference(sent_bins))


class TestBoundaries:
    def test_single_zero(self):
        assert coherent_boundaries(_train(ZERO)).tolist() == []

    def test_single_decoy(self):
        assert coherent_boundaries(_train(DECOY)).tolist() == [0]

    def test_cross_slot(self):
        assert coherent_boundaries(_train(ONE, ZERO)).tolist() == [1]

    def test_announce_all_or_nothing(self):
        rng = np.random.default_rng(0)
        b = np.arange(100)
        state = rng.bit_generator.state
        assert announce_coherence_checks(b, SimConfig(f_coh=1.0), rng).tolist() == b.tolist()
        assert rng.bit_generator.state == state  # keeping every boundary draws nothing
        assert announce_coherence_checks(b, SimConfig(f_coh=0.0), rng).size == 0

    def test_announce_fraction(self):
        rng = np.random.default_rng(0)
        picked = announce_coherence_checks(np.arange(10_000), SimConfig(f_coh=0.5), rng)
        sigma = (10_000 * 0.25) ** 0.5
        assert abs(picked.size - 5000) < 3 * sigma


class TestRoundTrip:
    def test_noiseless_decode_recovers_bits(self):
        bits = generate_raw_bits(500, np.random.default_rng(3))
        train = insert_decoys(bits, DecoyStrategy.NONE)
        config = SimConfig(**_SATURATED)
        (slots, values), _ = receive(train, config, np.random.default_rng(0))
        assert slots.tolist() == list(range(len(bits)))
        assert np.array_equal(values, bits)
