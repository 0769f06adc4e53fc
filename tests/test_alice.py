import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cowsim.alice import (
    DECOY,
    DecoyStrategy,
    SlotMap,
    announce_coherence_checks,
    coherent_boundaries,
    encode,
    generate_raw_bits,
    insert_decoys,
)
from cowsim.bob import _bin_level, _pair_level, receive
from cowsim.engine import _SATURATED, SimConfig
from cowsim.eve import EveMask, apply_and_mask


def substitute_pattern_reference(bits):
    """The left-to-right scan insert_decoys must reproduce, one bit per step."""
    bits = np.asarray(bits, dtype=np.uint8)
    codes = bits.copy()
    i = 0
    n = bits.size
    while i + 4 <= n:
        if bits[i] == 1 and bits[i + 1] == 0 and bits[i + 2] == 1 and bits[i + 3] == 0:
            codes[i : i + 4] = DECOY
            i += 4
        else:
            i += 1
    return codes


def frame_header_reference(bits):
    """One decoy, then up to three bits, per frame."""
    bits = np.asarray(bits, dtype=np.uint8)
    chunks = []
    for start in range(0, bits.size, 3):
        chunks.append(np.concatenate(([DECOY], bits[start : start + 3])))
    return np.concatenate(chunks).astype(np.uint8)


def encode_bins_reference(codes):
    """The per-bin train encode replaced: one boolean per bin, True where a pulse leaves."""
    codes = np.asarray(codes, dtype=np.uint8)
    occ = np.zeros(2 * codes.size, dtype=bool)
    occ[0::2] = (codes == 0) | (codes == DECOY)
    occ[1::2] = (codes == 1) | (codes == DECOY)
    return occ


def and_mask_bins_reference(occ, mask_bits):
    """The per-bin AND: Eve's bits encoded as data slots, ANDed onto the occupancy."""
    return occ & encode_bins_reference(mask_bits)


def coherent_boundaries_bins_reference(occ):
    """Bin indices k where bins k and k+1 both hold a pulse."""
    return np.flatnonzero(occ[:-1] & occ[1:])


def pair_level_bins_reference(occ):
    """Pulses in bins k and k+1, one level per interferometer boundary."""
    level = occ.view(np.uint8)
    return level[:-1] + level[1:]


REFERENCES = {
    DecoyStrategy.SUBSTITUTE_PATTERN: substitute_pattern_reference,
    DecoyStrategy.FRAME_HEADER: frame_header_reference,
}

# runs of 1,0,1,0,... pieced together, so chains of overlapping 1010 occur
_alternating_runs = st.lists(
    st.tuples(st.integers(0, 1), st.integers(1, 12)), min_size=1, max_size=12
).map(lambda runs: [(first + k) % 2 for first, length in runs for k in range(length)])


def _assert_matches_reference(bits, strategy):
    codes = insert_decoys(bits, strategy).codes
    expect = REFERENCES[strategy](bits)
    assert codes.dtype == expect.dtype
    assert np.array_equal(codes, expect)


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
        m = insert_decoys([0, 1], DecoyStrategy.NONE)
        assert m.codes.tolist() == [0, 1]

    def test_substitute_pattern(self):
        m = insert_decoys([1, 0, 1, 0, 1], DecoyStrategy.SUBSTITUTE_PATTERN)
        assert m.codes.tolist() == [DECOY, DECOY, DECOY, DECOY, 1]

    def test_substitute_non_overlapping(self):
        # 101010: the scan consumes the first match, leaving a trailing 1,0
        m = insert_decoys([1, 0, 1, 0, 1, 0], DecoyStrategy.SUBSTITUTE_PATTERN)
        assert m.codes.tolist() == [DECOY, DECOY, DECOY, DECOY, 1, 0]

    def test_frame_header(self):
        m = insert_decoys([0, 0, 1], DecoyStrategy.FRAME_HEADER)
        assert m.codes.tolist() == [DECOY, 0, 0, 1]

    def test_frame_header_partial(self):
        m = insert_decoys([0, 0, 1, 1, 1], DecoyStrategy.FRAME_HEADER)
        assert m.codes.tolist() == [DECOY, 0, 0, 1, DECOY, 1, 1]

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=300))
    def test_slot_count_preserved(self, bits):
        assert insert_decoys(bits, DecoyStrategy.NONE).n_slots == len(bits)
        assert insert_decoys(bits, DecoyStrategy.SUBSTITUTE_PATTERN).n_slots == len(bits)

    @given(st.lists(st.integers(0, 1), min_size=4, max_size=300))
    def test_no_adjacent_1010_survives(self, bits):
        codes = insert_decoys(bits, DecoyStrategy.SUBSTITUTE_PATTERN).codes
        for i in range(len(codes) - 3):
            window = codes[i : i + 4].tolist()
            assert window != [1, 0, 1, 0]

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=300))
    def test_frame_layout(self, bits):
        codes = insert_decoys(bits, DecoyStrategy.FRAME_HEADER).codes
        assert np.all(codes[0::4] == DECOY)
        assert (codes != DECOY).sum() == len(bits)


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
    # one pattern per slot: bit 0 is the early bin, bit 1 the late bin
    def test_data_zero(self):
        assert encode(SlotMap(np.array([0]))).tolist() == [0b01]

    def test_data_one(self):
        assert encode(SlotMap(np.array([1]))).tolist() == [0b10]

    def test_decoy(self):
        assert encode(SlotMap(np.array([DECOY]))).tolist() == [0b11]

    def test_one_zero_adjacency(self):
        train = encode(SlotMap(np.array([1, 0])))
        assert train.tolist() == [0b10, 0b01]
        assert train.dtype == np.uint8

    def test_mu_positive_required(self):
        # the pulse mean lives on SimConfig, which rejects a nonpositive one
        for mu in (0.0, -0.5):
            with pytest.raises(ValueError, match="mu"):
                SimConfig(mu=mu)

    @given(st.lists(st.integers(0, 2), min_size=1, max_size=200))
    def test_occupancy_counts(self, codes):
        slot_map = SlotMap(np.array(codes, dtype=np.uint8))
        train = encode(slot_map)
        per_slot = (train & 1) + (train >> 1)
        expect = np.where(slot_map.codes == DECOY, 2, 1)
        assert np.array_equal(per_slot, expect)


class TestSlotPatternReference:
    """The slot-pattern train against the per-bin train it replaced."""

    @given(st.lists(st.tuples(st.integers(0, DECOY), st.integers(0, 1)), min_size=1, max_size=200))
    def test_same_bins_boundaries_and_pair_levels(self, slots):
        # random codes and Eve bits, one pair per slot
        codes, eve_bits = (np.array(column, dtype=np.uint8) for column in zip(*slots))
        train = encode(SlotMap(codes))
        occ = encode_bins_reference(codes)
        assert np.array_equal(coherent_boundaries(train), coherent_boundaries_bins_reference(occ))
        bins, boundaries = np.arange(occ.size), np.arange(occ.size - 1)
        for sent, sent_bins in (
            (train, occ),
            (apply_and_mask(train, EveMask(eve_bits)), and_mask_bins_reference(occ, eve_bits)),
        ):
            assert np.array_equal(_bin_level(sent, bins), sent_bins)
            assert np.array_equal(_pair_level(sent, boundaries), pair_level_bins_reference(sent_bins))


class TestBoundaries:
    def test_single_zero(self):
        assert coherent_boundaries(encode(SlotMap(np.array([0])))).tolist() == []

    def test_single_decoy(self):
        assert coherent_boundaries(encode(SlotMap(np.array([DECOY])))).tolist() == [0]

    def test_cross_slot(self):
        assert coherent_boundaries(encode(SlotMap(np.array([1, 0])))).tolist() == [1]

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
        slot_map = insert_decoys(bits, DecoyStrategy.NONE)
        config = SimConfig(**_SATURATED)
        (slots, values), _ = receive(encode(slot_map), config, np.random.default_rng(0))
        assert slots.tolist() == list(range(len(bits)))
        assert np.array_equal(values, bits)
