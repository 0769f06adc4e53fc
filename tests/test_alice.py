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
from cowsim.bob import DetectionMode, receive
from cowsim.engine import SimConfig


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
    def test_data_zero(self):
        assert encode(SlotMap(np.array([0]))).tolist() == [True, False]

    def test_data_one(self):
        assert encode(SlotMap(np.array([1]))).tolist() == [False, True]

    def test_decoy(self):
        assert encode(SlotMap(np.array([DECOY]))).tolist() == [True, True]

    def test_one_zero_adjacency(self):
        train = encode(SlotMap(np.array([1, 0])))
        assert train.tolist() == [False, True, True, False]

    def test_mu_positive_required(self):
        # the pulse mean lives on SimConfig, which rejects a nonpositive one
        for mu in (0.0, -0.5):
            with pytest.raises(ValueError, match="mu"):
                SimConfig(mu=mu)

    @given(st.lists(st.integers(0, 2), min_size=1, max_size=200))
    def test_occupancy_counts(self, codes):
        slot_map = SlotMap(np.array(codes, dtype=np.uint8))
        occ = encode(slot_map).reshape(-1, 2)
        per_slot = occ.sum(axis=1)
        expect = np.where(slot_map.is_decoy, 2, 1)
        assert np.array_equal(per_slot, expect)


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
        config = SimConfig(channel_t=1.0, detection_mode=DetectionMode.DETERMINISTIC)
        (slots, values), _ = receive(encode(slot_map), config, np.random.default_rng(0))
        assert slots.tolist() == list(range(len(bits)))
        assert np.array_equal(values, bits)
