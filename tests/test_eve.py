import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cowsim.alice import DECOY, DecoyStrategy, SlotMap, encode, generate_raw_bits, insert_decoys
from cowsim.engine import Attack, SimConfig, run
from cowsim.eve import (
    EveMask,
    MaskMode,
    apply_and_mask,
    generate_mask,
    observe_transcript,
    reconstruct_key,
)
from cowsim.sifting import Transcript, TranscriptError


class TestGenerateMask:
    def test_alternating(self):
        mask = generate_mask(4, MaskMode.ALTERNATING, np.random.default_rng(0))
        assert mask.bits.tolist() == [1, 0, 1, 0]

    def test_reproducible(self):
        a = generate_mask(64, MaskMode.RANDOM, np.random.default_rng(5))
        b = generate_mask(64, MaskMode.RANDOM, np.random.default_rng(5))
        assert np.array_equal(a.bits, b.bits)

    def test_uniform(self):
        mask = generate_mask(1_000_000, MaskMode.RANDOM, np.random.default_rng(0))
        assert abs(mask.bits.mean() - 0.5) < 3 * 0.0005


class TestApplyMask:
    def _one_slot(self, code, eve_bit):
        train = encode(SlotMap(np.array([code])))
        mask = EveMask(np.array([eve_bit]), MaskMode.RANDOM)
        return apply_and_mask(train, mask).tolist()

    def test_pass_through(self):
        assert self._one_slot(0, 0) == [True, False]

    def test_blocked(self):
        assert self._one_slot(0, 1) == [False, False]

    def test_decoy_truncated(self):
        assert self._one_slot(DECOY, 1) == [False, True]

    def test_length_mismatch(self):
        train = encode(SlotMap(np.array([0, 1])))
        with pytest.raises(ValueError):
            apply_and_mask(train, EveMask(np.array([0]), MaskMode.RANDOM))

    @given(
        st.lists(st.integers(0, 2), min_size=1, max_size=200),
        st.integers(0, 2**31 - 1),
    )
    def test_occupancy_and(self, codes, seed):
        # the mask acts as a bitwise AND on bin occupancy
        slot_map = SlotMap(np.array(codes, dtype=np.uint8))
        train = encode(slot_map)
        mask = generate_mask(slot_map.n_slots, MaskMode.RANDOM, np.random.default_rng(seed))
        masked = apply_and_mask(train, mask)
        eve_occ = np.zeros(train.size, dtype=bool)
        eve_occ[0::2] = mask.bits == 0
        eve_occ[1::2] = mask.bits == 1
        assert np.array_equal(masked, train & eve_occ)
        assert np.array_equal(train, encode(slot_map))  # input untouched

    @given(
        st.lists(st.integers(0, 1), min_size=1, max_size=200),
        st.sampled_from(list(DecoyStrategy)),
        st.sampled_from(list(MaskMode)),
        st.integers(0, 2**31 - 1),
    )
    def test_decoys_destroyed(self, bits, strategy, mode, seed):
        slot_map = insert_decoys(bits, strategy)
        mask = generate_mask(slot_map.n_slots, mode, np.random.default_rng(seed))
        occupied = apply_and_mask(encode(slot_map), mask).reshape(-1, 2)
        assert not np.any(occupied.all(axis=1))

    def test_pass_through_rate(self):
        rng = np.random.default_rng(11)
        bits = generate_raw_bits(100_000, rng)
        slot_map = insert_decoys(bits, DecoyStrategy.NONE)
        mask = generate_mask(slot_map.n_slots, MaskMode.RANDOM, rng)
        occupied = apply_and_mask(encode(slot_map), mask).reshape(-1, 2)
        survived = occupied.sum(axis=1) == 1
        sigma = (0.25 / slot_map.n_slots) ** 0.5
        assert abs(survived.mean() - 0.5) < 3 * sigma


class TestTranscriptReading:
    def test_extract_kept(self):
        t = Transcript()
        t.append("DetectionReport", {"slots": [3, 7]})
        t.append("KeyIndices", {"slots": [3, 7]})
        assert observe_transcript(t).tolist() == [3, 7]

    def test_empty_report(self):
        t = Transcript()
        t.append("KeyIndices", {"slots": []})
        assert observe_transcript(t).size == 0

    def test_malformed_rejected(self):
        with pytest.raises(TranscriptError):
            observe_transcript(Transcript())


class TestReconstruct:
    def test_lookup(self):
        mask = EveMask(np.array([0, 1, 0, 1]), MaskMode.RANDOM)
        assert reconstruct_key(mask, [0, 3]).tolist() == [0, 1]

    def test_empty(self):
        mask = EveMask(np.array([0, 1]), MaskMode.RANDOM)
        assert reconstruct_key(mask, []).size == 0

    def test_out_of_range(self):
        mask = EveMask(np.array([0, 1]), MaskMode.RANDOM)
        with pytest.raises(ValueError):
            reconstruct_key(mask, [2])

    def test_exact_copy_of_key(self):
        # with no dark counts, the reconstruction equals Alice's kept bits
        config = SimConfig(n_bits=100_000, attack=Attack.AND_MASK, seed=9)
        stats, transcript, record = run(config)
        kept = observe_transcript(transcript)
        assert stats.sifted_len > 0
        assert np.array_equal(record.observed_indices, kept)
        assert stats.eve_recovery_fraction == 1.0
