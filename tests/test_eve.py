import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cowsim.alice import DECOY, DecoyStrategy, _pattern, generate_raw_bits, insert_decoys
from cowsim.engine import Attack, SimConfig, run
from cowsim.eve import (
    apply_and_mask,
    generate_mask,
    observe_transcript,
    reconstruct_key,
)
from cowsim.sifting import Transcript, TranscriptError
import protocol_model
from pooled import SEEDS, assert_binomial
from protocol_model import ONE, ZERO, _packed, _patterns, _train


class TestGenerateMask:
    def test_reproducible(self):
        a = generate_mask(64, np.random.default_rng(5))
        b = generate_mask(64, np.random.default_rng(5))
        assert a.n == b.n == 64 and np.array_equal(a.bins, b.bins)

    def test_uniform(self):
        # 1M slots a seed, pooled: 5 sigma is a rate within 4.6e-4 of 1/2
        n, slots = 1_000_000, np.arange(1_000_000)
        ones = [np.count_nonzero(_pattern(generate_mask(n, np.random.default_rng(s)), slots) == ONE) for s in SEEDS]
        assert_binomial(ones, n * len(SEEDS), 0.5, "mask slots of pattern ONE")

    @pytest.mark.parametrize("n", [1, 7, 8, 1001])
    def test_patterns_of_alices_bit_draw(self, n):
        # Eve draws her bits as Alice does and lays each out as a data slot
        mask = generate_mask(n, np.random.default_rng(3))
        assert mask.bins.dtype == np.uint8 and mask.n == n
        bits = protocol_model.raw_bits(n, np.random.default_rng(3))
        assert _patterns(mask) == [ONE if b else ZERO for b in bits]

    @pytest.mark.parametrize("n", [*range(1, 18), 100_001])
    def test_raw_bits_plus_one(self, n):
        # Eve's patterns are Alice's bit draw plus one, n slots in writable
        # bytes, and leave the generator where Alice's draw does
        rng_a, rng_b = np.random.default_rng(n), np.random.default_rng(n)
        mask = generate_mask(n, rng_a)
        expect = np.unpackbits(generate_raw_bits(n, rng_b), count=n, bitorder="little") + 1
        assert mask.bins.shape == (-(-n // 4),) and mask.bins.flags.writeable
        assert _patterns(mask) == expect.tolist()
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


class TestApplyMask:
    def _one_slot(self, pattern, eve_pattern):
        return _patterns(apply_and_mask(_train([pattern]), _train([eve_pattern])))

    # slot patterns: bit 0 is the early bin, bit 1 the late bin
    def test_pass_through(self):
        assert self._one_slot(ZERO, ZERO) == [0b01]

    def test_blocked(self):
        assert self._one_slot(ZERO, ONE) == [0b00]

    def test_decoy_truncated(self):
        assert self._one_slot(DECOY, ONE) == [0b10]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            apply_and_mask(_train([ZERO, ONE]), _train([ZERO]))

    @pytest.mark.parametrize(
        "train, mask, message",
        [
            # int64 -1 has every bit set, so it once passed slot 0 untouched
            ([ZERO, ONE, DECOY, ONE], np.array([-1, 2, 1, 2]),
             r"^patterns must lie in \[0, 4\), got values in \[-1, 2\]$"),
            ([ZERO, ONE], np.array([1.0, 2.0]), "^patterns must be integers, got float64$"),
            ([ZERO, ONE], [[ZERO, ONE]], r"^patterns must be 1-D, got shape \(1, 2\)$"),
            (np.array([1.0, 2.0]), [ZERO, ONE], "^patterns must be integers, got float64$"),
            (np.array([4, 1]), [ZERO, ONE], r"^patterns must lie in \[0, 4\), got values in \[1, 4\]$"),
        ],
        ids=["negative-mask", "float-mask", "2-D-mask", "float-train", "train-past-decoy"],
    )
    def test_bad_input_named(self, train, mask, message):
        # a train or a mask is checked once, where it is built, so none of these reaches the AND
        with pytest.raises(ValueError, match=message):
            apply_and_mask(_train(train), _train(mask))

    @pytest.mark.parametrize("name", ["train", "mask"])
    def test_rejects_pattern_array(self, name):
        inputs = {"train": _train([ZERO, ONE]), "mask": _train([ONE, ONE])}
        inputs[name] = np.array([ZERO, ONE], dtype=np.uint8)
        with pytest.raises(ValueError, match=f"^{name} must be an alice.Train, got ndarray$"):
            apply_and_mask(**inputs)

    def test_bool_and_int64_inputs_as_uint8(self):
        masked = apply_and_mask(_train(np.array([ZERO, DECOY, ONE])), _train(np.array([True, True, False])))
        assert masked.bins.dtype == np.uint8 and _patterns(masked) == [ZERO, ZERO, 0]

    @given(
        st.lists(st.sampled_from([ZERO, ONE, DECOY]), min_size=1, max_size=200),
        st.integers(0, 2**31 - 1),
    )
    def test_occupancy_and(self, patterns, seed):
        # the mask acts as a bitwise AND on each slot's bin pattern
        train = _train(patterns)
        mask = generate_mask(train.n, np.random.default_rng(seed))
        masked = apply_and_mask(train, mask)
        eve_bits = protocol_model.raw_bits(train.n, np.random.default_rng(seed))
        assert _patterns(masked) == [t & (b + 1) for t, b in zip(patterns, eve_bits)]
        assert np.array_equal(masked.bins, train.bins & mask.bins)  # a byte AND
        assert _patterns(train) == patterns  # input untouched

    @given(
        st.lists(st.integers(0, 1), min_size=1, max_size=200),
        st.sampled_from(list(DecoyStrategy)),
        st.integers(0, 2**31 - 1),
    )
    def test_decoys_destroyed(self, bits, strategy, seed):
        train = insert_decoys(_packed(bits), len(bits), strategy)
        mask = generate_mask(train.n, np.random.default_rng(seed))
        sent = apply_and_mask(train, mask)
        assert 0b11 not in _patterns(sent)

    def test_pass_through_rate(self):
        # 100k data slots a seed, pooled: 5 sigma is a rate within 1.4e-3 of 1/2
        n, survived = 100_000, []
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            train = insert_decoys(generate_raw_bits(n, rng), n, DecoyStrategy.NONE)
            sent = apply_and_mask(train, generate_mask(train.n, rng))
            survived.append(np.count_nonzero(_pattern(sent, np.arange(n))))
        assert_binomial(survived, n * len(SEEDS), 0.5, "data slots the mask passes")


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

    def test_replayed_array_returned_itself(self):
        # the replay reads the list as an int64 array; int64's top value fits
        t = Transcript.from_jsonl('{"kind": "KeyIndices", "slots": [0, 9223372036854775807]}')
        slots = observe_transcript(t)
        assert slots is t.messages["KeyIndices"]["slots"]
        assert slots.tolist() == [0, 2**63 - 1]

    @pytest.mark.parametrize("layout", ["compact", "leading-blank"])
    @pytest.mark.parametrize("eol", ["", "\r\n"], ids=["no-eol", "crlf"])
    def test_fallback_line_holds_the_canonical_array(self, layout, eol):
        # a line in another layout holds what its to_jsonl twin holds
        record = {"kind": "KeyIndices", "slots": [3, 70, 2**40]}
        canonical = Transcript.from_jsonl(json.dumps(record, sort_keys=True))
        if layout == "compact":
            line = json.dumps(record, separators=(",", ":"))
        else:
            line = " " + json.dumps(record, sort_keys=True)
        fallback = Transcript.from_jsonl(line + eol)
        twins = [t.messages["KeyIndices"]["slots"] for t in (canonical, fallback)]
        assert all(isinstance(a, np.ndarray) and a.dtype == np.int64 for a in twins)
        assert np.array_equal(*twins)
        assert np.array_equal(observe_transcript(canonical), observe_transcript(fallback))

    @pytest.mark.parametrize("source", ["replayed", "appended"])
    @pytest.mark.parametrize(
        "slots",
        [
            "[1.5]",
            "[[1]]",
            "[true]",
            "[1, true]",
            '"ab"',
            "[1e30]",
            "[100000000000000000000]",
            "[9223372036854775808]",
            "[-9223372036854775809]",
            "null",
            None,
        ],
    )
    def test_bad_slots(self, slots, source):
        # a replayed file or a hand-built payload is outside input: anything but
        # a list of integers that fit in int64 is a TranscriptError, never a silent cast
        field = "" if slots is None else f', "slots": {slots}'
        line = '{"kind": "KeyIndices"' + field + "}"
        if source == "replayed":
            t = Transcript.from_jsonl(line)
        else:
            payload = json.loads(line)
            t = Transcript()
            t.append(payload.pop("kind"), payload)
        assert not isinstance(t.messages["KeyIndices"].get("slots"), np.ndarray)
        with pytest.raises(TranscriptError, match="KeyIndices"):
            observe_transcript(t)


class TestReconstruct:
    def test_lookup(self):
        mask = _train([ZERO, ONE, ZERO, ONE])
        assert reconstruct_key(mask, [0, 3]).tolist() == [0, 1]

    def test_empty(self):
        mask = _train([ZERO, ONE])
        assert reconstruct_key(mask, []).size == 0

    def test_out_of_range(self):
        mask = _train([ZERO, ONE])
        with pytest.raises(ValueError):
            reconstruct_key(mask, [2])

    @pytest.mark.parametrize(
        "mask, message",
        [
            # patterns 5, 9 and 3 once read as key bits 2, 4 and 1
            (np.array([5, 9, 3]), r"^patterns must lie in \[0, 4\), got values in \[3, 9\]$"),
            (np.array([1.0, 2.0, 1.0]), "^patterns must be integers, got float64$"),
            ([[ZERO, ONE, ONE]], r"^patterns must be 1-D, got shape \(1, 3\)$"),
        ],
        ids=["past-decoy", "float", "2-D"],
    )
    def test_bad_mask_named(self, mask, message):
        # a mask is checked once, where it is built, so none of these reaches the lookup
        with pytest.raises(ValueError, match=message):
            reconstruct_key(_train(mask), [0, 1, 2])

    def test_rejects_pattern_array(self):
        with pytest.raises(ValueError, match="^mask must be an alice.Train, got ndarray$"):
            reconstruct_key(np.array([ZERO, ONE, ONE], dtype=np.uint8), [0, 1, 2])

    def test_2d_indices_rejected(self):
        # a 2-D index would read a 2-D key
        with pytest.raises(ValueError, match=r"kept_indices must be 1-D, got shape \(1, 2\)"):
            reconstruct_key(_train([ZERO, ONE]), [[0, 1]])

    @pytest.mark.parametrize("kept", [np.array([1.9]), np.array([0.0])], ids=["1.9", "0.0"])
    def test_float_indices_rejected(self, kept):
        # a float would be truncated to a slot index: 1.9 would read slot 1
        with pytest.raises(ValueError, match="kept_indices must be integers"):
            reconstruct_key(_train([ZERO, ONE]), kept)

    def test_bool_indices_rejected(self):
        # a bool array would index as a mask, not as slots 1 and 0
        with pytest.raises(ValueError, match="^kept_indices must be integers, got bool$"):
            reconstruct_key(_train([ZERO, ONE]), np.array([True, False]))

    def test_exact_copy_of_key(self):
        # with no dark counts, the reconstruction equals Alice's kept bits
        config = SimConfig(n_bits=100_000, attack=Attack.AND_MASK, seed=9)
        stats, transcript, record = run(config)
        kept = observe_transcript(transcript)
        assert stats.sifted_len > 0
        assert np.array_equal(record.reconstructed_key, reconstruct_key(record.mask, kept))
        assert stats.eve_recovery_fraction == 1.0
