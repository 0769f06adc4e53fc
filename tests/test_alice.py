import contextlib
import inspect
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cowsim.alice import (
    DECOY,
    DecoyStrategy,
    Train,
    _pattern,
    generate_raw_bits,
    insert_decoys,
)
from cowsim.bob import receive
from cowsim.engine import _SATURATED, SimConfig, _streams
import protocol_model
from pooled import SEEDS, assert_binomial
from protocol_model import ONE, ZERO, _packed, _patterns, _train, layout, pairs

# runs of 1,0,1,0,... pieced together, so chains of overlapping 1010 occur
_alternating_runs = st.lists(
    st.tuples(st.integers(0, 1), st.integers(1, 12)), min_size=1, max_size=12
).map(lambda runs: [(first + k) % 2 for first, length in runs for k in range(length)])


def _laid_out(bits, strategy):
    """insert_decoys on a list or array of bits, as a list of slot patterns."""
    return _patterns(insert_decoys(_packed(bits), len(bits), strategy))


def _unpacked(bits, n):
    """generate_raw_bits' n packed bits as a list."""
    return np.unpackbits(bits, count=n, bitorder="little").tolist()


@contextlib.contextmanager
def _counting_line_events(function, line_text):
    """Yield a one-item list counting the line events, while the block runs, on
    the line of function's source that reads line_text once stripped."""
    source, first = inspect.getsourcelines(function)
    lineno = first + [text.strip() for text in source].index(line_text)
    count = [0]

    def trace(frame, event, arg):
        if frame.f_code is not function.__code__:
            return None
        if event == "line" and frame.f_lineno == lineno:
            count[0] += 1
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        yield count
    finally:
        sys.settrace(previous)


class TestRawBits:
    def test_deterministic(self):
        a = generate_raw_bits(8, np.random.default_rng(42))
        b = generate_raw_bits(8, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_uniform(self):
        # 1M bits a seed, pooled: 5 sigma is a rate within 4.6e-4 of 1/2
        ones = [np.count_nonzero(np.unpackbits(generate_raw_bits(1_000_000, np.random.default_rng(s)))) for s in SEEDS]
        assert_binomial(ones, 1_000_000 * len(SEEDS), 0.5, "raw bits set")

    def test_single(self):
        assert generate_raw_bits(1, np.random.default_rng(0))[0] in (0, 1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            generate_raw_bits(0, np.random.default_rng(0))

    @pytest.mark.parametrize("n", [*range(1, 18), 100_001])
    @pytest.mark.parametrize("seed", [0, 7, 2024])
    def test_matches_bounded_integers(self, n, seed):
        # the bits are every bit of the raw words, low bit first, tail word
        # included, as the protocol model reads them, and a later draw
        # agrees.  The name is kept from when they equalled numpy's own
        # uniform-bit draw, rng.integers(0, 2, n), one bit per byte
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        bits = generate_raw_bits(n, rng_a)
        assert bits.dtype == np.uint8 and _unpacked(bits, n) == protocol_model.raw_bits(n, rng_b)
        assert np.array_equal(rng_a.bit_generator.random_raw(5), rng_b.bit_generator.random_raw(5))

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 2003])
    def test_advances_one_word_per_64_bits(self, n):
        # the generator ends where a fresh one does after ceil(n/64) words
        rng, ref = np.random.default_rng(n), np.random.default_rng(n)
        generate_raw_bits(n, rng)
        ref.bit_generator.advance(-(-n // 64))
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("n", [*range(1, 18), 100_001])
    def test_writable_of_length_n(self, n):
        # the bits are the raw words' first ceil(n/8) bytes, writable, with
        # every bit past n clear, and writing them moves no later draw
        rng_a, rng_b = np.random.default_rng(n), np.random.default_rng(n)
        bits = generate_raw_bits(n, rng_a)
        generate_raw_bits(n, rng_b)
        assert bits.dtype == np.uint8 and bits.shape == (-(-n // 8),) and bits.flags.writeable
        assert np.unpackbits(bits, bitorder="little")[n:].sum() == 0
        bits[:] = 9
        assert np.array_equal(generate_raw_bits(n, rng_a), generate_raw_bits(n, rng_b))
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


class TestInsertDecoys:
    def test_none(self):
        assert _laid_out([0, 1], DecoyStrategy.NONE) == [ZERO, ONE]

    def test_substitute_pattern(self):
        assert _laid_out([1, 0, 1, 0, 1], DecoyStrategy.SUBSTITUTE_PATTERN) == [DECOY, DECOY, DECOY, DECOY, ONE]

    def test_substitute_non_overlapping(self):
        # 101010: the scan consumes the first match, leaving a trailing 1,0
        train = _laid_out([1, 0, 1, 0, 1, 0], DecoyStrategy.SUBSTITUTE_PATTERN)
        assert train == [DECOY, DECOY, DECOY, DECOY, ONE, ZERO]

    def test_frame_header(self):
        assert _laid_out([0, 0, 1], DecoyStrategy.FRAME_HEADER) == [DECOY, ZERO, ZERO, ONE]

    def test_frame_header_partial(self):
        train = _laid_out([0, 0, 1, 1, 1], DecoyStrategy.FRAME_HEADER)
        assert train == [DECOY, ZERO, ZERO, ONE, DECOY, ONE, ONE]

    @pytest.mark.parametrize(
        "bits, n, message",
        [
            (np.array([256, 257]), 16, r"bits must lie in \[0, 256\), got values in \[256, 257\]"),
            (np.array([0.7, 1.9]), 16, "bits must be integers, got float64"),
            (np.array([-1, 0]), 16, r"bits must lie in \[0, 256\), got values in \[-1, 0\]"),
            # bit 9 of 9 bits: past the end
            ([0, 2], 9, r"bits must have no bit set past bit n=9"),
        ],
        ids=["wrap-on-cast", "truncate-on-cast", "negative", "two"],
    )
    @pytest.mark.parametrize("strategy", list(DecoyStrategy))
    def test_non_bits_rejected(self, bits, n, message, strategy):
        # checked before any cast to uint8, which would wrap or truncate these bytes
        with pytest.raises(ValueError, match=f"^{message}$"):
            insert_decoys(bits, n, strategy)

    @pytest.mark.parametrize(
        "bits, shape",
        [(np.array([[1, 0, 1, 0], [0, 1, 1, 0]]), r"\(2, 4\)"), (np.array(1), r"\(\)")],
        ids=["2-D", "0-d"],
    )
    @pytest.mark.parametrize("strategy", list(DecoyStrategy))
    def test_non_1d_bits_rejected(self, bits, shape, strategy):
        # NONE once returned a train of the same shape, the others numpy's own errors
        with pytest.raises(ValueError, match=f"^bits must be 1-D, got shape {shape}$"):
            insert_decoys(bits, 8, strategy)

    @pytest.mark.parametrize("strategy", list(DecoyStrategy))
    def test_empty_bits_rejected(self, strategy):
        with pytest.raises(ValueError, match="bit sequence must be nonempty"):
            insert_decoys(np.array([], dtype=np.uint8), 0, strategy)
        # and the byte count must be n's
        with pytest.raises(ValueError, match=r"^bits must be n=9 bits packed in 2 bytes, got 1$"):
            insert_decoys(np.array([1], dtype=np.uint8), 9, strategy)

    def test_strategy_must_be_a_member(self):
        # the member's value is not the member
        with pytest.raises(ValueError, match="unknown decoy strategy: 'frame-header'"):
            insert_decoys(_packed([0, 1]), 2, DecoyStrategy.FRAME_HEADER.value)

    @pytest.mark.parametrize(
        "bits",
        # bits 1, 0, 1, 0, 1 are the byte 0b10101, and True the byte 1
        [[0b10101], np.array([0b10101], dtype=np.uint8), np.array([0b10101]), np.array([True])],
        ids=["list", "uint8", "int64", "bool"],
    )
    def test_bit_inputs_accepted(self, bits):
        train = insert_decoys(bits, 5, DecoyStrategy.SUBSTITUTE_PATTERN)
        assert train.bins.dtype == np.uint8
        expect = [DECOY, DECOY, DECOY, DECOY, ONE] if np.asarray(bits).dtype != bool else [ONE] + [ZERO] * 4
        assert _patterns(train) == expect

    @pytest.mark.parametrize("dtype", [np.uint8, bool, np.int64])
    @pytest.mark.parametrize("strategy", list(DecoyStrategy))
    def test_input_unchanged(self, dtype, strategy):
        # a uint8 input is its own astype(copy=False) alias: the train must be built beside it
        bits = generate_raw_bits(1000, np.random.default_rng(3)).astype(dtype)
        before = bits.copy()
        train = insert_decoys(bits, 1000, strategy)
        assert not np.shares_memory(train.bins, bits)
        assert bits.dtype == before.dtype
        assert np.array_equal(bits, before)

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=300))
    def test_slot_count_preserved(self, bits):
        for strategy in (DecoyStrategy.NONE, DecoyStrategy.SUBSTITUTE_PATTERN):
            train = insert_decoys(_packed(bits), len(bits), strategy)
            assert train.n == len(bits) and train.bins.size == -(-len(bits) // 4)

    @given(st.lists(st.integers(0, 1), min_size=4, max_size=300))
    def test_no_adjacent_1010_survives(self, bits):
        train = _laid_out(bits, DecoyStrategy.SUBSTITUTE_PATTERN)
        for i in range(len(train) - 3):
            assert train[i : i + 4] != [ONE, ZERO, ONE, ZERO]

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=300))
    def test_frame_layout(self, bits):
        train = np.array(_laid_out(bits, DecoyStrategy.FRAME_HEADER))
        assert np.all(train[0::4] == DECOY)
        assert (train != DECOY).sum() == len(bits)

    def test_substitute_pattern_peak_memory(self):
        # the peak counts the returned train's 0.25 B per slot; with the word
        # buffers and the two spreads' temporaries it reads 1.63 B per slot
        n = 3_000_000
        bits = generate_raw_bits(n, np.random.default_rng(4242))
        tracemalloc.start()
        try:
            insert_decoys(bits, n, DecoyStrategy.SUBSTITUTE_PATTERN)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / n < 1.7


# the layouts with decoys; the protocol model's runs check the one with none
LAYOUTS = [DecoyStrategy.SUBSTITUTE_PATTERN, DecoyStrategy.FRAME_HEADER]


class TestInsertDecoysReference:
    """insert_decoys against the protocol model's layout."""

    @pytest.mark.parametrize("strategy", LAYOUTS)
    @given(bits=st.lists(st.integers(0, 1), min_size=1, max_size=64))
    def test_short_random(self, strategy, bits):
        assert _laid_out(bits, strategy) == layout(bits, strategy)

    @pytest.mark.parametrize("strategy", LAYOUTS)
    @given(bits=_alternating_runs)
    def test_alternating_runs(self, strategy, bits):
        assert _laid_out(bits, strategy) == layout(bits, strategy)

    @pytest.mark.parametrize("strategy", LAYOUTS)
    def test_every_short_length(self, strategy):
        # n < 4 and every n % 3, on the all-alternating input and its shift
        for n in range(1, 65):
            for first in (0, 1):
                bits = [(first + k) % 2 for k in range(n)]
                assert _laid_out(bits, strategy) == layout(bits, strategy)

    def test_every_bit_string(self):
        strategy = DecoyStrategy.SUBSTITUTE_PATTERN
        for n in range(1, 13):
            for value in range(2**n):
                bits = [(value >> k) & 1 for k in range(n)]
                assert _laid_out(bits, strategy) == layout(bits, strategy)

    @pytest.mark.parametrize("n", range(60, 201))
    def test_alternating_across_words(self, n):
        # chains that start just below bits 64, 128 and 192 and run to the end,
        # so they cross those word edges at every parity and end at every n
        strategy = DecoyStrategy.SUBSTITUTE_PATTERN
        for start in [0, *(edge - back for edge in (64, 128, 192) for back in range(1, 6))]:
            for first in (0, 1):
                bits = [0] * min(start, n) + [(first + k) % 2 for k in range(n - start)]
                assert _laid_out(bits, strategy) == layout(bits, strategy)

    @given(
        n=st.integers(1, 600),
        background=st.integers(0, 2**600 - 1),
        chains=st.lists(st.tuples(st.integers(0, 255), st.integers(1, 40)), min_size=1, max_size=4),
    )
    @example(n=600, background=0, chains=[(255, 40)])
    @example(n=128, background=2**128 - 1, chains=[(61, 1), (124, 1)])
    def test_chains_across_words(self, n, background, chains):
        # 1 to 40 copies of 1,0,1,0 laid end to end at offsets 0 to 255 over
        # random bits, cut at every n % 64: chains cross the 64-bit word edges
        # and end at each of them, and up to 79 starts long they take the
        # whole-byte moves k = 8 to 128 as well as the carried k = 2 and 4
        strategy = DecoyStrategy.SUBSTITUTE_PATTERN
        bits = [background >> i & 1 for i in range(n)]
        for offset, copies in chains:
            for i in range(offset, min(offset + 4 * copies, n)):
                bits[i] = (i - offset + 1) % 2
        assert _laid_out(bits, strategy) == layout(bits, strategy)

    @pytest.mark.parametrize("strategy", [DecoyStrategy.NONE, *LAYOUTS])
    @pytest.mark.parametrize("n", [1, 7, 61, 64, 65, 125, 128, 200, 1001])
    def test_reads_no_byte_past_bits(self, strategy, n):
        # generate_raw_bits returns the head of its raw words, whose bytes
        # past ceil(n/8) hold random bits: a copy with those bytes set gives the same train
        bits = generate_raw_bits(n, np.random.default_rng(n))
        words = np.full(8 * -(-n // 64), 0xFF, dtype=np.uint8)
        words[: bits.size] = bits
        train = insert_decoys(bits, n, strategy)
        padded = insert_decoys(words[: bits.size], n, strategy)
        assert np.array_equal(padded.bins, train.bins) and padded.counts == train.counts
        assert _patterns(train) == layout(_unpacked(bits, n), strategy)

    @pytest.mark.parametrize("n", [2**20 + extra for extra in range(4)])
    def test_long_alternating_closed_form(self, n):
        # 1,0,1,0,... is one chain of about n/2 starts: decoys on the first 4 * (n // 4) slots.
        # Its 0,1 twin is ZERO and then that layout on n - 1 bits.  The doubling passes
        # must grow with log n, not with the chain length.
        def layout(n):
            expect = np.full(n, DECOY, dtype=np.uint8)
            expect[4 * (n // 4) :] = [ONE, ZERO, ONE][: n % 4]
            return expect

        def patterns(train):
            return _pattern(train, np.arange(n))

        alternating = (np.arange(n) % 2 == 0).astype(np.uint8)
        with _counting_line_events(insert_decoys, "while link.any():") as passes:
            train = insert_decoys(_packed(alternating), n, DecoyStrategy.SUBSTITUTE_PATTERN)
        assert np.array_equal(patterns(train), layout(n))
        assert 0 < passes[0] <= n.bit_length()
        twin = insert_decoys(_packed(1 - alternating), n, DecoyStrategy.SUBSTITUTE_PATTERN)
        assert np.array_equal(patterns(twin), np.concatenate([[ZERO], layout(n - 1)]))

    @pytest.mark.parametrize("strategy", LAYOUTS)
    def test_long_seeded(self, strategy):
        bits = generate_raw_bits(200_000, np.random.default_rng(20_051))
        train = insert_decoys(bits, 200_000, strategy)
        assert _patterns(train) == layout(_unpacked(bits, 200_000), strategy)


class TestEncode:
    """insert_decoys' time-bin encoding: one pattern per slot, bit 0 the
    early bin and bit 1 the late bin, and bin k at bit k & 7 of byte k >> 3."""

    def test_data_zero(self):
        assert _laid_out([0], DecoyStrategy.NONE) == [0b01]

    def test_data_one(self):
        assert _laid_out([1], DecoyStrategy.NONE) == [0b10]

    def test_decoy(self):
        assert DECOY == 0b11
        assert _laid_out([1], DecoyStrategy.FRAME_HEADER) == [0b11, 0b10]

    def test_one_zero_adjacency(self):
        train = insert_decoys(_packed([1, 0]), 2, DecoyStrategy.NONE)
        assert _patterns(train) == [0b10, 0b01]
        # slot 0's bins are bits 0 and 1 of the byte, slot 1's bits 2 and 3
        assert train.bins.dtype == np.uint8 and train.bins.tolist() == [0b01_10]

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=200), st.sampled_from(DecoyStrategy))
    def test_occupancy_counts(self, bits, strategy):
        train = insert_decoys(_packed(bits), len(bits), strategy)
        assert train.bins.dtype == np.uint8
        patterns = np.array(_patterns(train))
        per_slot = (patterns & 1) + (patterns >> 1)
        expect = np.where(patterns == DECOY, 2, 1)
        assert np.array_equal(per_slot, expect)
        # 4 slots to a byte, and no bin past the last slot's
        assert np.unpackbits(train.bins, bitorder="little")[2 * train.n :].sum() == 0


class TestBoundaries:
    """The coherent boundaries are where the protocol model's pairs are 2, and
    _pack counts them, with the decoy slots, into the train it builds."""

    @staticmethod
    def _coherent(patterns):
        coherent = np.flatnonzero(pairs(patterns) == 2).tolist()
        assert _train(patterns).counts == (patterns.count(DECOY), len(coherent))
        return coherent

    def test_single_zero(self):
        assert self._coherent([ZERO]) == []

    def test_single_decoy(self):
        assert self._coherent([DECOY]) == [0]

    def test_cross_slot(self):
        assert self._coherent([ONE, ZERO]) == [1]

    @given(patterns=st.lists(st.integers(0, DECOY), max_size=200))
    @example(patterns=[])
    @example(patterns=[DECOY])
    def test_count_matches_model(self, patterns):
        n_decoy, n_coherent = _train(patterns).counts
        assert n_decoy == patterns.count(DECOY)
        assert n_coherent == np.count_nonzero(pairs(patterns) == 2)


def _model_counts(train):
    """The decoy slots and coherent boundaries of a train's slot patterns, by the protocol model."""
    patterns = _patterns(train)
    return patterns.count(DECOY), int(np.count_nonzero(pairs(patterns) == 2))


class TestCounts:
    """insert_decoys counts the decoy slots and coherent boundaries of the
    train it builds, on the words it builds it from: the counts equal the
    protocol model's on the same train's patterns."""

    @pytest.mark.parametrize("strategy", DecoyStrategy)
    @given(bits=st.one_of(st.lists(st.integers(0, 1), min_size=1, max_size=400), _alternating_runs))
    @example(bits=[1] * 127)
    @example(bits=[1, 0] * 96 + [1])
    def test_match_model(self, strategy, bits):
        train = insert_decoys(_packed(bits), len(bits), strategy)
        assert train.counts == _model_counts(train)

    @pytest.mark.parametrize("strategy", DecoyStrategy)
    def test_every_length(self, strategy):
        # every n to 400, so every n % 64 and n % 3, on random bits, all ones
        # and both alternating strings, whose chains run to the end
        rng = np.random.default_rng(400)
        for n in range(1, 401):
            for bits in (rng.integers(0, 2, n), np.ones(n), np.arange(n) % 2, np.arange(1, n + 1) % 2):
                train = insert_decoys(_packed(bits), n, strategy)
                assert train.counts == _model_counts(train), (n, bits.tolist())

    def test_bulk_attack_train(self):
        # the benchmark's bulk-attack train: 3M bits of the bits stream of seed 4242
        n = 3_000_000
        bits = generate_raw_bits(n, _streams(np.random.SeedSequence(4242))[0])
        assert insert_decoys(bits, n, DecoyStrategy.SUBSTITUTE_PATTERN).counts == (601_092, 1_679_957)


class TestRoundTrip:
    def test_noiseless_decode_recovers_bits(self):
        bits = generate_raw_bits(500, np.random.default_rng(3))
        train = insert_decoys(bits, 500, DecoyStrategy.NONE)
        config = SimConfig(**_SATURATED)
        (slots, values), _ = receive(train, config, np.random.default_rng(0))
        assert slots.tolist() == list(range(500))
        assert values.tolist() == _unpacked(bits, 500)


class TestTrain:
    """A Train is checked once, where it is built: its bins' dtype and
    length, and no bin set past its last slot."""

    @pytest.mark.parametrize("n", [0, 1, 3, 4, 5, 33, 1001])
    def test_pack_round_trip(self, n):
        patterns = np.random.default_rng(n).integers(0, DECOY + 1, size=n).tolist()
        train = _train(patterns)
        assert train.n == n and train.bins.shape == (-(-n // 4),)
        assert _patterns(train) == patterns

    @pytest.mark.parametrize(
        "bins, n, message",
        [
            (np.zeros(2, dtype=np.int64), 5, r"needs 2 uint8 bytes of bins, got int64 of shape \(2,\)"),
            (np.zeros(1, dtype=np.uint8), 5, r"needs 2 uint8 bytes of bins, got uint8 of shape \(1,\)"),
            (np.zeros((2, 1), dtype=np.uint8), 5, r"needs 2 uint8 bytes of bins, got uint8 of shape \(2, 1\)"),
            ([0, 0], 5, "needs 2 uint8 bytes of bins, got list"),
            # slot 5 of a 5-slot train: bits 10 and 11
            (np.array([0, 0b0100], dtype=np.uint8), 5, "no bin set past bin 10"),
        ],
        ids=["int64", "short", "2-D", "list", "past-the-end"],
    )
    def test_bad_bins_rejected(self, bins, n, message):
        with pytest.raises(ValueError, match=message):
            Train(bins, n)

    @pytest.mark.parametrize("n", [3.0, True, -1, "3"], ids=["float", "bool", "negative", "str"])
    def test_bad_n_rejected(self, n):
        # a float n once reached numpy's shift as a bare TypeError, and True was a 1-slot train
        with pytest.raises(ValueError, match="^a train's n must be a nonnegative integer, got "):
            Train(np.zeros(1, dtype=np.uint8), n)

    def test_numpy_integer_n(self):
        assert Train(np.zeros(1, dtype=np.uint8), np.int64(3)).n == 3

    def test_pattern_names_slots(self):
        with pytest.raises(ValueError, match=r"^patterns must lie in \[0, 4\), got values in \[1, 4\]$"):
            _train([4, 1])
