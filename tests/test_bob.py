import functools
import math
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cowsim.alice import DECOY, DecoyStrategy, Train, _bin_level, generate_raw_bits, insert_decoys
from cowsim.bob import _sample_clicks, data_click_probability, detect_data, monitor_click_probability, receive
from cowsim.engine import _SATURATED, SimConfig
from cowsim.eve import apply_and_mask, generate_mask
import protocol_model
from pooled import SEEDS, assert_binomial
from protocol_model import ONE, ZERO, _patterns, _train
from test_sifting import NO_VERIFY, _sift_monitor

IDEAL = SimConfig(channel_t=1.0, t_b=0.9, eta_data=1.0, eta_mon=1.0)
NOISY = SimConfig(p_dark_data=1e-3, p_dark_mon=1e-3, visibility=0.98)
# every click probability 0 or 1: the detectors click exactly where light arrives
ORACLE = replace(IDEAL, **_SATURATED)


def _grid(positions, n):
    """n booleans, True at the given positions."""
    grid = np.zeros(n, dtype=bool)
    grid[np.asarray(positions, dtype=np.int64)] = True
    return grid


def _sample_levels(p, level, rng):
    """_sample_clicks over the positions of a level array, looked up by index."""
    return _sample_clicks(p, level.size, level.__getitem__, rng)


def _sampled_grid(p, level, rng):
    """_sample_clicks' positions on the grid of level, after checking they are sorted."""
    pos = _sample_levels(p, level, rng)
    assert np.all(np.diff(pos) > 0)
    return _grid(pos, level.size)


def _slot_train(bins, n_slots):
    """The train of n_slots whose occupied bins are the given bin indices: its
    bins' bit string is their grid, packed 8 to a byte, low bit first."""
    return Train(np.packbits(_grid(bins, 2 * n_slots), bitorder="little"), n_slots)


class TestReceive:
    def test_decoy_single_click(self):
        (slots, values), _ = receive(_train([DECOY]), ORACLE, np.random.default_rng(0))
        assert (slots.tolist(), values.tolist()) == ([0], [0])

    def test_empty_train_silent(self):
        train = _train([0] * 5)  # five slots, ten empty bins
        (slots, values), monitor = receive(train, IDEAL, np.random.default_rng(0))
        assert (slots.size, values.size, monitor.size) == (0, 0, 0)
        assert monitor.dtype == np.int64

    def test_detection_statistics(self):
        # pooled over seeds, per slot pattern: a slot is detected unless
        # neither of its bins clicks, each bin with the data click probability
        # of its pulses.  A data slot's is 1 - exp(-mu t t_b eta) without darks
        patterns = _levels(20_000, 4, 21)
        train = _train(patterns)
        clean = SimConfig(channel_t=0.5, t_b=0.9, eta_data=0.1)
        assert data_click_probability(clean)[1] == pytest.approx(1 - math.exp(-0.5 * 0.5 * 0.9 * 0.1))
        for config in (clean, NOISY):
            p_bin = data_click_probability(config)
            k = np.zeros(4, dtype=np.int64)
            for seed in SEEDS:
                (slots, _), _ = receive(train, config, np.random.default_rng(seed))
                k += np.bincount(patterns[slots], minlength=4)
            for pattern in range(4):
                p = 1 - (1 - p_bin[pattern & 1]) * (1 - p_bin[pattern >> 1])
                n = np.count_nonzero(patterns == pattern) * len(SEEDS)
                assert_binomial(k[pattern], n, p, f"pattern {pattern}, {config}")

    def test_dark_counts_respect_dead_time(self):
        config = replace(IDEAL, p_dark_data=0.9)
        (slots, _), _ = receive(_train([0] * 1000), config, np.random.default_rng(2))
        assert slots.size > 0 and np.all(np.diff(slots) > 0)

    def test_zero_noise_soundness(self):
        bits = generate_raw_bits(5000, np.random.default_rng(8))
        (slots, values), _ = receive(insert_decoys(bits, 5000, DecoyStrategy.NONE), IDEAL, np.random.default_rng(3))
        assert slots.size > 0
        assert np.array_equal(values, np.unpackbits(bits, bitorder="little")[slots])

    def test_decoy_misinterpreted_as_zero(self):
        (slots, values), _ = receive(_train([DECOY] * 50), ORACLE, np.random.default_rng(0))
        assert slots.tolist() == list(range(50))
        assert not values.any()

    @pytest.mark.parametrize("attack", [False, True])
    @pytest.mark.parametrize("strategy", list(DecoyStrategy))
    def test_both_detectors_report_sorted_positions(self, strategy, attack):
        # dark counts on both detectors give clicks everywhere, ends included
        train = insert_decoys(generate_raw_bits(3000, np.random.default_rng(12)), 3000, strategy)
        if attack:
            train = apply_and_mask(train, generate_mask(train.n, np.random.default_rng(13)))
        config = replace(IDEAL, p_dark_data=0.2, p_dark_mon=0.2)
        (slots, values), monitor = receive(train, config, np.random.default_rng(14))
        for positions, end in ((slots, train.n), (monitor, 2 * train.n - 1)):
            assert positions.dtype == np.int64 and positions.size > 0
            assert np.all(np.diff(positions) > 0)
            assert positions[0] >= 0 and positions[-1] < end
        assert values.dtype == np.uint8 and values.shape == slots.shape

    @pytest.mark.parametrize(
        "train",
        [
            np.array([259, 257]),  # wraps to a decoy and a data 0
            np.array([3.7, 1.2]),  # truncates to a decoy and a data 0
            np.array([7, 1], dtype=np.uint8),
            np.array([-1, 1]),
        ],
    )
    def test_rejects_patterns_outside_range(self, train):
        # a train is checked where it is built, so no such train reaches receive
        with pytest.raises(ValueError, match="patterns"):
            receive(_train(train), ORACLE, np.random.default_rng(0))

    def test_rejects_pattern_array(self):
        # a train is an alice.Train, never a bare array of slot patterns
        with pytest.raises(ValueError, match="^train must be an alice.Train, got ndarray$"):
            receive(np.array([ZERO, ONE], dtype=np.uint8), ORACLE, np.random.default_rng(0))

    def test_empty_list_is_an_empty_train(self):
        (slots, values), monitor = receive(_train([]), IDEAL, np.random.default_rng(0))
        assert (slots.size, values.size, monitor.size) == (0, 0, 0)

    def test_int64_train_matches_uint8(self):
        train = np.random.default_rng(15).integers(0, DECOY + 1, size=3000)
        assert train.dtype == np.int64
        config = replace(IDEAL, p_dark_data=0.2, p_dark_mon=0.2)
        wide = receive(_train(train), config, np.random.default_rng(16))
        narrow = receive(_train(train.astype(np.uint8)), config, np.random.default_rng(16))
        (wide_slots, wide_values), wide_monitor = wide
        (slots, values), monitor = narrow
        assert np.array_equal(wide_slots, slots) and np.array_equal(wide_values, values)
        assert np.array_equal(wide_monitor, monitor) and slots.size > 0


def _levels(n, n_levels, seed):
    return np.random.default_rng(seed).integers(0, n_levels, size=n, dtype=np.uint8)


class TestSampleClicks:
    @pytest.mark.parametrize(
        "p",
        [
            [0.0, 0.022],  # the data detector at the defaults
            [1e-5, 6e-4, 1e-5],  # the monitor with darks
            [0.0, 1.0],
            [0.3, 1.0, 0.0],  # p_max of exactly 1
            [0.5, 0.34, 0.9],  # not monotone in the level
            [0.0, 0.0],
        ],
    )
    @pytest.mark.parametrize("seed", [3, 4])
    def test_per_level_binomial(self, p, seed):
        # seed lays the levels out, and the draws are pooled over SEEDS: each
        # level's click count is Binomial(n_j, p_j) exactly, for p_j of 0 or 1 too
        p = np.array(p)
        level = _levels(100_000, p.size, seed)
        k = np.zeros(p.size, dtype=np.int64)
        for draw_seed in SEEDS:
            pos = _sample_levels(p, level, np.random.default_rng(draw_seed))
            k += np.bincount(level[pos], minlength=p.size)
        for j, p_j in enumerate(p):
            assert_binomial(k[j], np.count_nonzero(level == j) * len(SEEDS), p_j, f"level {j}")

    @pytest.mark.parametrize("p", [0.05, 0.5, 1.0])
    def test_every_position_clicks_at_rate_p(self, p):
        # 6-bin trains, 10k draws from one generator: the first and last
        # bins click as often as the middle ones (no off-by-one in the gaps)
        rng = np.random.default_rng(11)
        level = np.zeros(6, dtype=np.uint8)
        trials = 10_000
        counts = sum(_sampled_grid(np.array([p]), level, rng).astype(int) for _ in range(trials))
        assert np.all(np.abs(counts - trials * p) <= 5 * math.sqrt(trials * p * (1 - p)))

    @pytest.mark.parametrize("n", [0, 1])
    def test_tiny_trains(self, n):
        p, rng = np.array([0.0, 1.0]), np.random.default_rng(2)
        assert _sample_levels(p, np.ones(n, dtype=np.uint8), rng).tolist() == list(range(n))
        assert _sample_levels(p, np.zeros(n, dtype=np.uint8), rng).size == 0

    @pytest.mark.parametrize("p_max", [5e-324, 1e-20])
    def test_tiny_p_max(self, p_max):
        # a gap's quotient passes int64 here, and is inf at 5e-324: the gaps
        # must neither wrap in the cumulative sum nor land a click on the last bin
        level = _levels(1_000_000, 2, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="raise"):
                clicks = _sample_levels(np.array([0.0, p_max]), level, np.random.default_rng(6))
        assert clicks.size == 0

    def test_saturated_gap_in_a_later_chunk(self):
        # a later chunk of gaps starts inside the train, after position 1,
        # and its saturated gap (the smallest U over p_max = 1e-20, about
        # 3.6e21, past the 2**52 below which the step from float to int64 is
        # exact) must still land past the end, counted from there
        class SaturatingRng:
            calls = 0

            @property
            def bit_generator(self):
                return self

            def random_raw(self, size):
                # each chunk is one word here.  The first two words are 0,
                # U = 1, gaps of 1, so the third chunk starts after position
                # 1; then every word's bits set, U = 2**-52; the keep words
                # are never read here
                self.calls += 1
                return np.zeros(size, dtype=np.uint64) if self.calls <= 2 else np.full(size, ~np.uint64(0))

            def advance(self, delta):
                return self

        clicks = _sample_levels(np.array([0.0, 1e-20]), np.ones(10, dtype=np.uint8), SaturatingRng())
        assert clicks.tolist() == [0, 1]

    @pytest.mark.parametrize("p_max", [5e-324, 1e-20, np.nextafter(1 / 3, 0), 1 / 3, 0.5, 1.0])
    def test_gap_formula_edges(self, p_max):
        # the one gap formula at both ends of p_max and where numpy's geometric
        # once switched methods: no float error or warning, no NaN gap, and
        # positions that neither wrap nor leave the train.  At p_max = 1 every
        # gap is 1, so every position of the top level clicks
        level = _levels(100_001, 2, 27)
        p = np.array([p_max / 2, p_max])
        rng, ref = np.random.default_rng(28), np.random.default_rng(28)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="raise"):
                pos = _sample_levels(p, level, rng)
                expected = protocol_model.clicks(p, level.size, level.__getitem__, ref)
                gaps = protocol_model.gaps(np.random.default_rng(28).bit_generator.random_raw(100), p_max)
        assert not np.isnan(gaps).any() and np.all(gaps >= 1)
        assert np.array_equal(pos, expected) and rng.bit_generator.state == ref.bit_generator.state
        assert np.all(np.diff(pos) > 0) and (pos.size == 0 or 0 <= pos[0] <= pos[-1] < level.size)
        if p_max == 1.0:
            assert np.all(gaps == 1) and np.array_equal(pos[level[pos] == 1], np.flatnonzero(level == 1))

    @pytest.mark.parametrize("p", [[0.0, 0.022], [1e-3, 0.5, 0.0], [0.2, 1.0], [0.0, 0.0]])
    def test_draws_depend_only_on_n_and_p_max(self, p):
        # two different trains of one length leave the generator in one state
        p = np.array(p)
        rng_a, rng_b = np.random.default_rng(8), np.random.default_rng(8)
        _sample_levels(p, _levels(50_001, p.size, 1), rng_a)
        _sample_levels(p, np.zeros(50_001, dtype=np.uint8), rng_b)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @pytest.mark.parametrize(
        "p, thinned",
        [
            ([0.0, 0.022], False),  # the data detector at the defaults
            (monitor_click_probability(SimConfig()).tolist(), False),  # [0, x, 0]
            ([0.3, 0.3], False),
            ([1e-5, 0.022], True),  # a dark count thins the empty bins
        ],
    )
    @pytest.mark.parametrize("seed", [3, 4])
    def test_keep_words_drawn_only_when_thinned(self, p, thinned, seed):
        # the model draws every keep word; with no level strictly between 0
        # and p_max the sampler advances past them instead, to the same state
        p, level = np.array(p), _levels(100_001, len(p), seed)
        ours, ref = _CallRecorder(seed + 100), _CallRecorder(seed + 100)
        pos = _sample_levels(p, level, ours)
        assert np.array_equal(pos, protocol_model.clicks(p, level.size, level.__getitem__, ref))
        assert ours.rng.bit_generator.state == ref.rng.bit_generator.state
        keep_draw = ref.calls[-1]
        assert keep_draw[0] == "random_raw" and keep_draw[1] > 0
        assert ours.calls == ref.calls[:-1] + [keep_draw if thinned else ("advance", keep_draw[1])]

    @pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.SFC64])
    @pytest.mark.parametrize("p_dark", [0.0, 1e-5])
    def test_refuses_a_generator_that_cannot_advance(self, bit_generator, p_dark):
        # with or without dark counts, so what is accepted does not hang on them
        config = SimConfig(p_dark_data=p_dark, p_dark_mon=p_dark)
        with pytest.raises(ValueError, match="rng"):
            receive(_train([DECOY, ONE, ZERO]), config, np.random.Generator(bit_generator(1)))


class _CallRecorder:
    """A PCG64 for _sample_clicks and the protocol model's sampler that
    records each random_raw and advance call with its size."""

    def __init__(self, seed):
        self.rng, self.calls = np.random.default_rng(seed), []

    @property
    def bit_generator(self):
        return self

    def random_raw(self, size):
        self.calls.append(("random_raw", size))
        return self.rng.bit_generator.random_raw(size)

    def advance(self, delta):
        self.calls.append(("advance", delta))
        self.rng.bit_generator.advance(delta)
        return self


class _ChunkCounter:
    """Raw words for _sample_clicks and the protocol model's sampler alike.
    It counts the chunks of gap words drawn from it and cuts each to at most
    cap words, so that a long train needs many of them.  With a cap it sums
    the gaps by the model's rule, so once they cover the n positions at
    p_max it knows the next draw holds the candidates' keep words, and leaves
    that draw whole; uncut, every draw but that last one is a chunk."""

    def __init__(self, seed, n, p_max, cap=None):
        self.rng, self.n, self.p_max, self.cap = np.random.default_rng(seed), n, p_max, cap
        self.draws, self.end = 0, 0

    @property
    def bit_generator(self):
        return self

    @property
    def chunks(self):
        return self.draws - 1

    def random_raw(self, size):
        self.draws += 1
        if self.cap is None or self.end >= self.n:
            return self.rng.bit_generator.random_raw(size)
        words = self.rng.bit_generator.random_raw(min(size, self.cap))
        # clipped or not, a gap past the end leaves the sum past it
        self.end += _gap_sum(words.tobytes(), self.p_max)
        return words

    def advance(self, delta):
        # skipping the candidates' keep words stands for their draw
        self.draws += 1
        self.rng.bit_generator.advance(delta)
        return self


@functools.lru_cache(maxsize=2**14)
def _gap_sum(words: bytes, p_max: float) -> float:
    """The sum of the model's gaps over raw words, once for both counters of a
    comparison, which see the same words."""
    return float(protocol_model.gaps(np.frombuffer(words, dtype=np.uint64), p_max).sum())


# 1/3 is where numpy's geometric turns from inverting an exponential to a
# search, which the sampler once used above it; the one gap formula must
# not tell the two sides apart
_P_MAX = [5e-324, 1e-20, 1e-9, 1e-3, 0.0223, np.nextafter(1 / 3, 0), 1 / 3, 0.5, 1.0]


class TestMatchesGeometric:
    """_sample_clicks returns the protocol model's click positions, every gap
    by the model's one formula, and leaves its generator in the model's state.
    The class keeps its name from when the model drew its gaps by
    rng.geometric."""

    @staticmethod
    def _assert_same(p, level, seed, cap=None):
        ours, ref = (_ChunkCounter(seed, level.size, float(np.max(p)), cap) for _ in range(2))
        pos = _sample_levels(p, level, ours)
        expected = protocol_model.clicks(p, level.size, level.__getitem__, ref)
        assert pos.dtype == np.int64 and np.array_equal(pos, expected)
        assert ours.rng.bit_generator.state == ref.rng.bit_generator.state
        assert ours.chunks == ref.chunks
        return ours.chunks

    @pytest.mark.parametrize("p_max", _P_MAX)
    def test_one_chunk(self, p_max):
        p = np.array([0.0, p_max, p_max / 2])
        assert self._assert_same(p, _levels(200_001, 3, 21), 22) == 1

    @pytest.mark.parametrize("p_max", _P_MAX)
    def test_many_chunks(self, p_max):
        # at most 50 gaps a chunk: a later chunk starts inside the train
        chunks = self._assert_same(np.array([0.0, p_max]), _levels(100_000, 2, 23), 24, cap=50)
        assert chunks > 1 or p_max < 1e-3

    @pytest.mark.parametrize("p_max", [1e-6, 1e-3, 0.01])
    def test_second_chunk_uncut(self, p_max):
        # with at most 0.036 expected candidates a chunk is one gap, and a gap
        # short of the end needs a second chunk in 2-4% of the seeds
        level = np.ones(int(0.036 / p_max), dtype=np.uint8)
        chunks = [self._assert_same(np.array([0.0, p_max]), level, seed) for seed in range(300)]
        assert max(chunks) > 1

    @settings(max_examples=200, deadline=None)
    @given(
        p_max=st.sampled_from(_P_MAX) | st.floats(0.0, 1.0, exclude_min=True),
        n=st.integers(0, 5000),
        seed=st.integers(0, 2**32 - 1),
        cap=st.none() | st.integers(1, 50),
    )
    def test_any_p_max(self, p_max, n, seed, cap):
        self._assert_same(np.array([p_max / 3, p_max]), _levels(n, 2, seed), seed, cap)

    # the levels' click probabilities as fractions of p_max, each thinned
    # level by level: a table with two levels at the top, one with a level
    # at 0 beside positive ones, and the monitor's at visibility < 0.5,
    # where the intact pair (level 2) is the top level
    @pytest.mark.parametrize(
        "shape",
        [[1.0, 1.0, 0.5], [0.0, 0.5, 1.0, 0.0], [0.1, 0.5, 1.0]],
        ids=["tied-top", "zero-level", "top-last"],
    )
    @pytest.mark.parametrize("cap", [None, 50])
    @pytest.mark.parametrize("p_max", _P_MAX)
    def test_level_tables(self, shape, cap, p_max):
        p = np.array(shape) * p_max
        self._assert_same(p, _levels(100_000, p.size, 25), 26, cap)


class TestBinLevel:
    """_bin_level, in uint8 and in place, equals the protocol model's per-bin
    pulses, and leaves its inputs as they were."""

    # the four slot patterns in turn over 40,000 slots: positions past 255
    # and past 65,535, whose uint8 cast drops high bits but keeps bits 0 to 2
    PATTERNS = np.tile(np.arange(4, dtype=np.uint8), 10_000).tolist()

    @pytest.mark.parametrize(
        "pos",
        [
            np.arange(80_000, dtype=np.int64),
            np.array([255, 256, 257, 511, 512, 65_535, 65_536, 65_537, 79_999], dtype=np.int64),
            np.random.default_rng(3).integers(0, 80_000, 5_000),
        ],
        ids=["every-bin", "byte-edges", "random"],
    )
    def test_matches_int64_expression(self, pos):
        train, pos_before = _train(self.PATTERNS), pos.copy()
        bins_before = train.bins.copy()
        level = _bin_level(train, pos)
        assert level.dtype == np.uint8 and level.tolist() == protocol_model.bins(self.PATTERNS)[pos].tolist()
        assert np.array_equal(train.bins, bins_before) and np.array_equal(pos, pos_before)


class TestDetectData:
    NOISY = SimConfig(p_dark_data=1e-3, p_dark_mon=1e-3, visibility=0.98)
    TRAIN = insert_decoys(generate_raw_bits(40_000, np.random.default_rng(9)), 40_000, DecoyStrategy.NONE)

    def test_receive_draws_data_then_monitor(self):
        # receive draws the data detector's numbers, then the monitor's, as the protocol model does
        train, rng_a, rng_b = self.TRAIN, np.random.default_rng(5), np.random.default_rng(5)
        (slots, values), monitor = receive(train, self.NOISY, rng_a)
        expected = protocol_model.receive(_patterns(train), self.NOISY, rng_b)
        assert ((slots.tolist(), values.tolist()), monitor.tolist()) == expected
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @pytest.mark.parametrize(
        "train, error",
        [
            (np.array([259, 258, 257]), r"^patterns must lie in \[0, 4\), got values in \[257, 259\]$"),
            (np.array([1.7, 2.2]), "^patterns must be integers, got float64$"),
            (np.array([-1]), r"^patterns must lie in \[0, 4\), got values in \[-1, -1\]$"),
            (np.array([[1, 2]]), r"^patterns must be 1-D, got shape \(1, 2\)$"),
        ],
        ids=["wraps", "truncates", "negative", "2-D"],
    )
    def test_rejects_bad_train(self, train, error):
        # a train is checked once, where it is built, so a bad one never reaches a draw
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=error):
            detect_data(_train(train), IDEAL, rng)
        assert rng.bit_generator.state == state

    def test_rejects_pattern_array(self):
        # the one check detect_data makes on its train, before any draw
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="^train must be an alice.Train, got ndarray$"):
            detect_data(np.array([ZERO, ONE], dtype=np.uint8), IDEAL, rng)
        assert rng.bit_generator.state == state

    def test_receive_checks_its_train_once(self):
        # once, where it was built: receive neither checks nor builds a train
        train = _train([ZERO, DECOY, ONE])
        with mock.patch.object(Train, "__post_init__", wraps=train.__post_init__) as spy:
            receive(train, IDEAL, np.random.default_rng(0))
        assert spy.call_count == 0


class TestCoupling:
    @given(
        patterns=st.lists(st.sampled_from([ZERO, ONE, DECOY]), min_size=1, max_size=300),
        mask_seed=st.integers(0, 2**32 - 1),
        p_dark_data=st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.999),
        p_dark_mon=st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.999),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_mask_only_removes_detected_slots(
        self, patterns, mask_seed, p_dark_data, p_dark_mon, seed
    ):
        # with one detector seed, the masked and unmasked trains draw the
        # same uniforms, so a slot detected with the mask on is detected with
        # it off.  Per bin this fails: a mask that blocks a decoy's early bin
        # can let its late bin click where the early click would shadow it.
        train = _train(patterns)
        mask = generate_mask(train.n, np.random.default_rng(mask_seed))
        masked = apply_and_mask(train, mask)
        config = replace(IDEAL, p_dark_data=p_dark_data, p_dark_mon=p_dark_mon)
        rng_on, rng_off = np.random.default_rng(seed), np.random.default_rng(seed)
        (on, _), _ = receive(masked, config, rng_on)
        (off, _), _ = receive(train, config, rng_off)
        assert rng_on.bit_generator.state == rng_off.bit_generator.state
        assert np.all(np.isin(on, off))


class TestDecode:
    # saturated detection clicks exactly in the occupied bins

    @staticmethod
    def _detect(bins):
        return detect_data(_slot_train(bins, 4), ORACLE, np.random.default_rng(0))

    def test_early_bin(self):
        slots, values = self._detect([0])
        assert (slots.tolist(), values.tolist()) == ([0], [0])

    def test_mapping(self):
        slots, values = self._detect([0, 5, 7])
        assert (slots.tolist(), values.tolist()) == ([0, 2, 3], [0, 1, 1])

    def test_pair_example(self):
        slots, values = self._detect([0, 7])
        assert (slots.tolist(), values.tolist()) == ([0, 3], [0, 1])

    def test_both_bins_early_wins(self):
        slots, values = self._detect([2, 3])  # both bins of slot 1
        assert (slots.tolist(), values.tolist()) == ([1], [0])


class TestFirstClick:
    @given(
        patterns=st.lists(st.sampled_from([0, ZERO, ONE, DECOY]), max_size=300),
        saturated=st.booleans(),
        p_dark_data=st.sampled_from([0.0, 0.5, 0.999]) | st.floats(0.0, 0.999),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_diff_rule(self, patterns, saturated, p_dark_data, seed):
        # each slot's first click, as the protocol model keeps it
        # saturated, every decoy slot clicks in both bins, and at large
        # p_dark_data so do many others: the early click must win
        train = _train(patterns)
        config = replace(ORACLE if saturated else SimConfig(), p_dark_data=p_dark_data)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        slots, values = detect_data(train, config, rng)
        assert slots.dtype == np.int64 and values.dtype == np.uint8
        assert (slots.tolist(), values.tolist()) == protocol_model.detect(patterns, config, ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestMonitor:
    def test_intact_pairs_silent(self):
        # 10^4 intact decoy pairs, perfect visibility, no darks: no clicks
        train = _train([DECOY] * 10_000)
        config = SimConfig(channel_t=0.5, t_b=0.9, eta_mon=1.0, p_dark_mon=0.0)
        _, monitor = receive(train, config, np.random.default_rng(4))
        boundaries = np.arange(0, 2 * train.n - 1, 2)  # decoy-internal
        clicks = _grid(monitor, 2 * train.n - 1)[boundaries]
        assert (clicks.size, np.count_nonzero(clicks)) == (10_000, 0)

    @pytest.mark.parametrize(
        "visibility, clicked", [(1.0, [1, 2, 4]), (1 - 1e-13, [0, 1, 2, 3, 4])]
    )
    def test_deterministic_pair_leak(self, visibility, clicked):
        # bins 11 01 10: intact pairs at boundaries 0 and 3 cancel only at
        # V=1; any smaller visibility leaks and the oracle clicks there.  At
        # mu=1e17 the monitor arm gets 1e16, so a 1e-13 deficit still leaks 500
        config = replace(ORACLE, visibility=visibility, mu=1e17)
        _, monitor = receive(_train([DECOY, ONE, ZERO]), config, np.random.default_rng(0))
        assert monitor.tolist() == clicked

    def test_broken_pair_click_rate(self):
        # pooled over seeds, per boundary level: a boundary of 0, 1 or 2
        # pulses clicks with the monitor's probability at that level.  A lone
        # survivor's is 1 - exp(-eta_mon (1-t_b) t mu / 4) without darks, and
        # at V = 1 an intact pair never clicks
        patterns = _levels(20_000, 4, 6)
        train = _train(patterns)
        level = protocol_model.pairs(patterns.tolist())
        clean = SimConfig(channel_t=0.5, t_b=0.9, eta_mon=0.8, p_dark_mon=0.0)
        assert monitor_click_probability(clean)[1] == pytest.approx(1 - math.exp(-0.8 * 0.1 * 0.5 * 0.5 / 4))
        for config in (clean, NOISY):
            k = np.zeros(3, dtype=np.int64)
            for seed in SEEDS:
                _, monitor = receive(train, config, np.random.default_rng(seed))
                k += np.bincount(level[monitor], minlength=3)
            for lv, p in enumerate(monitor_click_probability(config)):
                assert_binomial(k[lv], np.count_nonzero(level == lv) * len(SEEDS), p, f"level {lv}, {config}")

    def test_empty_checked(self):
        # Bob announces no click, so Alice checks none and flags nothing
        result, transcript = _sift_monitor([], patterns=[DECOY, ONE, ZERO])
        assert transcript.get("MonitorReport") == {"boundaries": [], "clicks": [], "coherent": 2}
        assert result.break_rate == 0.0

    def test_monitor_outcome_subset(self):
        # bins 11 01 10: boundaries 0 and 3 are coherent, and a click at a
        # boundary off them (1, a lone pulse) does not count
        result, transcript = _sift_monitor([1, 3], patterns=[DECOY, ONE, ZERO])
        assert transcript.get("MonitorReport")["clicks"] == [0, 1]
        assert result.break_rate == pytest.approx(1 / 2)


class TestSaturatedReference:
    @given(
        patterns=st.lists(st.sampled_from([ZERO, ONE, DECOY]), min_size=1, max_size=200),
        mask_seed=st.none() | st.integers(0, 2**32 - 1),
        visibility=st.sampled_from([1.0, 0.98, 0.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_receive_matches_nonzero_mean_rule(self, patterns, mask_seed, visibility, seed):
        # random slot patterns, with or without a random AND mask: under the
        # saturated config both detectors click exactly where the mean is
        # nonzero, so the protocol model gives the same clicks from another seed
        train = _train(patterns)
        if mask_seed is not None:
            train = apply_and_mask(train, generate_mask(train.n, np.random.default_rng(mask_seed)))
        config = SimConfig(visibility=visibility, **_SATURATED)
        (slots, values), monitor = receive(train, config, np.random.default_rng(seed))
        expected = protocol_model.receive(_patterns(train), config, np.random.default_rng(seed + 1))
        assert ((slots.tolist(), values.tolist()), monitor.tolist()) == expected


class TestMonitorReport:
    @given(
        n_slots=st.integers(1, 30),
        data=st.data(),
    )
    def test_flags_match_grid_gather(self, n_slots, data):
        # any occupied bins, and any clicks, strictly increasing as Bob
        # announces them: a flag is set where both bins of the boundary are lit
        occupied = data.draw(st.sets(st.integers(0, 2 * n_slots - 1)))
        clicked = sorted(data.draw(st.sets(st.integers(0, 2 * n_slots - 2))))
        patterns = _patterns(_slot_train(sorted(occupied), n_slots))
        result, transcript = _sift_monitor(clicked, patterns=patterns)
        expected = protocol_model.dialog(patterns, [], [], clicked, NO_VERIFY, np.random.default_rng(0))
        assert {kind: transcript.get(kind) for kind in transcript.messages} == expected
        report = expected["MonitorReport"]
        assert result.break_rate == (sum(report["clicks"]) / report["coherent"] if report["coherent"] else 0.0)
