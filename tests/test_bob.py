import math
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cowsim import bob
from cowsim.alice import DECOY, DecoyStrategy, generate_raw_bits, insert_decoys
from cowsim.bob import _sample_clicks, detect_data, receive
from cowsim.engine import _SATURATED, SimConfig
from cowsim.eve import apply_and_mask, generate_mask
from cowsim.optics import click_probability
from cowsim.sifting import run_sifting

IDEAL = SimConfig(channel_t=1.0, t_b=0.9, eta_data=1.0, eta_mon=1.0)
# every click probability 0 or 1: the detectors click exactly where light arrives
ORACLE = replace(IDEAL, **_SATURATED)


# data-slot patterns: a 0 lights the early bin, a 1 the late bin
ZERO, ONE = 0b01, 0b10


def _train(patterns):
    return np.array(patterns, dtype=np.uint8)


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
    """The slot-pattern train of n_slots whose occupied bins are the given bin indices."""
    occ = _grid(bins, 2 * n_slots).reshape(n_slots, 2).view(np.uint8)
    return occ[:, 0] | occ[:, 1] << 1


def _sift_monitor(checked, clicked, n_slots=1):
    """run_sifting's (result, transcript) for the monitor's (checked, clicked)
    and nothing detected."""
    return run_sifting(
        _train([ZERO] * n_slots),
        (np.array([], dtype=np.int64), np.array([], dtype=np.uint8)),
        (checked, clicked),
        SimConfig(f_verify=0.0),
        np.random.default_rng(0),
    )


def _break_rate(checked, clicked):
    """The monitor break rate run_sifting reports for (checked, clicked)."""
    return _sift_monitor(checked, clicked)[0].break_rate


class TestReceive:
    def test_decoy_single_click(self):
        (slots, values), _ = receive(_train([DECOY]), ORACLE, np.random.default_rng(0))
        assert (slots.tolist(), values.tolist()) == ([0], [0])

    def test_empty_train_silent(self):
        train = np.zeros(5, dtype=np.uint8)  # five slots, ten empty bins
        (slots, values), monitor = receive(train, IDEAL, np.random.default_rng(0))
        assert (slots.size, values.size, monitor.size) == (0, 0, 0)
        assert monitor.dtype == np.int64

    def test_detection_statistics(self):
        # per-slot detection probability follows 1 - exp(-mu t t_b eta);
        # 5 se at n = 300k is 2.9 se at n = 100k
        n = 300_000
        config = SimConfig(channel_t=0.5, t_b=0.9, eta_data=0.1)
        (slots, _), _ = receive(_train([ONE] * n), config, np.random.default_rng(21))
        p = 1 - math.exp(-0.5 * 0.5 * 0.9 * 0.1)
        se = math.sqrt(p * (1 - p) / n)
        assert abs(slots.size / n - p) < 5 * se

    def test_dark_counts_respect_dead_time(self):
        config = replace(IDEAL, p_dark_data=0.9)
        (slots, _), _ = receive(np.zeros(1000, dtype=np.uint8), config, np.random.default_rng(2))
        assert slots.size > 0 and np.all(np.diff(slots) > 0)

    def test_zero_noise_soundness(self):
        bits = generate_raw_bits(5000, np.random.default_rng(8))
        (slots, values), _ = receive(insert_decoys(bits, DecoyStrategy.NONE), IDEAL, np.random.default_rng(3))
        assert slots.size > 0
        assert np.array_equal(values, bits[slots])

    def test_decoy_misinterpreted_as_zero(self):
        (slots, values), _ = receive(_train([DECOY] * 50), ORACLE, np.random.default_rng(0))
        assert slots.tolist() == list(range(50))
        assert not values.any()

    @pytest.mark.parametrize("attack", [False, True])
    @pytest.mark.parametrize("strategy", list(DecoyStrategy))
    def test_both_detectors_report_sorted_positions(self, strategy, attack):
        # dark counts on both detectors give clicks everywhere, ends included
        train = insert_decoys(generate_raw_bits(3000, np.random.default_rng(12)), strategy)
        if attack:
            train = apply_and_mask(train, generate_mask(train.size, np.random.default_rng(13)))
        config = replace(IDEAL, p_dark_data=0.2, p_dark_mon=0.2)
        (slots, values), monitor = receive(train, config, np.random.default_rng(14))
        for positions, end in ((slots, train.size), (monitor, 2 * train.size - 1)):
            assert positions.dtype == np.int64 and positions.size > 0
            assert np.all(np.diff(positions) > 0)
            assert positions[0] >= 0 and positions[-1] < end
        assert values.dtype == np.uint8 and values.shape == slots.shape


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
        # fixed seeds: each level's click count is within 5 sigma of
        # Binomial(n_j, p_j); for p_j of 0 or 1 that bound is exact
        p = np.array(p)
        level = _levels(300_000, p.size, seed)
        clicks = _sampled_grid(p, level, np.random.default_rng(seed + 100))
        for j, p_j in enumerate(p):
            n_j = np.count_nonzero(level == j)
            k_j = np.count_nonzero(clicks[level == j])
            assert abs(k_j - n_j * p_j) <= 5 * math.sqrt(n_j * p_j * (1 - p_j)), (j, k_j, n_j)

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
        # numpy's geometric returns int64 max below p ~ 1e-16: the gaps must
        # neither wrap in the cumulative sum nor land a click on the last bin
        level = _levels(1_000_000, 2, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="raise"):
                clicks = _sample_levels(np.array([0.0, p_max]), level, np.random.default_rng(6))
        assert clicks.size == 0

    def test_saturated_gap_in_a_later_chunk(self):
        # a later chunk of gaps starts inside the train, so a saturated gap
        # (int64 max) plus that offset would wrap without the clip
        class SaturatingRng:
            calls = 0

            def geometric(self, p, size):
                self.calls += 1
                return np.array([3]) if self.calls == 1 else np.full(size, np.iinfo(np.int64).max)

            def random(self, size):
                return np.zeros(size)

        clicks = _sample_levels(np.array([0.0, 1e-20]), np.ones(10, dtype=np.uint8), SaturatingRng())
        assert clicks.tolist() == [2]

    @pytest.mark.parametrize("p", [[0.0, 0.022], [1e-3, 0.5, 0.0], [0.2, 1.0], [0.0, 0.0]])
    def test_draws_depend_only_on_n_and_p_max(self, p):
        # two different trains of one length leave the generator in one state
        p = np.array(p)
        rng_a, rng_b = np.random.default_rng(8), np.random.default_rng(8)
        _sample_levels(p, _levels(50_001, p.size, 1), rng_a)
        _sample_levels(p, np.zeros(50_001, dtype=np.uint8), rng_b)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


class TestDetectData:
    NOISY = SimConfig(p_dark_data=1e-3, p_dark_mon=1e-3, visibility=0.98)
    TRAIN = insert_decoys(
        generate_raw_bits(40_000, np.random.default_rng(9)), DecoyStrategy.NONE
    )

    def test_receive_draws_data_then_monitor(self):
        # receive draws detect_data's numbers, then the monitor's: those of
        # any train of 2n - 1 boundaries at the lone-pulse click
        # probability, the largest of the monitor's levels at V = 0.98
        train, c = self.TRAIN, self.NOISY
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        (slots, values), _ = receive(train, c, rng_a)
        ref_slots, ref_values = detect_data(train, c, rng_b)
        assert np.array_equal(slots, ref_slots) and np.array_equal(values, ref_values)
        lone = click_probability(c.mu * c.channel_t * (1 - c.t_b) / 4, c.eta_mon, c.p_dark_mon)
        _sample_levels(np.array([lone]), np.zeros(2 * train.size - 1, dtype=np.uint8), rng_b)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


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
        mask = generate_mask(train.size, np.random.default_rng(mask_seed))
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


class TestMonitor:
    def test_intact_pairs_silent(self):
        # 10^4 intact decoy pairs, perfect visibility, no darks: no clicks
        train = _train([DECOY] * 10_000)
        config = SimConfig(channel_t=0.5, t_b=0.9, eta_mon=1.0, p_dark_mon=0.0)
        _, monitor = receive(train, config, np.random.default_rng(4))
        boundaries = np.arange(0, 2 * train.size - 1, 2)  # decoy-internal
        clicks = _grid(monitor, 2 * train.size - 1)[boundaries]
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

    def test_empty_checked(self):
        result, transcript = _sift_monitor(np.array([], dtype=np.int64), np.array([3, 5]))
        assert transcript.get("MonitorReport")["clicks"] == []
        assert result.break_rate == 0.0

    def test_broken_pair_click_rate(self):
        # lone survivors click at 1 - exp(-eta_mon (1-t_b) t mu / 4)
        # 5 se at n = 100k is 1.6 se at n = 10k: tighter than 3 se there
        n = 100_000
        train = _train([ZERO] * n)  # every pair is (pulse, vacuum)
        config = SimConfig(channel_t=0.5, t_b=0.9, eta_mon=0.8, p_dark_mon=0.0)
        _, monitor = receive(train, config, np.random.default_rng(6))
        checked = np.arange(0, 2 * train.size - 1, 2)
        rate = _break_rate(checked, monitor)
        p = 1 - math.exp(-0.8 * 0.1 * 0.5 * 0.5 / 4)
        se = math.sqrt(p * (1 - p) / n)
        assert abs(rate - p) < 5 * se

    def test_monitor_outcome_subset(self):
        # a click at a boundary outside checked does not count
        result, transcript = _sift_monitor(np.array([0, 1, 2]), np.array([1, 4]))
        assert transcript.get("MonitorReport")["clicks"] == [0, 1, 0]
        assert result.break_rate == pytest.approx(1 / 3)


def _detect_on_grid(clicks):
    """The dense-grid rule detect_data replaced: clicks on the bin grid, the
    early bin shadowing the late one, then bin 2i+v -> (slot i, value v)."""
    clicks = clicks.copy()
    late = clicks[1::2]
    late &= ~clicks[0::2]
    bins = np.flatnonzero(clicks)
    return bins // 2, bins % 2


def _nonzero_mean_reference(train, config):
    """The deterministic rule the saturated config replaced: a position clicks
    iff its mean is nonzero, as np.flatnonzero((mean > 0)[level]).  Returns
    the data detector's (slots, values) and the monitor's clicked boundaries."""
    bins = np.stack([train & 1, train >> 1], axis=1).ravel()
    data_mean = np.array([0.0, config.mu * config.channel_t * config.t_b])
    m = config.mu * config.channel_t * (1 - config.t_b)
    port = np.array([0.0, m / 4, (m - config.visibility * m) / 2])
    data = np.flatnonzero((data_mean > 0)[bins])
    monitor = np.flatnonzero((port > 0)[bins[:-1] + bins[1:]])
    return _detect_on_grid(_grid(data, bins.size)), monitor


class TestSaturatedReference:
    @given(
        patterns=st.lists(st.sampled_from([ZERO, ONE, DECOY]), min_size=1, max_size=200),
        mask_seed=st.none() | st.integers(0, 2**32 - 1),
        visibility=st.sampled_from([1.0, 0.98, 0.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_receive_matches_nonzero_mean_rule(self, patterns, mask_seed, visibility, seed):
        # random slot patterns, with or without a random AND mask: under the
        # saturated config both detectors click exactly where the mean is nonzero
        train = _train(patterns)
        if mask_seed is not None:
            train = apply_and_mask(train, generate_mask(train.size, np.random.default_rng(mask_seed)))
        config = SimConfig(visibility=visibility, **_SATURATED)
        (slots, values), monitor = receive(train, config, np.random.default_rng(seed))
        (ref_slots, ref_values), ref_monitor = _nonzero_mean_reference(train, config)
        assert np.array_equal(slots, ref_slots) and np.array_equal(values, ref_values)
        assert np.array_equal(monitor, ref_monitor)


class TestIndexFormulation:
    @given(
        n_slots=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        p_click=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    )
    def test_grid_matches_index_formulation(self, n_slots, seed, p_click):
        # random trains; every bin clicks with probability p_click.  The
        # reference scatters the same sampler draws on the bin grid and
        # applies the dense-grid rule.
        rng = np.random.default_rng(seed)
        train = rng.integers(0, 4, n_slots, dtype=np.uint8)
        occupancy = np.stack([train & 1, train >> 1], axis=1).ravel().astype(bool)
        p = np.array([p_click, p_click])
        pos = _sample_levels(p, occupancy.view(np.uint8), np.random.default_rng(seed))
        raw = _grid(pos, occupancy.size)
        with mock.patch.object(bob, "click_probability", lambda mean, eta, p_dark: p):
            slots, values = detect_data(train, IDEAL, np.random.default_rng(seed))
        ref_slots, ref_values = _detect_on_grid(raw)
        assert np.array_equal(slots, ref_slots)
        assert np.array_equal(values, ref_values)
        assert np.all(np.diff(slots) > 0)
        assert values.dtype == np.uint8

        # the MonitorReport line against the gather from a per-boundary grid
        monitor = rng.random(2 * n_slots - 1) < p_click
        checked = np.flatnonzero(rng.random(monitor.size) < 0.5)
        _, transcript = run_sifting(
            _train([ZERO] * n_slots),
            (slots, values),
            (checked, np.flatnonzero(monitor)),
            SimConfig(f_verify=0.0),
            np.random.default_rng(0),
        )
        report = transcript.get("MonitorReport")
        assert report["boundaries"] == checked.tolist()
        assert report["clicks"] == monitor[checked].astype(int).tolist()


class TestMonitorReport:
    @given(
        n_slots=st.integers(1, 30),
        data=st.data(),
    )
    def test_flags_match_grid_gather(self, n_slots, data):
        # the gather engine made before sifting took click positions: the
        # clicked boundaries on a per-boundary grid, read at the checked ones.
        # checked may be unsorted, repeat or be empty; clicks may fall outside it.
        n = 2 * n_slots - 1
        checked = data.draw(st.lists(st.integers(0, n - 1), max_size=3 * n))
        clicked = sorted(data.draw(st.sets(st.integers(0, n - 1))))
        checked = np.array(checked, dtype=np.int64)
        clicked = np.array(clicked, dtype=np.int64)
        result, transcript = _sift_monitor(checked, clicked, n_slots)
        expect = _grid(clicked, n)[checked]
        assert transcript.get("MonitorReport")["clicks"] == expect.astype(int).tolist()
        assert result.break_rate == (expect.sum() / expect.size if expect.size else 0.0)
