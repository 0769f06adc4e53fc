import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cowsim.alice import DECOY, SlotMap, encode, generate_raw_bits
from cowsim.bob import (
    _DRAW_BLOCK,
    DetectionMode,
    DetectionRecord,
    _sample_clicks,
    decode,
    detect_data,
    receive,
)
from cowsim.engine import SimConfig
from cowsim.eve import EveMask, apply_and_mask
from cowsim.sifting import run_sifting

IDEAL = SimConfig(channel_t=1.0, t_b=0.9, eta_data=1.0, eta_mon=1.0)
ORACLE = replace(IDEAL, detection_mode=DetectionMode.DETERMINISTIC)


def _train(codes):
    return encode(SlotMap(np.array(codes, dtype=np.uint8)))


def _record(data_bins=(), monitor_boundaries=()):
    """A 4-slot detection record with clicks at the given bin and boundary indices."""
    data = np.zeros(8, dtype=bool)
    data[list(data_bins)] = True
    monitor = np.zeros(7, dtype=bool)
    monitor[list(monitor_boundaries)] = True
    return DetectionRecord(data, monitor)


def _break_rate(checked, clicks):
    """The monitor break rate run_sifting reports for (checked, clicks)."""
    result, _ = run_sifting(
        SlotMap(np.array([0])),
        (np.array([], dtype=np.int64), np.array([], dtype=np.uint8)),
        (checked, clicks),
        0.0,
        1.0,
        np.random.default_rng(0),
    )
    return result.break_rate


class TestReceive:
    def test_decoy_single_click(self):
        rec = receive(_train([DECOY]), ORACLE, np.random.default_rng(0))
        assert np.flatnonzero(rec.data_clicks).tolist() == [0]

    def test_empty_train_silent(self):
        rec = receive(np.zeros(10, dtype=bool), IDEAL, np.random.default_rng(0))
        assert (rec.data_clicks.shape, rec.monitor_clicks.shape) == ((10,), (9,))
        assert not rec.data_clicks.any() and not rec.monitor_clicks.any()

    def test_odd_train_rejected(self):
        with pytest.raises(ValueError):
            receive(np.zeros(3, dtype=bool), ORACLE, np.random.default_rng(0))

    def test_detection_statistics(self):
        # per-slot detection probability follows 1 - exp(-mu t t_b eta)
        n = 100_000
        config = SimConfig(channel_t=0.5, t_b=0.9, eta_data=0.1)
        rec = receive(_train([1] * n), config, np.random.default_rng(21))
        p = 1 - math.exp(-0.5 * 0.5 * 0.9 * 0.1)
        se = math.sqrt(p * (1 - p) / n)
        assert abs(np.count_nonzero(rec.data_clicks) / n - p) < 3 * se

    def test_dark_counts_respect_dead_time(self):
        config = replace(IDEAL, p_dark_data=0.9)
        rec = receive(np.zeros(2000, dtype=bool), config, np.random.default_rng(2))
        slots = np.flatnonzero(rec.data_clicks) // 2
        assert np.unique(slots).size == slots.size

    def test_zero_noise_soundness(self):
        bits = generate_raw_bits(5000, np.random.default_rng(8))
        rec = receive(_train(bits), IDEAL, np.random.default_rng(3))
        slots, values = decode(rec)
        assert slots.size > 0
        assert np.array_equal(values, bits[slots])

    def test_decoy_misinterpreted_as_zero(self):
        rec = receive(_train([DECOY] * 50), ORACLE, np.random.default_rng(0))
        slots, values = decode(rec)
        assert slots.tolist() == list(range(50))
        assert not values.any()

    @pytest.mark.parametrize(
        "n", [0, 1, _DRAW_BLOCK - 1, _DRAW_BLOCK, _DRAW_BLOCK + 1, 3 * _DRAW_BLOCK + 5]
    )
    @settings(deadline=None, max_examples=25)
    @given(
        p=st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), min_size=1, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_block_draws_match_one_draw(self, n, p, seed):
        # sizes on and around the block boundaries, 1-3 levels of any p
        # (monotone or not, exact 0 and 1 included), against the per-bin
        # gather of one whole-array draw
        p = np.array(p)
        level = np.random.default_rng(seed).integers(0, p.size, size=n, dtype=np.uint8)
        rng, whole = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal(_sample_clicks(p, level, rng), whole.random(n) < p[level])
        assert rng.random() == whole.random()


class TestDetectData:
    NOISY = SimConfig(p_dark_data=1e-3, p_dark_mon=1e-3, visibility=0.98)
    # 2 * 40_000 bins, more than one draw block
    TRAIN = _train(generate_raw_bits(40_000, np.random.default_rng(9)))

    def test_receive_draws_data_then_monitor(self):
        train = self.TRAIN
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        rec = receive(train, self.NOISY, rng_a)
        assert np.array_equal(rec.data_clicks, detect_data(train, self.NOISY, rng_b))
        rng_b.random(train.size - 1)  # one uniform per interferometer boundary
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_deterministic_draws_nothing(self):
        train = self.TRAIN
        config = replace(self.NOISY, detection_mode=DetectionMode.DETERMINISTIC)
        rng = np.random.default_rng(5)
        start = rng.bit_generator.state
        rec = receive(train, config, rng)
        assert np.array_equal(rec.data_clicks, detect_data(train, config, rng))
        assert rng.bit_generator.state == start


class TestCoupling:
    @given(
        codes=st.lists(st.integers(0, DECOY), min_size=1, max_size=300),
        mask_seed=st.integers(0, 2**32 - 1),
        p_dark_data=st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.999),
        p_dark_mon=st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.999),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_mask_only_removes_detected_slots(
        self, codes, mask_seed, p_dark_data, p_dark_mon, seed
    ):
        # with one detector seed, the masked and unmasked trains draw the
        # same uniforms, so a slot detected with the mask on is detected with
        # it off.  Per bin this fails: a mask that blocks a decoy's early bin
        # can let its late bin click where the early click would shadow it.
        train = _train(codes)
        bits = np.random.default_rng(mask_seed).integers(0, 2, size=len(codes))
        masked = apply_and_mask(train, EveMask(bits))
        config = replace(IDEAL, p_dark_data=p_dark_data, p_dark_mon=p_dark_mon)
        rng_on, rng_off = np.random.default_rng(seed), np.random.default_rng(seed)
        on = receive(masked, config, rng_on).data_clicks.reshape(-1, 2).any(axis=1)
        off = receive(train, config, rng_off).data_clicks.reshape(-1, 2).any(axis=1)
        assert rng_on.bit_generator.state == rng_off.bit_generator.state
        assert not np.any(on & ~off)


class TestDecode:
    def test_early_bin(self):
        rec = _record([0])
        slots, values = decode(rec)
        assert (slots.tolist(), values.tolist()) == ([0], [0])

    def test_mapping(self):
        rec = _record([0, 5, 7])
        slots, values = decode(rec)
        assert (slots.tolist(), values.tolist()) == ([0, 2, 3], [0, 1, 1])

    def test_pair_example(self):
        rec = _record([0, 7])
        slots, values = decode(rec)
        assert (slots.tolist(), values.tolist()) == ([0, 3], [0, 1])

    def test_duplicate_slot_rejected(self):
        rec = _record([2, 3])  # both bins of slot 1
        with pytest.raises(ValueError):
            decode(rec)


class TestMonitor:
    def test_intact_pairs_silent(self):
        # 10^4 intact decoy pairs, perfect visibility, no darks: no clicks
        train = _train([DECOY] * 10_000)
        config = SimConfig(channel_t=0.5, t_b=0.9, eta_mon=1.0, p_dark_mon=0.0)
        rec = receive(train, config, np.random.default_rng(4))
        boundaries = np.arange(0, train.size - 1, 2)  # decoy-internal
        clicks = rec.monitor_clicks[boundaries]
        assert (clicks.size, np.count_nonzero(clicks)) == (10_000, 0)

    @pytest.mark.parametrize(
        "visibility, clicked", [(1.0, [1, 2, 4]), (1 - 1e-13, [0, 1, 2, 3, 4])]
    )
    def test_deterministic_pair_leak(self, visibility, clicked):
        # bins 11 01 10: intact pairs at boundaries 0 and 3 cancel only at
        # V=1; any smaller visibility leaks and the oracle clicks there
        config = replace(ORACLE, visibility=visibility)
        rec = receive(_train([DECOY, 1, 0]), config, np.random.default_rng(0))
        assert np.flatnonzero(rec.monitor_clicks).tolist() == clicked

    def test_empty_checked(self):
        rec = _record(monitor_boundaries=[3, 5])
        checked = np.array([], dtype=np.int64)
        clicks = rec.monitor_clicks[checked]
        assert clicks.size == 0
        assert _break_rate(checked, clicks) == 0.0

    def test_broken_pair_click_rate(self):
        # lone survivors click at 1 - exp(-eta_mon (1-t_b) t mu / 4)
        n = 10_000
        train = _train([0] * n)  # every pair is (pulse, vacuum)
        config = SimConfig(channel_t=0.5, t_b=0.9, eta_mon=0.8, p_dark_mon=0.0)
        rec = receive(train, config, np.random.default_rng(6))
        checked = np.arange(0, train.size - 1, 2)
        rate = _break_rate(checked, rec.monitor_clicks[checked])
        p = 1 - math.exp(-0.8 * 0.1 * 0.5 * 0.5 / 4)
        se = math.sqrt(p * (1 - p) / n)
        assert abs(rate - p) < 3 * se

    def test_monitor_outcome_subset(self):
        # a click at a boundary outside checked does not count
        rec = _record(monitor_boundaries=[1, 4])
        checked = np.array([0, 1, 2])
        clicks = rec.monitor_clicks[checked]
        assert clicks.tolist() == [False, True, False]
        assert _break_rate(checked, clicks) == pytest.approx(1 / 3)


def _decode_by_index(data_clicks):
    """Reference decode on clicked bin indices: bin 2i+v -> (slot i, value v)."""
    bins = np.flatnonzero(data_clicks)
    return bins // 2, bins % 2


class TestIndexFormulation:
    @given(
        n_slots=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        p_click=st.floats(0.0, 1.0),
    )
    def test_grid_matches_index_formulation(self, n_slots, seed, p_click):
        # random clicks on the bin grid, dead time applied as receive does,
        # and a random sorted subset of boundaries checked
        rng = np.random.default_rng(seed)
        data = rng.random(2 * n_slots) < p_click
        data[1::2] &= ~data[0::2]
        monitor = rng.random(2 * n_slots - 1) < p_click
        checked = np.flatnonzero(rng.random(monitor.size) < 0.5)
        rec = DetectionRecord(data, monitor)

        slots, values = decode(rec)
        ref_slots, ref_values = _decode_by_index(data)
        assert np.array_equal(slots, ref_slots)
        assert np.array_equal(values, ref_values)
        assert values.dtype == np.uint8

        expect = np.isin(checked, np.flatnonzero(monitor))
        clicks = rec.monitor_clicks[checked]
        assert np.array_equal(clicks, expect)
        _, transcript = run_sifting(
            SlotMap(np.zeros(n_slots, dtype=np.uint8)),
            (slots, values),
            (checked, clicks),
            0.0,
            1.0,
            np.random.default_rng(0),
        )
        report = transcript.get("MonitorReport")
        assert report["boundaries"] == checked.tolist()
        assert report["clicks"] == expect.astype(int).tolist()
