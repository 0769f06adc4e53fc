import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cowsim.alice import DECOY, SlotMap, encode, generate_raw_bits
from cowsim.bob import DetectionMode, DetectionRecord, decode, monitor_outcome, receive
from cowsim.engine import SimConfig

IDEAL = SimConfig(channel_t=1.0, t_b=0.9, eta_data=1.0, eta_mon=1.0)
ORACLE = replace(IDEAL, detection_mode=DetectionMode.DETERMINISTIC)


def _train(codes):
    return encode(SlotMap(np.array(codes, dtype=np.uint8)))


class TestReceive:
    def test_decoy_single_click(self):
        rec = receive(_train([DECOY]), ORACLE, np.random.default_rng(0))
        assert rec.data_clicks.tolist() == [0]

    def test_empty_train_silent(self):
        rec = receive(np.zeros(10, dtype=bool), IDEAL, np.random.default_rng(0))
        assert rec.data_clicks.size == 0 and rec.monitor_clicks.size == 0

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
        assert abs(rec.data_clicks.size / n - p) < 3 * se

    def test_dark_counts_respect_dead_time(self):
        config = replace(IDEAL, p_dark_data=0.9)
        rec = receive(np.zeros(2000, dtype=bool), config, np.random.default_rng(2))
        slots = rec.data_clicks // 2
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


class TestDecode:
    def test_early_bin(self):
        rec = DetectionRecord(np.array([0]), np.array([]))
        slots, values = decode(rec)
        assert (slots.tolist(), values.tolist()) == ([0], [0])

    def test_mapping(self):
        rec = DetectionRecord(np.array([0, 5, 7]), np.array([]))
        slots, values = decode(rec)
        assert (slots.tolist(), values.tolist()) == ([0, 2, 3], [0, 1, 1])

    def test_pair_example(self):
        rec = DetectionRecord(np.array([0, 7]), np.array([]))
        slots, values = decode(rec)
        assert (slots.tolist(), values.tolist()) == ([0, 3], [0, 1])

    def test_duplicate_slot_rejected(self):
        rec = DetectionRecord(np.array([2, 3]), np.array([]))
        with pytest.raises(ValueError):
            decode(rec)


class TestMonitor:
    def test_intact_pairs_silent(self):
        # 10^4 intact decoy pairs, perfect visibility, no darks: no clicks
        train = _train([DECOY] * 10_000)
        config = SimConfig(channel_t=0.5, t_b=0.9, eta_mon=1.0, p_dark_mon=0.0)
        rec = receive(train, config, np.random.default_rng(4))
        boundaries = np.arange(0, train.size - 1, 2)  # decoy-internal
        outcome = monitor_outcome(rec, boundaries)
        assert (outcome.checked.size, outcome.clicked.size) == (10_000, 0)

    def test_empty_checked(self):
        rec = DetectionRecord(np.array([]), np.array([3, 5]))
        outcome = monitor_outcome(rec, [])
        assert (outcome.checked.size, outcome.clicked.size) == (0, 0)
        assert outcome.break_rate == 0.0

    def test_broken_pair_click_rate(self):
        # lone survivors click at 1 - exp(-eta_mon (1-t_b) t mu / 4)
        n = 10_000
        train = _train([0] * n)  # every pair is (pulse, vacuum)
        config = SimConfig(channel_t=0.5, t_b=0.9, eta_mon=0.8, p_dark_mon=0.0)
        rec = receive(train, config, np.random.default_rng(6))
        outcome = monitor_outcome(rec, np.arange(0, train.size - 1, 2))
        p = 1 - math.exp(-0.8 * 0.1 * 0.5 * 0.5 / 4)
        se = math.sqrt(p * (1 - p) / n)
        assert abs(outcome.break_rate - p) < 3 * se

    def test_monitor_outcome_subset(self):
        rec = DetectionRecord(np.array([]), np.array([1, 4]))
        outcome = monitor_outcome(rec, [0, 1, 2])
        assert outcome.checked.tolist() == [0, 1, 2]
        assert outcome.clicked.tolist() == [1]
        assert outcome.break_rate == pytest.approx(1 / 3)

    @given(
        clicks=st.lists(st.integers(0, 60), max_size=30),
        checked=st.lists(st.integers(0, 60), max_size=30),
    )
    def test_monitor_outcome_matches_isin(self, clicks, checked):
        # duplicates, clicks outside checked, unsorted and empty inputs
        rec = DetectionRecord(np.array([], dtype=np.int64), np.array(clicks, dtype=np.int64))
        outcome = monitor_outcome(rec, checked)
        expect = np.sort(np.array(checked, dtype=np.int64))
        assert np.array_equal(outcome.checked, expect)
        assert np.array_equal(outcome.clicked, expect[np.isin(expect, clicks)])
