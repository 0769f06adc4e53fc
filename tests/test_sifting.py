import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cowsim.alice import DECOY, DecoyStrategy
from cowsim.engine import Attack, SimConfig, run
from cowsim.sifting import (
    MESSAGE_ORDER,
    Transcript,
    TranscriptError,
    _alarm_threshold,
    _json_ints,
    compute_qber,
    run_sifting,
)

NO_MONITOR = (np.array([], dtype=np.int64), np.array([], dtype=np.int64))
NOTHING_DETECTED = (np.array([], dtype=np.int64), np.array([], dtype=np.uint8))
NO_VERIFY = SimConfig(f_verify=0.0)
# Alice's data-slot patterns: a 0 lights the early bin, a 1 the late bin
ZERO, ONE = 0b01, 0b10

INT64 = np.iinfo(np.int64)
# every digit-count boundary within int64, both signs, and both ends of the range
WIDE_EDGES = sorted(
    {0, INT64.max, INT64.min}
    | {sign * v for k in range(1, 19) for v in (10**k - 1, 10**k) for sign in (1, -1)}
)


class TestQber:
    def test_empty(self):
        assert compute_qber([], []) == 0.0

    def test_agreement(self):
        assert compute_qber([0, 1], [0, 1]) == 0.0

    def test_half(self):
        assert compute_qber(np.array([0, 1, 0, 1]), np.array([1, 1, 0, 0])) == 0.5

    @pytest.mark.parametrize(
        "alice, bob",
        [([0], [0, 1, 1]), ([], [1, 1]), ([0, 1], [0])],
        ids=["one-against-three", "empty-against-two", "two-against-one"],
    )
    def test_length_mismatch_rejected(self, alice, bob):
        # numpy would broadcast a length-1 side, and an empty side read as 0
        with pytest.raises(ValueError, match="differ in shape"):
            compute_qber(alice, bob)


def _train(patterns):
    return np.array(patterns, dtype=np.uint8)


def _sift_monitor(checked, clicked, config=NO_VERIFY):
    monitor = (checked, clicked)
    return run_sifting(
        _train([ZERO]), NOTHING_DETECTED, monitor, config, np.random.default_rng(0)
    )


class TestMonitorOutcome:
    def test_unsorted_checked_reported_in_order(self):
        result, transcript = _sift_monitor(np.array([4, 0, 2]), np.array([4]))
        assert result.break_rate == pytest.approx(1 / 3)
        assert transcript.get("CoherenceCheck")["boundaries"] == [4, 0, 2]
        assert transcript.get("MonitorReport")["clicks"] == [1, 0, 0]

    def test_duplicate_checked_accepted(self):
        result, transcript = _sift_monitor(np.array([0, 2, 2, 4]), np.array([2]))
        assert result.break_rate == 0.5
        assert transcript.get("MonitorReport")["clicks"] == [0, 1, 1, 0]


class TestRunSifting:
    def test_table1_scenario(self):
        train = _train([ZERO, ZERO, ONE, ONE, DECOY, DECOY])
        detected = (np.array([0, 3, 4, 5]), np.array([0, 1, 0, 1]))
        result, transcript = run_sifting(
            train, detected, NO_MONITOR, NO_VERIFY, np.random.default_rng(0)
        )
        assert transcript.get("DetectionReport")["slots"] == [0, 3, 4, 5]
        assert transcript.get("DecoyDiscard")["slots"] == [4, 5]
        assert result.kept_indices.tolist() == [0, 3]
        assert result.alice_key.tolist() == [0, 1]
        assert result.qber == 0.0

    def test_no_detections(self):
        train = _train([ZERO, ONE])
        result, transcript = run_sifting(
            train, NOTHING_DETECTED, NO_MONITOR, SimConfig(), np.random.default_rng(0)
        )
        assert result.kept_indices.size == 0
        assert result.qber == 0.0
        assert result.verdict == "accept"
        assert transcript.get("KeyIndices")["slots"] == []

    def test_noiseless_qber_zero(self):
        stats, _, _ = run(
            SimConfig(n_bits=100_000, f_verify=0.5, p_dark_data=0.0, seed=5)
        )
        assert stats.verified_count > 0
        assert stats.qber == 0.0

    def test_out_of_range_slot_rejected(self):
        train = _train([ZERO, ONE])
        with pytest.raises(ValueError):
            run_sifting(
                train, ([5], [0]), NO_MONITOR, NO_VERIFY, np.random.default_rng(0)
            )

    @pytest.mark.parametrize("slots", [[0, 0], [1, 0]], ids=["duplicate", "unsorted"])
    def test_unsorted_slots_rejected(self, slots):
        # Bob's slots are strictly increasing as receive returns them; a
        # repeated slot would otherwise reach the key twice
        with pytest.raises(ValueError, match="strictly increasing"):
            run_sifting(
                _train([ZERO, ONE]), (slots, [0, 1]), NO_MONITOR, NO_VERIFY, np.random.default_rng(0)
            )

    def test_abort_on_monitor_breaks(self):
        train = _train([DECOY, ZERO])
        monitor = (np.array([0, 2]), np.array([0]))
        result, _ = run_sifting(
            train, NOTHING_DETECTED, monitor, NO_VERIFY, np.random.default_rng(0)
        )
        assert result.break_rate == 0.5
        assert result.verdict == "abort"

    def test_verification_excluded_from_key(self):
        train = _train([ZERO, ONE] * 50)
        detected = (np.arange(100), np.arange(100) % 2)
        result, transcript = run_sifting(
            train, detected, NO_MONITOR, SimConfig(f_verify=0.3), np.random.default_rng(1)
        )
        verify = set(transcript.get("VerificationRequest")["slots"])
        kept = set(transcript.get("KeyIndices")["slots"])
        assert verify and kept
        assert verify.isdisjoint(kept)
        discarded = set(transcript.get("DecoyDiscard")["slots"])
        announced = set(transcript.get("DetectionReport")["slots"])
        assert verify | kept == announced - discarded


class TestAlarmRule:
    def test_automatic_threshold(self):
        config = SimConfig(f_verify=0.0, p_dark_mon=0.01)
        expect = 0.01 + 3 * math.sqrt(0.01 * 0.99 / 400)
        assert _alarm_threshold(config, 400) == pytest.approx(expect)
        # 9 of 400 checked boundaries click below it (0.0225), 10 above (0.025)
        for n_clicks, verdict in ((9, "accept"), (10, "abort")):
            result, _ = _sift_monitor(np.arange(400), np.arange(n_clicks), config)
            assert result.verdict == verdict

    def test_zero_without_dark_counts_or_checks(self):
        assert _alarm_threshold(SimConfig(p_dark_mon=0.0), 400) == 0.0
        assert _alarm_threshold(SimConfig(p_dark_mon=0.01), 0) == 0.0
        # with no dark-count floor a single monitor click aborts
        result, _ = _sift_monitor(np.arange(1000), np.array([0]))
        assert result.verdict == "abort"

    def test_explicit_threshold_wins(self):
        config = SimConfig(f_verify=0.0, p_dark_mon=0.01, alarm_threshold=0.5)
        assert _alarm_threshold(config, 400) == 0.5
        assert _alarm_threshold(replace(config, p_dark_mon=0.0), 0) == 0.5
        result, _ = _sift_monitor(np.arange(4), np.array([0, 1, 2]), config)
        assert result.verdict == "abort"
        result, _ = _sift_monitor(np.arange(4), np.array([0]), config)
        assert result.verdict == "accept"

    def test_rate_equal_to_threshold_accepts(self):
        config = SimConfig(f_verify=0.0, alarm_threshold=0.25)
        result, _ = _sift_monitor(np.arange(4), np.array([0]), config)
        assert result.break_rate == 0.25
        assert result.verdict == "accept"


class TestTranscript:
    def test_order_enforced(self):
        t = Transcript()
        t.append("DecoyDiscard", {"slots": []})
        with pytest.raises(TranscriptError):
            t.append("DetectionReport", {"slots": []})

    def test_roundtrip(self):
        stats, transcript, _ = run(SimConfig(n_bits=500, attack=Attack.AND_MASK))
        text = transcript.to_jsonl()
        again = Transcript.from_jsonl(text)
        assert again.to_jsonl() == text
        assert list(again.messages) == list(MESSAGE_ORDER)

    @pytest.mark.parametrize(
        "line",
        ["not json", "[1,2]", '"abc"', "5", "null", "{}"],
        ids=["text", "array", "string", "number", "null", "no-kind"],
    )
    def test_malformed_line(self, line):
        text = '{"kind": "DetectionReport", "slots": []}\n' + line + "\n"
        with pytest.raises(TranscriptError, match="line 2"):
            Transcript.from_jsonl(text)


class TestJsonInts:
    """_json_ints(a) is json.dumps(a.tolist()), byte for byte."""

    @settings(deadline=None)
    @given(st.lists(st.one_of(st.integers(INT64.min, INT64.max), st.sampled_from(WIDE_EDGES))))
    def test_int64(self, values):
        a = np.array(values, dtype=np.int64)
        assert _json_ints(a) == json.dumps(a.tolist())

    @settings(deadline=None)
    @given(st.lists(st.integers(0, 255)))
    def test_uint8(self, values):
        a = np.array(values, dtype=np.uint8)
        assert _json_ints(a) == json.dumps(a.tolist())

    @pytest.mark.parametrize(
        "a",
        [
            np.array([], dtype=np.int64),
            np.array([], dtype=np.uint8),
            np.array([0]),
            np.array(WIDE_EDGES),
            np.array([-1, 0, 1, -9, 10, -10]),
            np.array([np.iinfo(np.uint64).max, 10**19, 10**19 - 1, 0], dtype=np.uint64),
        ],
        ids=["empty", "empty-uint8", "zero", "edges", "small-signed", "uint64"],
    )
    def test_edges(self, a):
        assert _json_ints(a) == json.dumps(a.tolist())


def _noisy_run():
    config = SimConfig(n_bits=3000, attack=Attack.AND_MASK, p_dark_data=1e-3, p_dark_mon=1e-3, seed=4)
    _, transcript, _ = run(config)
    return transcript


class TestTranscriptPayloads:
    def test_get_returns_lists_of_python_ints(self):
        transcript = _noisy_run()
        for kind in MESSAGE_ORDER:
            for key, value in transcript.get(kind).items():
                if kind == "Verdict":
                    assert isinstance(value, str)
                else:
                    assert type(value) is list, (kind, key)
                    assert {type(v) for v in value} <= {int}, (kind, key)
        assert any(transcript.get("MonitorReport")["clicks"])

    def test_get_returns_a_new_dict(self):
        transcript = _noisy_run()
        transcript.get("KeyIndices")["slots"] = []
        assert transcript.get("KeyIndices")["slots"] != []

    @pytest.mark.parametrize("strategy", list(DecoyStrategy))
    def test_to_jsonl_matches_json_dumps(self, strategy):
        config = SimConfig(
            n_bits=3000, decoy_strategy=strategy, attack=Attack.AND_MASK, p_dark_mon=1e-3, seed=6
        )
        _, transcript, _ = run(config)
        reference = "".join(
            json.dumps({"kind": k, **transcript.get(k)}, sort_keys=True) + "\n"
            for k in MESSAGE_ORDER
        )
        assert transcript.to_jsonl() == reference

    def test_to_jsonl_matches_json_dumps_on_mixed_values(self):
        t = Transcript()
        t.append(
            "DetectionReport",
            {
                "z": {"b": [1, 2], "a": "\u00e9"},
                "slots": np.array([-3, 0, INT64.max]),
                "bits": np.array([1, 0], dtype=np.uint8),
                "rate": 0.1,
                "none": None,
            },
        )
        t.append("Verdict", {"verdict": "accept"})
        reference = "".join(
            json.dumps({"kind": k, **t.get(k)}, sort_keys=True) + "\n"
            for k in ("DetectionReport", "Verdict")
        )
        assert t.to_jsonl() == reference

    @pytest.mark.parametrize(
        "payload",
        [
            {"kind": "Verdict", "slots": [1]},
            {1: 2},
            {None: [1]},
            {"slots": np.array([True, False])},
            {"slots": np.array([1.5])},
            {"slots": np.zeros((2, 2), dtype=np.int64)},
        ],
        ids=["kind-key", "int-key", "none-key", "bool-array", "float-array", "2d-array"],
    )
    def test_bad_payload_rejected(self, payload):
        t = Transcript()
        with pytest.raises(TranscriptError, match="KeyIndices payload"):
            t.append("KeyIndices", payload)
        assert t.messages == {}


class TestDiscardCorrectness:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_no_decoy_in_key(self, seed):
        config = SimConfig(
            n_bits=2000,
            attack=Attack.AND_MASK,
            decoy_strategy=DecoyStrategy.FRAME_HEADER,
            p_dark_data=0.05,
            seed=seed,
        )
        _, transcript, _ = run(config)
        # rebuild Alice's layout deterministically from the same seed
        from cowsim.alice import generate_raw_bits, insert_decoys

        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(4)[0])
        bits = generate_raw_bits(2000, rng)
        train = insert_decoys(bits, DecoyStrategy.FRAME_HEADER)
        kept = transcript.get("KeyIndices")["slots"]
        assert not np.any(train[kept] == DECOY)
