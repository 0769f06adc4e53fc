import numpy as np
import pytest

from cowsim.alice import DECOY, DecoyStrategy, SlotMap
from cowsim.engine import Attack, SimConfig, run
from cowsim.sifting import (
    MESSAGE_ORDER,
    Transcript,
    TranscriptError,
    compute_qber,
    run_sifting,
)

NO_MONITOR = (np.array([], dtype=np.int64), np.array([], dtype=bool))
NOTHING_DECODED = (np.array([], dtype=np.int64), np.array([], dtype=np.uint8))


class TestQber:
    def test_empty(self):
        assert compute_qber([], []) == 0.0

    def test_agreement(self):
        assert compute_qber([0, 1], [0, 1]) == 0.0

    def test_half(self):
        assert compute_qber(np.array([0, 1, 0, 1]), np.array([1, 1, 0, 0])) == 0.5


def _sift_monitor(checked, clicks):
    monitor = (checked, clicks)
    return run_sifting(
        SlotMap(np.array([0])), NOTHING_DECODED, monitor, 0.0, 1.0, np.random.default_rng(0)
    )


class TestMonitorOutcome:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="differ in length"):
            _sift_monitor(np.array([0, 2, 4]), np.array([True, False]))

    def test_unsorted_checked_reported_in_order(self):
        result, transcript = _sift_monitor(np.array([4, 0, 2]), np.array([True, False, False]))
        assert result.break_rate == pytest.approx(1 / 3)
        assert transcript.get("CoherenceCheck")["boundaries"] == [4, 0, 2]
        assert transcript.get("MonitorReport")["clicks"] == [1, 0, 0]

    def test_duplicate_checked_accepted(self):
        result, _ = _sift_monitor(np.array([0, 2, 2, 4]), np.array([False, True, True, False]))
        assert result.break_rate == 0.5


class TestRunSifting:
    def test_table1_scenario(self):
        slot_map = SlotMap(np.array([0, 0, 1, 1, DECOY, DECOY]))
        decoded = (np.array([0, 3, 4, 5]), np.array([0, 1, 0, 1]))
        result, transcript = run_sifting(
            slot_map, decoded, NO_MONITOR, 0.0, 0.0, np.random.default_rng(0)
        )
        assert transcript.get("DetectionReport")["slots"] == [0, 3, 4, 5]
        assert transcript.get("DecoyDiscard")["slots"] == [4, 5]
        assert result.kept_indices.tolist() == [0, 3]
        assert result.alice_key.tolist() == [0, 1]
        assert result.qber == 0.0

    def test_no_detections(self):
        slot_map = SlotMap(np.array([0, 1]))
        result, transcript = run_sifting(
            slot_map, NOTHING_DECODED, NO_MONITOR, 0.1, 0.0, np.random.default_rng(0)
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
        slot_map = SlotMap(np.array([0, 1]))
        with pytest.raises(ValueError):
            run_sifting(
                slot_map, ([5], [0]), NO_MONITOR, 0.0, 0.0, np.random.default_rng(0)
            )

    def test_abort_on_monitor_breaks(self):
        slot_map = SlotMap(np.array([DECOY, 0]))
        monitor = (np.array([0, 2]), np.array([True, False]))
        result, _ = run_sifting(
            slot_map, NOTHING_DECODED, monitor, 0.0, 0.0, np.random.default_rng(0)
        )
        assert result.break_rate == 0.5
        assert result.verdict == "abort"

    def test_verification_excluded_from_key(self):
        slot_map = SlotMap(np.arange(100) % 2)
        decoded = (np.arange(100), np.arange(100) % 2)
        result, transcript = run_sifting(
            slot_map, decoded, NO_MONITOR, 0.3, 0.0, np.random.default_rng(1)
        )
        verify = set(transcript.get("VerificationRequest")["slots"])
        kept = set(transcript.get("KeyIndices")["slots"])
        assert verify and kept
        assert verify.isdisjoint(kept)
        discarded = set(transcript.get("DecoyDiscard")["slots"])
        announced = set(transcript.get("DetectionReport")["slots"])
        assert verify | kept == announced - discarded


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
        assert [m.kind for m in again.messages] == list(MESSAGE_ORDER)

    def test_malformed_line(self):
        with pytest.raises(TranscriptError):
            Transcript.from_jsonl("not json\n")


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
        slot_map = insert_decoys(bits, DecoyStrategy.FRAME_HEADER)
        kept = transcript.get("KeyIndices")["slots"]
        assert not any(slot_map.is_decoy[s] for s in kept)
