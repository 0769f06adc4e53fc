import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cowsim.alice import DECOY, DecoyStrategy, SlotMap
from cowsim.engine import Attack, SimConfig, run
from cowsim.sifting import (
    MESSAGE_ORDER,
    MonitorOutcome,
    Transcript,
    TranscriptError,
    compute_qber,
    run_sifting,
)

NO_MONITOR = MonitorOutcome(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
NOTHING_DECODED = (np.array([], dtype=np.int64), np.array([], dtype=np.uint8))


class TestQber:
    def test_empty(self):
        assert compute_qber([], []) == 0.0

    def test_agreement(self):
        assert compute_qber([0, 1], [0, 1]) == 0.0

    def test_half(self):
        assert compute_qber(np.array([0, 1, 0, 1]), np.array([1, 1, 0, 0])) == 0.5


class TestMonitorOutcome:
    def test_clicked_outside_checked_rejected(self):
        with pytest.raises(ValueError, match="subset"):
            MonitorOutcome(np.array([0, 2, 4]), np.array([2, 3]))

    def test_unsorted_checked_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            MonitorOutcome(np.array([4, 0, 2]), np.array([2]))

    def test_duplicate_checked_accepted(self):
        outcome = MonitorOutcome(np.array([0, 2, 2, 4]), np.array([2, 2]))
        assert outcome.break_rate == 0.5

    @given(st.lists(st.tuples(st.integers(0, 40), st.booleans()), max_size=30))
    def test_monitor_report_matches_isin(self, draws):
        # clicked in any order, duplicate boundaries in checked
        checked = np.sort(np.array([b for b, _ in draws], dtype=np.int64))
        clicked = np.array([b for b, hit in reversed(draws) if hit], dtype=np.int64)
        _, transcript = run_sifting(
            SlotMap(np.array([0])),
            NOTHING_DECODED,
            MonitorOutcome(checked, clicked),
            0.0,
            1.0,
            np.random.default_rng(0),
        )
        report = transcript.get("MonitorReport")
        assert report["boundaries"] == checked.tolist()
        assert report["clicks"] == np.isin(checked, clicked).astype(int).tolist()


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
        assert result.bob_key.tolist() == [0, 1]
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
        monitor = MonitorOutcome(np.array([0, 2]), np.array([0]))
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
