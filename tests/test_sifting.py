import functools
import json
import math
import time
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cowsim import bob, eve, sifting
from cowsim.alice import DECOY, DecoyStrategy, Train, _pattern, generate_raw_bits, insert_decoys
from cowsim.engine import _SATURATED, Attack, SimConfig, _streams, run
from cowsim.sifting import (
    _BLOCK,
    MESSAGE_ORDER,
    Transcript,
    TranscriptError,
    _binomial_tail,
    _list_pieces,
    run_sifting,
)
import protocol_model
from pooled import SEEDS, assert_binomial
from protocol_model import ONE, ZERO, _train

NO_MONITOR = np.array([], dtype=np.int64)
NOTHING_DETECTED = (np.array([], dtype=np.int64), np.array([], dtype=np.uint8))
NO_VERIFY = SimConfig(f_verify=0.0)

INT64 = np.iinfo(np.int64)
# every digit-count boundary within int64, both signs, and both ends of the range
WIDE_EDGES = sorted(
    {0, INT64.max, INT64.min}
    | {sign * v for k in range(1, 19) for v in (10**k - 1, 10**k) for sign in (1, -1)}
)


def _sift_monitor(clicks, config=NO_VERIFY, patterns=None):
    """run_sifting's (result, transcript) for Bob's monitor clicks and nothing
    detected, on the given slot patterns: by default the fewest ZERO slots,
    none of whose boundaries is coherent, that hold every click."""
    clicks = np.asarray(clicks, dtype=np.int64)
    if patterns is None:
        patterns = [ZERO] * ((int(np.max(clicks, initial=0)) + 1) // 2 + 1)
    return run_sifting(_train(patterns), NOTHING_DETECTED, clicks, config, np.random.default_rng(0))


def _coherent_clicks(n_coherent, n_clicked, config=NO_VERIFY):
    """_sift_monitor on n_coherent (ONE, ZERO) slot pairs, whose coherent
    boundaries are 4j + 1, with clicks at the first n_clicked of them."""
    return _sift_monitor(4 * np.arange(n_clicked) + 1, config, [ONE, ZERO] * n_coherent or [ZERO])


class TestMonitorOutcome:
    @pytest.mark.parametrize("clicks", [[4, 0, 2], [0, 2, 2, 4]], ids=["unsorted", "duplicate"])
    def test_checked_not_increasing_rejected(self, clicks):
        # Bob announces each monitor click once, in order, as receive returns them
        with pytest.raises(ValueError, match="^monitor clicks must be strictly increasing$"):
            _sift_monitor(clicks)

    @settings(deadline=None, max_examples=150)
    @given(data=st.data(), patterns=st.lists(st.integers(0, DECOY), min_size=1, max_size=40))
    def test_flags_match_isin(self, data, patterns):
        # any train, with any sorted clicks and detections; both ends 0 and 2n - 2 likely:
        # the whole dialog is the protocol model's
        n = len(patterns)
        boundary = st.one_of(st.sampled_from([0, 2 * n - 2]), st.integers(0, 2 * n - 2))
        clicks = sorted(data.draw(st.sets(boundary, max_size=20)))
        slots = sorted(data.draw(st.sets(st.integers(0, n - 1))))
        detected, rng = (slots, [1] * len(slots)), np.random.default_rng(0)
        _, transcript = run_sifting(_train(patterns), detected, clicks, SimConfig(), rng)
        expected = protocol_model.dialog(patterns, *detected, clicks, SimConfig(), np.random.default_rng(0))
        assert {kind: transcript.get(kind) for kind in transcript.messages} == expected
        report = transcript.messages["MonitorReport"]
        coherent = np.flatnonzero(protocol_model.pairs(patterns) == 2)
        assert report["clicks"].tolist() == np.isin(clicks, coherent).tolist()
        assert report["clicks"].dtype == np.uint8


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

    def test_qber_counts_flipped_reveals(self):
        # Bob holds the wrong bit on every third slot, and on no other
        train = _train([ZERO, ONE] * 50)
        slots = np.arange(100)
        values = slots % 2
        values[::3] ^= 1
        result, transcript = run_sifting(
            train, (slots, values), NO_MONITOR, SimConfig(f_verify=0.5), np.random.default_rng(1)
        )
        reveal, checked = transcript.get("VerificationReveal"), transcript.get("VerificationRequest")["slots"]
        alice, bob = np.array(reveal["alice_bits"]), np.array(reveal["bob_bits"])
        flipped = [slot for slot in checked if slot % 3 == 0]
        assert result.qber > 0
        assert result.qber == np.count_nonzero(alice != bob) / alice.size
        assert result.qber == len(flipped) / len(checked)

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

    @pytest.mark.parametrize(
        "detected, monitor, name",
        [
            ((np.array([0.7, 2.9]), [0, 1]), NO_MONITOR, "detected slots must be integers"),
            ((np.array([0, 1]), np.array([0.0, 1.0])), NO_MONITOR, "detected values must be integers"),
            (([0], [3]), NO_MONITOR, "detected values must lie in"),
            (([-1], [0]), NO_MONITOR, "detected slots must lie in"),
            (NOTHING_DETECTED, np.array([0.2]), "monitor clicks must be integers"),
            (NOTHING_DETECTED, np.array([1.0]), "monitor clicks must be integers"),
            (NOTHING_DETECTED, [3], "monitor clicks must lie in"),
            (NOTHING_DETECTED, [-5], "monitor clicks must lie in"),
            (NOTHING_DETECTED, [0, 4 * 10**7], "monitor clicks must lie in"),
            (([0, 1], [0]), NO_MONITOR, "detected slots and values differ in length"),
            ((np.array([[0, 1]]), [0, 1]), NO_MONITOR, r"detected slots must be 1-D, got shape \(1, 2\)"),
            (NOTHING_DETECTED, [[0, 1]], r"monitor clicks must be 1-D, got shape \(1, 2\)"),
            # a bool array of positions is a mask, not slots 0 and 1
            ((np.array([True, False]), [0, 1]), NO_MONITOR, "detected slots must be integers, got bool"),
        ],
        ids=[
            "float-slots",
            "float-values",
            "value-3",
            "negative-slot",
            "float-checked",
            "float-clicked",
            "checked-past-end",
            "negative-click",
            "click-far-past-end",
            "length-mismatch",
            "2d-slots",
            "2d-checked",
            "bool-slots",
        ],
    )
    def test_bad_input_named(self, detected, monitor, name):
        # two slots have boundaries 0, 1 and 2; nothing is cast before it is checked
        with pytest.raises(ValueError, match=name):
            run_sifting(_train([ZERO, ONE]), detected, monitor, NO_VERIFY, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "train, message",
        [
            # patterns 7 once sifted as key bits 3
            (np.array([7, 7, 7, 7]), r"^patterns must lie in \[0, 4\), got values in \[7, 7\]$"),
            (np.array([1.0, 2.0, 1.0, 2.0]), "^patterns must be integers, got float64$"),
            (np.array([[1, 2], [1, 2]]), r"^patterns must be 1-D, got shape \(2, 2\)$"),
        ],
        ids=["pattern-7", "float", "2-D"],
    )
    def test_bad_train_named(self, train, message):
        # a train is checked once, where it is built, so no such train reaches the dialog
        with pytest.raises(ValueError, match=message):
            run_sifting(_train(train), ([0, 1], [0, 1]), NO_MONITOR, NO_VERIFY, np.random.default_rng(0))

    def test_rejects_pattern_array(self):
        with pytest.raises(ValueError, match="^train must be an alice.Train, got ndarray$"):
            run_sifting(
                np.array([ZERO, ONE], dtype=np.uint8), ([0, 1], [0, 1]), NO_MONITOR, NO_VERIFY,
                np.random.default_rng(0),
            )

    @pytest.mark.parametrize("made_by", ["generate_mask", "apply_and_mask", "Train"])
    def test_rejects_train_without_counts(self, made_by):
        # the counts come with Alice's train, and no stage recounts them from the bins
        train = _train([ZERO, ONE, DECOY, ONE])
        mask = eve.generate_mask(train.n, np.random.default_rng(0))
        other = {"generate_mask": mask, "apply_and_mask": eve.apply_and_mask(train, mask), "Train": Train(train.bins, 4)}
        with pytest.raises(ValueError, match="^train must be Alice's train"):
            run_sifting(other[made_by], ([0, 1], [0, 1]), NO_MONITOR, NO_VERIFY, np.random.default_rng(0))

    def test_empty_inputs_of_any_dtype(self):
        empty = np.array([])  # float64
        result, transcript = run_sifting(
            _train([ZERO]), (empty, empty), empty, NO_VERIFY, np.random.default_rng(0)
        )
        assert result.kept_indices.size == 0 and result.break_rate == 0.0
        assert transcript.messages["KeyIndices"]["slots"].dtype == np.int64

    @pytest.mark.parametrize("slots", [[0, 0], [1, 0]], ids=["duplicate", "unsorted"])
    def test_unsorted_slots_rejected(self, slots):
        # Bob's slots are strictly increasing as receive returns them; a
        # repeated slot would otherwise reach the key twice
        with pytest.raises(ValueError, match="strictly increasing"):
            run_sifting(
                _train([ZERO, ONE]), (slots, [0, 1]), NO_MONITOR, NO_VERIFY, np.random.default_rng(0)
            )

    def test_abort_on_monitor_breaks(self):
        # coherent boundaries 0 (inside the decoy) and 1 (its late pulse, then the 0's early one)
        train = _train([DECOY, ZERO])
        result, transcript = run_sifting(
            train, NOTHING_DETECTED, np.array([0, 2]), NO_VERIFY, np.random.default_rng(0)
        )
        assert transcript.get("MonitorReport") == {"boundaries": [0, 2], "clicks": [1, 0], "coherent": 2}
        assert result.break_rate == 0.5
        assert result.verdict == "abort"

    @pytest.mark.parametrize("f_verify", [0.1, 0.5])
    def test_verified_fraction(self, f_verify):
        # pooled over seeds: each slot left after the decoys and the slots
        # beside a monitor click is verified with f_verify, the rest kept
        verified = remainder = 0
        for seed in SEEDS:
            stats, _, _ = run(SimConfig(n_bits=10_000, f_verify=f_verify, p_dark_mon=1e-3, seed=seed))
            verified += stats.verified_count
            remainder += stats.verified_count + stats.sifted_len
        assert_binomial(verified, remainder, f_verify, f"f_verify={f_verify}")

    def test_verification_excluded_from_key(self):
        # a key slot is never revealed, and every detected data slot is one or the other
        train, detected, config = [ZERO, ONE] * 50, (list(range(100)), [0, 1] * 50), SimConfig(f_verify=0.3)
        _, transcript = run_sifting(_train(train), detected, NO_MONITOR, config, np.random.default_rng(1))
        assert transcript.get("VerificationRequest")["slots"] and transcript.get("KeyIndices")["slots"]
        expected = protocol_model.dialog(train, *detected, [], config, np.random.default_rng(1))
        assert {kind: transcript.get(kind) for kind in transcript.messages} == expected

    def test_bool_values_sift_as_uint8(self):
        # Bob's values are bits, and a bool array of them is the same bits
        patterns = np.array([ZERO, ONE, DECOY] * 40, dtype=np.uint8)
        train = _train(patterns)
        slots = np.arange(0, 120, 2)
        values = patterns[slots] >> 1
        values[::7] ^= 1
        monitor = np.array([2, 4])
        config = SimConfig(f_verify=0.4)
        result, transcript = run_sifting(train, (slots, values), monitor, config, np.random.default_rng(3))
        bool_result, bool_transcript = run_sifting(
            train, (slots, values.astype(bool)), monitor, config, np.random.default_rng(3)
        )
        assert transcript.to_jsonl() == bool_transcript.to_jsonl()
        for name, value in vars(result).items():
            assert np.array_equal(getattr(bool_result, name), value), name
        assert 0 < result.qber < 1 and result.verified_count > 0


class TestAlarmRule:
    # the verdict aborts when P(K >= k) < alarm_alpha for the k clicked of the
    # n coherent boundaries, K ~ Binomial(n, q0) and q0 an intact pair's click
    # probability

    def test_default_alpha_is_the_one_sided_three_sigma_rate(self):
        assert SimConfig().alarm_alpha == pytest.approx(0.5 * math.erfc(3 / math.sqrt(2)), rel=1e-15)

    def test_no_checks_accept(self):
        # n = 0: P(K >= 0) = 1, and a click off the coherent boundaries counts for nothing
        assert _binomial_tail(0, 0, 0.5) == 1.0
        result, transcript = _sift_monitor([0, 3])
        assert transcript.get("MonitorReport") == {"boundaries": [0, 3], "clicks": [0, 0], "coherent": 0}
        assert result.verdict == "accept"

    def test_one_click_aborts_when_q0_is_0(self):
        # V = 1 and no dark counts: an intact pair never clicks, so one click proves a broken one
        assert bob.monitor_click_probability(NO_VERIFY)[2] == 0.0
        assert _binomial_tail(1, 1000, 0.0) == 0.0
        result, _ = _coherent_clicks(1000, 1)
        assert result.verdict == "abort"
        result, _ = _coherent_clicks(1000, 0)
        assert result.verdict == "accept"

    def test_q0_of_1_accepts(self):
        # saturated detectors at V < 1: every intact pair clicks, so even k = n tells nothing
        config = SimConfig(f_verify=0.0, visibility=0.98, **_SATURATED)
        assert bob.monitor_click_probability(config)[2] == 1.0
        result, _ = _coherent_clicks(50, 50, config)
        assert result.break_rate == 1.0
        assert result.verdict == "accept"

    def test_every_check_clicking(self):
        # k = n: P(K >= n) = q0**n, 1/16 at q0 = 1/2 (p_dark_mon = 1/2, V = 1) and n = 4
        config = SimConfig(f_verify=0.0, p_dark_mon=0.5)
        assert bob.monitor_click_probability(config)[2] == 0.5
        assert _binomial_tail(4, 4, 0.5) == pytest.approx(1 / 16, rel=1e-15)
        for alpha, verdict in ((1 / 16 * (1 + 1e-9), "abort"), (1 / 16 * (1 - 1e-9), "accept")):
            result, _ = _coherent_clicks(4, 4, replace(config, alarm_alpha=alpha))
            assert result.verdict == verdict

    def test_critical_count(self):
        # the rule aborts from the first k whose tail is below alpha
        config = SimConfig(f_verify=0.0, p_dark_mon=0.01)
        tails = scipy.stats.binom.sf(np.arange(-1, 400), 400, 0.01)  # tails[k] = P(K >= k)
        k = int(np.argmax(tails < config.alarm_alpha))
        assert k == 12
        for n_clicks, verdict in ((k - 1, "accept"), (k, "abort")):
            result, _ = _coherent_clicks(400, n_clicks, config)
            assert result.verdict == verdict

    def test_tail_takes_sqrt_n_terms(self):
        # the sum runs over O(sqrt(n q (1 - q))) terms, never O(n); the longest
        # starts at the mean, on either side
        n = 10**9
        for k in (n // 2, n // 2 + 1):
            start = time.perf_counter()
            tail = _binomial_tail(k, n, 0.5)
            assert time.perf_counter() - start < 0.5
            assert tail == pytest.approx(0.5, abs=1e-4)


# lgamma is good to a few ulps of its value, so the tail's relative error is
# about 2 n ln n 2**-52: 4e-8 at n = 10**7, the largest n here, well inside 1e-6
TAIL_NS = (1, 2, 7, 50, 400, 1403, 418_687, 10**6, 10**7)
TAIL_QS = (1e-9, 1e-5, 6e-4, 0.01, 0.3, 0.5, 0.77, 0.999)


@pytest.mark.parametrize("q", TAIL_QS)
@pytest.mark.parametrize("n", TAIL_NS)
def test_tail_matches_scipy(n, q):
    mean, sd = n * q, math.sqrt(n * q * (1 - q))
    ks = {0, 1, 2, n - 1, n, n + 1, math.floor(mean), math.floor(mean) + 1}
    ks |= {math.floor(mean + z * sd) for z in (-3, -1, 1, 3, 10)}
    for k in sorted(k for k in ks if 0 <= k <= n + 1):
        reference = scipy.stats.binom.sf(k - 1, n, q)
        # near 1e-308 the terms go subnormal and lose digits
        assert _binomial_tail(k, n, q) == pytest.approx(reference, rel=1e-6, abs=1e-300), k


def _alice_train(config: SimConfig) -> np.ndarray:
    """The slot patterns of Alice's pulse train as run draws it from config.seed, a uint8 array."""
    rng_bits = _streams(np.random.SeedSequence(config.seed))[0]
    train = insert_decoys(generate_raw_bits(config.n_bits, rng_bits), config.n_bits, config.decoy_strategy)
    return _pattern(train, np.arange(train.n))


@functools.cache
def _coherent_counts(n_bits: int, seed: int) -> tuple[int, int]:
    """(n_even, n_odd) of Alice's train as run draws it at the default decoy
    layout: its coherent boundaries inside decoy slots and between slots,
    found once per session."""
    boundaries = np.flatnonzero(protocol_model.pairs(_alice_train(SimConfig(n_bits=n_bits, seed=seed))) == 2)
    n_odd = int(np.count_nonzero(boundaries & 1))
    return boundaries.size - n_odd, n_odd


def _verdict_rates(config: SimConfig, n_even: int, n_odd: int) -> tuple[float, float]:
    """Closed-form (false-alarm rate, power against the mask) of the verdict
    on n_even coherent boundaries inside decoy slots and n_odd between slots.

    Without Eve every coherent boundary is an intact pair, so K ~ Binomial(n,
    q0) and the rule aborts from k*, the first k with P(K >= k) < alpha.
    Under the mask a decoy slot keeps one of its two pulses, which clicks
    with p1, and an odd boundary keeps each of its pulses with probability
    1/2, so it clicks with (p0 + 2 p1 + q0) / 4.  Two odd boundaries around
    one decoy slot share its mask, which keeps exactly one of them; that
    moves P(K = j) by O(p**2) per shared pair and is neglected, so under
    the mask K = Binomial(n_even, p1) + Binomial(n_odd, p_odd).
    """
    binom = scipy.stats.binom
    p0, p1, q0 = bob.monitor_click_probability(config).tolist()
    n = n_even + n_odd
    k = next(k for k in range(n + 2) if _binomial_tail(k, n, q0) < config.alarm_alpha)
    false_alarm = float(binom.sf(k - 1, n, q0))
    below = np.arange(k)
    accept = np.convolve(binom.pmf(below, n_even, p1), binom.pmf(below, n_odd, (p0 + 2 * p1 + q0) / 4))
    return false_alarm, 1.0 - float(accept[:k].sum())


@pytest.mark.parametrize("p_dark_mon", [0.0, 1e-5])
@pytest.mark.parametrize("visibility", [1.0, 0.98])
def test_verdict_rates_match_monte_carlo(visibility, p_dark_mon):
    # 1000 pooled 10k-bit runs per attack setting; each run's abort chance
    # is the closed form at the coherent boundaries of its own train, every
    # one of which the monitor checks.  A seed's train, boundaries and closed
    # form serve the runs of both attack settings, and the boundary counts
    # serve every parametrisation.
    base = SimConfig(n_bits=10_000, visibility=visibility, p_dark_mon=p_dark_mon)
    aborts, expected, variance = (dict.fromkeys(Attack, 0) for _ in range(3))
    for seed in range(20_000, 21_000):
        n_even, n_odd = _coherent_counts(base.n_bits, seed)
        false_alarm, power = _verdict_rates(base, n_even, n_odd)
        for attack in Attack:
            stats, transcript, _ = run(replace(base, attack=attack, seed=seed))
            assert transcript.messages["MonitorReport"]["coherent"] == n_even + n_odd
            assert false_alarm <= base.alarm_alpha
            p = power if attack is Attack.AND_MASK else false_alarm
            aborts[attack] += stats.verdict == "abort"
            expected[attack] += p
            variance[attack] += p * (1.0 - p)
    for attack in Attack:
        bound = 5.0 * math.sqrt(variance[attack])
        assert abs(aborts[attack] - expected[attack]) <= bound, (attack, aborts[attack], expected[attack])


class TestTranscript:
    def test_order_enforced(self):
        t = Transcript()
        t.append("DecoyDiscard", {"slots": []})
        with pytest.raises(TranscriptError):
            t.append("DetectionReport", {"slots": []})

    def test_unknown_kind_rejected(self):
        t = Transcript()
        with pytest.raises(TranscriptError, match="unknown message kind: Bogus"):
            t.append("Bogus", {})
        assert t.messages == {}

    def test_get_missing_kind_rejected(self):
        t = Transcript()
        t.append("DecoyDiscard", {"slots": []})
        with pytest.raises(TranscriptError, match="transcript has no Verdict message"):
            t.get("Verdict")

    def test_empty_transcript_is_empty_text(self):
        # no messages, no lines: not even a final newline
        assert Transcript().to_jsonl() == ""
        assert Transcript.from_jsonl("").messages == {}

    def test_roundtrip(self):
        stats, transcript, _ = run(SimConfig(n_bits=500, attack=Attack.AND_MASK))
        text = transcript.to_jsonl()
        again = Transcript.from_jsonl(text)
        assert again.to_jsonl() == text
        assert list(again.messages) == list(MESSAGE_ORDER)

    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            "[1,2]",
            '"abc"',
            "5",
            "null",
            "{}",
            '{"kind": "DetectionReport", "slots": [3]}',
            '{"kind": "Bogus"}',
            '{"kind": [1, 2], "slots": []}',
        ],
        ids=["text", "array", "string", "number", "null", "no-kind", "out-of-order", "unknown-kind", "list-kind"],
    )
    def test_malformed_line(self, line):
        text = '{"kind": "DetectionReport", "slots": []}\n' + line + "\n"
        with pytest.raises(TranscriptError, match="line 2"):
            Transcript.from_jsonl(text)


# a well-formed first line, so that the line under test is line 2
FIRST_LINE = '{"kind": "DetectionReport", "slots": [1, 2]}\n'


class TestFromJsonl:
    """from_jsonl reads each payload as json.loads does, or fails as it always did."""

    @settings(deadline=None)
    @given(st.lists(st.one_of(st.integers(INT64.min, INT64.max), st.sampled_from(WIDE_EDGES))))
    @example([])
    @example(WIDE_EDGES)
    def test_int64_lists(self, values):
        line = json.dumps({"kind": "KeyIndices", "slots": values, "note": "x"}, sort_keys=True)
        replay = Transcript.from_jsonl(line)
        expected = json.loads(line)
        del expected["kind"]
        assert replay.get("KeyIndices") == expected
        assert replay.messages["KeyIndices"]["slots"].dtype == np.int64

    @pytest.mark.parametrize(
        "line",
        [
            '{"kind": "KeyIndices", "slots": [-0]}',
            '{"kind": "KeyIndices", "slots": [ 1]}',
            '{"kind": "KeyIndices", "slots": [1,2]}',
            '{"kind": "KeyIndices", "slots": [1.5]}',
            '{"kind": "KeyIndices", "slots": [[1]]}',
            '{"kind": "KeyIndices", "slots": [true, 1]}',
            '{"kind": "KeyIndices", "slots": [NaN]}',
            '{"kind": "KeyIndices", "slots": [9223372036854775808]}',
            '{"kind": "KeyIndices", "slots": [-9223372036854775809]}',
            '{"kind": "KeyIndices", "slots": ["a]", 1]}',
            '{"kind": "KeyIndices", "note": "a]b", "slots": [1, 2]}',
            '{"kind": "KeyIndices", "slots": [1], "slots": [2, 3]}',
            '{"kind": "KeyIndices", "slots": [1, 2]} ',
            ' {"kind": "KeyIndices", "slots": [1, 2]}',
            '{"kind":"KeyIndices","slots":[1, 2]}',
            '{"kind": "KeyIndices", "slots": [1, 2], "z": {"b": [3, 4]}}',
        ],
        ids=[
            "minus-zero",
            "inner-blank",
            "no-blank",
            "float",
            "nested",
            "bool",
            "nan",
            "past-int64-max",
            "past-int64-min",
            "string-with-bracket",
            "scalar-with-bracket",
            "duplicate-key",
            "trailing-blank",
            "leading-blank",
            "compact",
            "list-in-object",
        ],
    )
    def test_read_as_json_loads(self, line):
        expected = json.loads(line)
        kind = expected.pop("kind")
        # repr tells 1 from True and 1.0, which == does not
        assert repr(Transcript.from_jsonl(FIRST_LINE + line).get(kind)) == repr(expected)

    @pytest.mark.parametrize(
        "line",
        [
            '{"kind":"KeyIndices","slots":[1, 2]}',
            '{"kind": "KeyIndices",  "slots": [1, 2]} ',
            '{"kind": "KeyIndices", "note": ["\u00e9"], "slots": [1, 2]}',
            '{"kind": "KeyIndices", "slots": [1, 2]}\r',
        ],
        ids=["compact", "extra-blanks", "non-ascii-list", "cr-ended"],
    )
    def test_object_lines_read_in_place(self, line):
        # any object line that parses is read in place, its lists by _read_ints:
        # json.loads only raises a line's error or reads a line that is no object
        expected = json.loads(line)
        kind = expected.pop("kind")
        with mock.patch.object(json, "loads", side_effect=AssertionError("json.loads called")):
            replay = Transcript.from_jsonl(FIRST_LINE + line)
        assert repr(replay.get(kind)) == repr(expected)
        slots = replay.messages[kind]["slots"]
        assert isinstance(slots, np.ndarray) and slots.dtype == np.int64

    @pytest.mark.parametrize(
        "line",
        [
            '{"kind": "KeyIndices", "slots": [01]}',
            '{"kind": "KeyIndices", "slots": [+1]}',
            '{"kind": "KeyIndices", "slots": [1 2]}',
            '{"kind": "KeyIndices", "slots": [1, 2,]}',
            '{"kind": "KeyIndices", "slots": [1, 2}',
            '{"kind": "KeyIndices", "slots": [1, 2]}x',
            '{"kind": "KeyIndices", "slots": [1, 2], }',
        ],
        ids=["leading-zero", "plus", "no-comma", "trailing-comma", "unclosed", "extra-data", "dangling-comma"],
    )
    def test_rejected_as_json_loads(self, line):
        with pytest.raises(json.JSONDecodeError) as expected:
            json.loads(line)
        with pytest.raises(TranscriptError, match="line 2") as info:
            Transcript.from_jsonl(FIRST_LINE + line)
        assert str(info.value) == f"bad transcript line 2: {expected.value}"

    @pytest.mark.parametrize(
        "line",
        [
            '{"kind": "KeyIndices", "slots": [' + "9" * 5000 + "]}",
            '{"kind": "KeyIndices", "n": ' + "9" * 5000 + ', "slots": [1]}',
        ],
        ids=["in-a-list", "scalar"],
    )
    def test_over_long_integer_named(self, line):
        # valid JSON syntax, but past Python's limit on the digits of an int
        with pytest.raises(ValueError) as expected:
            json.loads(line)
        with pytest.raises(TranscriptError) as info:
            Transcript.from_jsonl(FIRST_LINE + line)
        assert str(info.value) == f"bad transcript line 2: {expected.value}"


class TestLineBreaks:
    """Lines end at "\n" only, as JSON Lines has them."""

    # the breaks that JSON allows raw in a string; the others are control
    # characters, which json.dumps escapes
    @pytest.mark.parametrize("brk", ["\u2028", "\u2029", "\x85"])
    @pytest.mark.parametrize("with_list", [True, False], ids=["list", "scalars"])
    def test_other_breaks_inside_a_string(self, brk, with_list):
        # a raw line break of another kind is only a character of the string
        record = {"kind": "KeyIndices", "note": f"a{brk}b"}
        if with_list:
            record["slots"] = [1, 2]
        line = json.dumps(record, sort_keys=True, ensure_ascii=False)
        assert brk in line
        expected = json.loads(line)
        del expected["kind"]
        assert repr(Transcript.from_jsonl(FIRST_LINE + line + "\n").get("KeyIndices")) == repr(expected)

    def test_file_separator_between_objects_is_extra_data(self):
        text = '{"kind": "DetectionReport", "slots": [1]}\x1c{"kind": "KeyIndices", "slots": [1]}\n'
        with pytest.raises(json.JSONDecodeError, match="Extra data") as expected:
            json.loads(text)
        with pytest.raises(TranscriptError) as info:
            Transcript.from_jsonl(text)
        assert str(info.value) == f"bad transcript line 1: {expected.value}"

    def test_crlf_text_reads_the_same(self):
        text = _noisy_run().to_jsonl()
        again = Transcript.from_jsonl(text.replace("\n", "\r\n"))
        assert again.to_jsonl() == text
        # read in place, as a "\n" text is: every list an int64 array
        payloads = again.messages.values()
        lists = [v for payload in payloads for v in payload.values() if not isinstance(v, (str, int))]
        assert lists and all(isinstance(v, np.ndarray) and v.dtype == np.int64 for v in lists)

    def test_blank_lines_skipped(self):
        text = _noisy_run().to_jsonl()
        lines = text.split("\n")
        padded = "\n" + "\n \t\n".join(lines) + "\n\n"
        assert Transcript.from_jsonl(padded).to_jsonl() == text

    def test_crlf_error_keeps_its_columns(self):
        with pytest.raises(TranscriptError) as info:
            Transcript.from_jsonl('{"kind": \r\n')
        assert str(info.value) == "bad transcript line 1: Expecting value: line 1 column 11 (char 10)"

    @pytest.mark.parametrize("brk", ["\x1c", "\x85", "\u2028"])
    def test_line_of_another_break_rejected(self, brk):
        # only space, tab, \r and \n are JSON whitespace; json.loads rejects the rest
        with pytest.raises(json.JSONDecodeError) as expected:
            json.loads(brk)
        with pytest.raises(TranscriptError) as info:
            Transcript.from_jsonl(f'{{"kind": "Verdict", "verdict": "accept"}}\n{brk}\n')
        assert str(info.value) == f"bad transcript line 2: {expected.value}"

    def test_line_numbers_count_blank_lines(self):
        with pytest.raises(TranscriptError, match="line 3"):
            Transcript.from_jsonl(FIRST_LINE + "\nnot json\n")


def _split_and_loads(text: str):
    """The reference reading of a transcript text: each payload by kind, or the error text.

    The text is cut with split("\n"), lines of space, tab and "\r" alone
    are skipped, and every other line goes whole to json.loads.
    """
    payloads = {}
    for lineno, line in enumerate(text.split("\n"), 1):
        if not line.strip(" \t\r"):
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            return f"bad transcript line {lineno}: {exc}"
        if not isinstance(record, dict) or "kind" not in record:
            return f"bad transcript line {lineno}: not an object with a kind"
        payloads[record.pop("kind")] = record
    return payloads


def _payload_types(transcript):
    """Each payload of transcript by kind, each value as its type, dtype and JSON value."""
    return {
        kind: {
            key: (type(value), getattr(value, "dtype", None), repr(transcript.get(kind)[key]))
            for key, value in payload.items()
        }
        for kind, payload in transcript.messages.items()
    }


def _loads_and_append(text: str):
    """The reference reading of a transcript text: _payload_types of the transcript, or the error text.

    The text is cut with split("\n"), lines of space, tab and "\r" alone
    are skipped, and every other line goes whole to json.loads and append.
    """
    transcript = Transcript()
    for lineno, line in enumerate(text.split("\n"), 1):
        if not line.strip(" \t\r"):
            continue
        try:
            record = json.loads(line)
            if not isinstance(record, dict) or "kind" not in record:
                return f"bad transcript line {lineno}: not an object with a kind"
            transcript.append(record.pop("kind"), record)
        except ValueError as exc:  # json.JSONDecodeError or TranscriptError
            return f"bad transcript line {lineno}: {exc}"
    return _payload_types(transcript)


class TestLineWalk:
    """from_jsonl reads a text as split("\n") and json.loads of each line do."""

    @pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize(
        "text",
        [
            FIRST_LINE + '{"kind": "Verdict", "v": {\n"a": 1}}\n',
            FIRST_LINE + '{"kind": "Verdict", "v": {}\n}\n',
            FIRST_LINE + '{"kind": "KeyIndices", "slots": [1,\n2]}\n',
            FIRST_LINE + '{"kind": "KeyIndices", "slots": [1, 2\n]}\n',
            FIRST_LINE + '{"kind": "KeyIndices", "sl\nots": [1]}\n',
            FIRST_LINE + '{"kind": "KeyIndices", "slots": [3, 4]}',
            FIRST_LINE + '{"kind": "Verdict", "verdict": "accept"}',
            FIRST_LINE + '\r\n{"kind": "KeyIndices", "slots": [3, 4]}\n',
            "\n \n\t\n\r\n\n",
            FIRST_LINE + '{"kind": "MonitorReport", "boundaries": [3, 4]}\n{"kind": "Verdict", "v": [5]}\n',
            FIRST_LINE + '{"kind": "KeyIndices", "slots": [3, 4]} {"kind": "Verdict"}\n',
            FIRST_LINE + '{"kind": "Verdict", "verdict": "accept"}x\n',
        ],
        ids=[
            "object-across-lines",
            "object-closed-on-next-line",
            "list-across-lines",
            "list-closed-on-next-line",
            "key-across-lines",
            "last-line-unended",
            "last-scalar-line-unended",
            "cr-only-line",
            "blank-lines-only",
            "close-ends-line",
            "object-after-close",
            "data-after-close",
        ],
    )
    def test_reads_as_split_and_loads(self, text, eol):
        text = text.replace("\n", eol)
        expected = _split_and_loads(text)
        try:
            replay = Transcript.from_jsonl(text)
        except TranscriptError as exc:
            assert str(exc) == expected
        else:
            # repr tells 1 from True and 1.0, which == does not
            assert repr({kind: replay.get(kind) for kind in replay.messages}) == repr(expected)


def _json_ints(a):
    """The text of a's list as to_jsonl writes it."""
    return "".join(_list_pieces(a))


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
            # one block through the NUL bytes, with uint64 quotients
            np.array([v for v in WIDE_EDGES if v >= 0]),
            np.array([-1, 0, 1, -9, 10, -10]),
            np.array([np.iinfo(np.uint64).max, 10**19, 10**19 - 1, 0], dtype=np.uint64),
            np.resize(np.array(WIDE_EDGES), 2 * _BLOCK + 5),
            # blocks of different signs and widths: sign and width are per block
            np.concatenate([np.arange(_BLOCK), -(10**12) * np.arange(_BLOCK + 3), [7]]),
            # blocks of one digit count and no sign are written without NUL bytes
            np.array([123456]),
            np.array([1000, 5000, 4321]),
            np.array([1234, 9999, 5000]),
            np.array([999, 1000]),
            np.zeros(5, dtype=np.int64),
            np.array([-12, -34, -56]),
            np.array([INT64.min]),
            np.array([200, 100, 255], dtype=np.uint8),
            np.array([0, 7, 9], dtype=np.uint8),
        ],
        ids=[
            "empty",
            "empty-uint8",
            "zero",
            "edges",
            "edges-non-negative",
            "small-signed",
            "uint64",
            "blocks",
            "mixed-blocks",
            "one-number",
            "min-at-lowest-of-width",
            "max-at-highest-of-width",
            "width-changes",
            "all-zeros",
            "all-negative-one-width",
            "int64-min-alone",
            "uint8-three-digits",
            "uint8-one-digit",
        ],
    )
    def test_edges(self, a):
        assert _json_ints(a) == json.dumps(a.tolist())

    @pytest.mark.parametrize("block", [1, 2, 3])
    @settings(deadline=None, max_examples=50)
    @given(
        st.lists(
            st.one_of(
                st.integers(0, 9), st.integers(10, 99), st.integers(100, 999), st.sampled_from(WIDE_EDGES)
            ),
            max_size=40,
        )
    )
    def test_small_blocks(self, block, values):
        # uniform blocks and blocks of several widths or signs alternate
        a = np.array(values, dtype=np.int64)
        with mock.patch.object(sifting, "_BLOCK", block):
            assert _json_ints(a) == json.dumps(a.tolist())


def _noisy_run(n_bits=3000):
    config = SimConfig(n_bits=n_bits, attack=Attack.AND_MASK, p_dark_data=1e-3, p_dark_mon=1e-3, seed=4)
    _, transcript, _ = run(config)
    return transcript


# the real chunk size, and sizes that cut lists of a few numbers at every place:
# a chunk of numbers of width w ends on the "," of a ", " when its size is w
# modulo w + 2, on the space when it is w + 1, and inside a number otherwise
#   width 1:  "," at 1, 7, 19; space at 2, 20, 23; inside at 6
#   width 6:  "," at 6; space at 7, 23; inside at 1, 2, 19, 20
#   width 19: "," at 19; space at 20; inside at 1, 2, 6, 7, 23
CHUNKS = [1, 2, 6, 7, 19, 20, 23, sifting._CHUNK]


class TestChunks:
    """from_jsonl reads a list one chunk, cut at a ", " past _CHUNK characters, at a time.

    Each chunk is read run by run, a run being numbers of one digit count.
    """

    @pytest.mark.parametrize("chunk", CHUNKS)
    @settings(deadline=None, max_examples=40)
    @given(
        values=st.lists(
            st.one_of(
                st.sampled_from(WIDE_EDGES),
                st.integers(0, 1100),
                st.integers(-1100, -1),
                st.integers(INT64.min, INT64.max),
            ),
            max_size=50,
        ),
        sort=st.booleans(),
    )
    @example(values=list(range(10)), sort=False)
    @example(values=list(range(10**5, 10**5 + 10)), sort=False)
    @example(values=list(range(10**18, 10**18 + 5)), sort=False)
    def test_read_as_json_loads(self, chunk, values, sort):
        # sorted lists change digit count once per chunk at most, as index lists do
        slots = np.array(sorted(values) if sort else values, dtype=np.int64)
        t = Transcript()
        t.append("DetectionReport", {"slots": slots})
        t.append("KeyIndices", {"slots": slots[::-1].copy(), "bits": np.ones(slots.size, dtype=np.uint8)})
        text = t.to_jsonl()
        with mock.patch.object(sifting, "_CHUNK", chunk):
            replay = Transcript.from_jsonl(text)
        expected = _split_and_loads(text)
        assert {kind: replay.get(kind) for kind in replay.messages} == expected
        arrays = [v for payload in replay.messages.values() for v in payload.values()]
        assert all(isinstance(v, np.ndarray) and v.dtype == np.int64 for v in arrays)

    @pytest.mark.parametrize(
        "slots",
        [
            [1, 2345, 6],
            [1234, 1, 2, 5678],
            [12, 34, -5],
            [10, 20, 3],
            [7],
            [100, 20, 3],
            [10**18, 10**18 + 1],
            # nine digits add up in uint32, ten in int64
            [999999999, 1000000000],
            [123456789, 4294967295, 4294967296],
        ],
        ids=[
            "digits-under-separators",
            "separators-inside-rows",
            "signed-last",
            "short-last",
            "one",
            "digit-counts-fall",
            "nineteen-digits",
            "nine-then-ten-digits",
            "past-uint32",
        ],
    )
    def test_layouts_that_look_uniform(self, slots):
        # the first number's width fits the chunk's length, yet the numbers differ in width
        line = json.dumps({"kind": "KeyIndices", "slots": slots})
        replay = Transcript.from_jsonl(line)
        assert replay.get("KeyIndices") == {"slots": slots}
        assert replay.messages["KeyIndices"]["slots"].dtype == np.int64

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize(
        "inside",
        ["1, ", ", 1", "1, , 2", "1, 2, "],
        ids=["ends-in-separator", "starts-with-separator", "empty-between", "trailing-separator"],
    )
    def test_empty_pieces_rejected(self, chunk, inside):
        line = '{"kind": "KeyIndices", "slots": [' + inside + "]}"
        with pytest.raises(json.JSONDecodeError) as expected:
            json.loads(line)
        with mock.patch.object(sifting, "_CHUNK", chunk), pytest.raises(TranscriptError) as info:
            Transcript.from_jsonl(line)
        assert str(info.value) == f"bad transcript line 1: {expected.value}"

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize(
        "inside",
        ["1,  2", "12, 34 ", " 12, 34", "12 , 34", "1, " + "9" * 30 + ", 2"],
        ids=["two-blanks", "trailing-blank", "leading-blank", "blank-before-comma", "past-int64"],
    )
    def test_other_blanks_read_as_json_loads(self, chunk, inside):
        # valid JSON that to_jsonl never writes: its list read by json's scanner
        # and held as an int64 array unless a number is past int64; the 30-digit
        # number is one token longer than every patched chunk
        line = '{"kind": "KeyIndices", "slots": [' + inside + "]}"
        with mock.patch.object(sifting, "_CHUNK", chunk):
            replay = Transcript.from_jsonl(line)
        expected = json.loads(line)["slots"]
        assert repr(replay.get("KeyIndices")) == repr({"slots": expected})
        slots = replay.messages["KeyIndices"]["slots"]
        if all(INT64.min <= v <= INT64.max for v in expected):
            assert isinstance(slots, np.ndarray) and slots.dtype == np.int64
        else:
            assert type(slots) is list

    def test_long_lists_at_the_real_chunk(self):
        # several chunks each, cut inside runs of one width and across width changes
        edges = np.resize(np.array(WIDE_EDGES), 3 * sifting._CHUNK // 10)
        t = Transcript()
        t.append("DetectionReport", {"slots": np.arange(3 * sifting._CHUNK // 4)})
        t.append("KeyIndices", {"slots": edges})
        text = t.to_jsonl()
        replay = Transcript.from_jsonl(text)
        assert replay.to_jsonl() == text
        assert replay.messages["KeyIndices"]["slots"].tolist() == edges.tolist()

    @pytest.mark.parametrize("chunk", CHUNKS)
    @settings(deadline=None, max_examples=60)
    @given(
        boundaries=st.lists(st.one_of(st.integers(0, 1100), st.sampled_from([v for v in WIDE_EDGES if v >= 0]))),
        clicks=st.lists(st.integers(0, 1)),
        edit=st.data(),
    )
    def test_one_character_off_reads_as_json_loads(self, chunk, boundaries, clicks, edit):
        # a text as to_jsonl writes it, with one character inserted or deleted
        boundaries = sorted(boundaries)
        t = Transcript()
        t.append("DetectionReport", {"slots": boundaries})
        t.append("MonitorReport", {"boundaries": boundaries, "clicks": clicks})
        text = t.to_jsonl()
        at = edit.draw(st.integers(0, len(text) - 1), label="at")
        char = edit.draw(st.sampled_from(["", *"0123456789, -"]), label="char")
        text = text[:at] + char + text[at + (not char) :]
        with mock.patch.object(sifting, "_CHUNK", chunk):
            try:
                replay = _payload_types(Transcript.from_jsonl(text))
            except TranscriptError as exc:
                replay = str(exc)
        assert replay == _loads_and_append(text)

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_repeated_list_reads_back_equal(self, chunk):
        # six-digit numbers over three chunks or more; the last one is even,
        # so adding 1 changes only its last digit
        count = max(40, 3 * chunk // 8)
        first = np.arange(10**5, 10**5 + count + count % 2 + 1)
        last_digit_off = first.copy()
        last_digit_off[-1] += 1
        assert first[-1] % 2 == 0
        assert len(_json_ints(first)) == len(_json_ints(last_digit_off))
        t = Transcript()
        t.append("DetectionReport", {"slots": first})
        t.append("DecoyDiscard", {"slots": last_digit_off})
        t.append("VerificationRequest", {"slots": first})
        text = t.to_jsonl()
        with mock.patch.object(sifting, "_CHUNK", chunk):
            replay = Transcript.from_jsonl(text)
        assert replay.to_jsonl() == text
        kinds = ("DetectionReport", "DecoyDiscard", "VerificationRequest")
        slots = [replay.messages[kind]["slots"] for kind in kinds]
        assert slots[0].tolist() == slots[2].tolist() == first.tolist()
        assert slots[1].tolist() == last_digit_off.tolist()
        # each list reads back as an array of its own
        assert not np.shares_memory(slots[0], slots[2])


class TestCodecMemory:
    def test_peaks_against_the_text(self):
        # to_jsonl joins its pieces once, and formats one block of numbers at
        # a time into a row buffer; from_jsonl holds a chunk at a time besides
        # the arrays it returns.  The text must outgrow the row buffer, or a
        # to_jsonl that copied the joined text would fit the bound too: it
        # does at 300k bits (90 kB of text), and not at 1M (309 kB)
        n_bits = 1_000_000
        transcript = _noisy_run(n_bits)
        text = transcript.to_jsonl()
        Transcript.from_jsonl(text)  # first calls allocate module-level caches
        tracemalloc.start()
        try:
            transcript.to_jsonl()
            _, write_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            Transcript.from_jsonl(text)
            _, read_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rows = sifting._BLOCK * (len(str(2 * n_bits)) + 2)  # digits and ", " per number
        assert write_peak < 2.0 * len(text) + rows
        assert read_peak - before < 2.75 * len(text)


class TestTranscriptPayloads:
    def test_get_returns_lists_of_python_ints(self):
        transcript = _noisy_run()
        for kind in MESSAGE_ORDER:
            for key, value in transcript.get(kind).items():
                if kind == "Verdict":
                    assert isinstance(value, str)
                elif (kind, key) == ("MonitorReport", "coherent"):
                    assert type(value) is int
                else:
                    assert type(value) is list, (kind, key)
                    assert {type(v) for v in value} <= {int}, (kind, key)
        assert any(transcript.get("MonitorReport")["clicks"])

    def test_appended_int_lists_held_as_int64(self):
        payload = {"slots": [3, INT64.max, INT64.min], "empty": [], "z": {"b": [1]}, "note": "x"}
        t = Transcript()
        t.append("KeyIndices", payload)
        held = t.messages["KeyIndices"]
        for key in ("slots", "empty"):
            assert isinstance(held[key], np.ndarray) and held[key].dtype == np.int64
            assert held[key].tolist() == payload[key]
        # other values are held as they are, and the caller's dict is left alone
        assert held["z"] == {"b": [1]} and held["note"] == "x"
        assert type(payload["slots"]) is list
        assert t.to_jsonl() == json.dumps({"kind": "KeyIndices", **payload}, sort_keys=True) + "\n"

    def test_get_returns_a_new_dict(self):
        transcript = _noisy_run()
        transcript.get("KeyIndices")["slots"] = []
        assert transcript.get("KeyIndices")["slots"] != []

    @pytest.mark.parametrize("strategy", list(DecoyStrategy))
    def test_to_jsonl_matches_json_dumps(self, strategy):
        # the protocol model writes each message with json.dumps(..., sort_keys=True)
        config = SimConfig(
            n_bits=3000, decoy_strategy=strategy, attack=Attack.AND_MASK, p_dark_mon=1e-3, seed=6
        )
        assert run(config)[1].to_jsonl() == protocol_model.run(config)[1]

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
        train = _alice_train(config)
        kept = transcript.get("KeyIndices")["slots"]
        assert not np.any(train[kept] == DECOY)


class TestCausalOrder:
    """A reader who takes the dialog a line at a time meets each cause before its effect."""

    @pytest.mark.parametrize("dark", [0.0, 1e-5])
    @pytest.mark.parametrize("attack", list(Attack))
    @pytest.mark.parametrize("strategy", list(DecoyStrategy))
    def test_each_gap_follows_its_click(self, strategy, attack, dark):
        n_gaps = 0
        for seed in range(3):
            config = SimConfig(
                n_bits=200_000, decoy_strategy=strategy, attack=attack, p_dark_data=dark, p_dark_mon=dark, seed=seed,
            )
            _, transcript, _ = run(config)
            heard, clicks_before = {}, {}
            for line in transcript.to_jsonl().splitlines():
                ((kind, payload),) = Transcript.from_jsonl(line).messages.items()
                clicks = [p["boundaries"] for p in heard.values() if "boundaries" in p]
                clicks_before[kind] = np.concatenate([np.zeros(0, np.int64), *clicks])
                heard[kind] = payload
            # the detected data slots that neither the verification nor the key holds
            left_out = np.setdiff1d(
                heard["DetectionReport"]["slots"],
                np.concatenate([heard[kind]["slots"] for kind in ("DecoyDiscard", "VerificationRequest", "KeyIndices")]),
            )
            for kind in ("VerificationRequest", "KeyIndices"):
                known = clicks_before[kind]
                assert np.isin(left_out, np.concatenate((known >> 1, (known + 1) >> 1))).all(), (kind, seed)
            n_gaps += left_out.size
            # every kind once, and no list in two of them
            assert set(heard) == set(MESSAGE_ORDER)
            assert set(heard["VerificationReveal"]) == {"alice_bits", "bob_bits"}
        assert n_gaps > 0


def _fixed_by_dialog(transcript: Transcript) -> tuple[np.ndarray, np.ndarray]:
    """The slots whose bit the public dialog alone fixes, as a passive reader
    with no mask and no train finds them, and the bit each must hold if it
    is a data slot.

    A verification reveal shows Alice's bit.  A click Alice flags at an odd
    boundary 2i + 1 says that slot i's late bin and slot i + 1's early bin
    both held a pulse: slot i holds a 1 or is a decoy, and slot i + 1 holds
    a 0 or is a decoy.
    """
    reveal = transcript.messages["VerificationReveal"]
    report = transcript.messages["MonitorReport"]
    coherent = report["boundaries"][report["clicks"] == 1]
    odd = coherent[coherent % 2 == 1]
    slots = np.concatenate((transcript.messages["VerificationRequest"]["slots"], odd >> 1, (odd + 1) >> 1))
    bits = np.concatenate((reveal["alice_bits"], np.ones(odd.size, np.int64), np.zeros(odd.size, np.int64)))
    return slots, bits


class TestPassiveReader:
    """What the transcript alone tells of the key, with no mask and no train."""

    @pytest.mark.parametrize("attack", list(Attack))
    @pytest.mark.parametrize("strategy", list(DecoyStrategy))
    def test_no_key_bit_fixed(self, strategy, attack):
        n_fixed = 0
        for seed in range(5):
            config = SimConfig(
                n_bits=1_000_000, decoy_strategy=strategy, attack=attack,
                p_dark_data=1e-5, p_dark_mon=1e-5, seed=seed,
            )
            _, transcript, _ = run(config)
            slots, bits = _fixed_by_dialog(transcript)
            # the reader is right about every data slot it fixes
            train = _alice_train(config)[slots]
            data = train != DECOY
            assert np.array_equal(train[data] >> 1, bits[data])
            assert not np.isin(transcript.messages["KeyIndices"]["slots"], slots).any()
            n_fixed += slots.size
        assert n_fixed > 0

    def test_slot_left_of_a_decoy_leans_to_one(self):
        # Substitute-pattern decoys replace each 1,0,1,0 found left to right.
        # One kept at slot i means none was kept at i - 2, so the two data
        # slots just left of a decoy block are never 1,0, and two of the other
        # three pairs end in 1: a key slot left of an announced decoy holds a
        # 1 with probability 2/3.  The reader learns 1 - H(2/3) bits from it.
        # The layout tilts other offsets too, each mixing the four slots of a
        # block: offset -5 is held to the share of ones at -5 from every decoy
        # of Alice's trains.  Per offset: ones and slots among the key slots
        # beside announced decoys, and among the data slots beside all decoys.
        offsets = list(range(-6, 7))
        key, layout = np.zeros((2, 2, len(offsets)), np.int64)
        n_key = 0
        for seed in range(30):
            config = SimConfig(n_bits=2_000_000, p_dark_data=1e-5, p_dark_mon=1e-5, seed=seed)
            _, transcript, _ = run(config)
            kept = transcript.messages["KeyIndices"]["slots"]
            train = _alice_train(config)
            n, decoy, one, data = train.size, train == DECOY, train == ONE, train != DECOY
            # six slots past the end, which hold no key and where offsets below 0 wrap too
            in_key, one_padded = np.zeros(n + 6, dtype=bool), np.append(one, [False] * 6)
            in_key[kept] = True
            near = transcript.messages["DecoyDiscard"]["slots"][:, None] + np.array(offsets)
            hit = in_key[near]
            key += np.count_nonzero(hit & one_padded[near], axis=0), np.count_nonzero(hit, axis=0)
            for j, offset in enumerate(offsets):  # decoy slots i, each against slot i + offset
                lo, hi = max(0, -offset), n - max(0, offset)
                for row, lit in enumerate((one, data)):
                    layout[row, j] += np.count_nonzero(decoy[lo:hi] & lit[lo + offset : hi + offset])
            n_key += kept.size
        for offset, (ones, n), (layout_ones, layout_n) in zip(offsets, key.T, layout.T):
            if offset:
                print(f"offset {offset:+d}: key {ones}/{n} ones, layout share {layout_ones / layout_n:.4f}")
        (ones, n_left), (ones_5, n_5) = key[:, offsets.index(-1)], key[:, offsets.index(-5)]
        assert n_left >= 2000
        p, p_5 = 2 / 3, np.divide(*layout[:, offsets.index(-5)])
        assert abs(ones - p * n_left) <= 5 * math.sqrt(n_left * p * (1 - p)), (ones, n_left)
        assert abs(ones_5 - p_5 * n_5) <= 5 * math.sqrt(n_5 * p_5 * (1 - p_5)), (ones_5, n_5, p_5)
        leak = n_left * (1 + p * math.log2(p) + (1 - p) * math.log2(1 - p))  # sum of 1 - H(p_i)
        print(f"left of a decoy: {ones}/{n_left} ones; leak {leak:.1f} bits over {n_key} key bits")
        assert leak / n_key < 1e-3
