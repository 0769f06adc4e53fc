import math
from dataclasses import astuple, replace

import numpy as np
import pytest

from cowsim import engine
from cowsim.alice import DecoyStrategy, _pattern
from cowsim.engine import (
    _SATURATED,
    Attack,
    SimConfig,
    NoKeyError,
    compare_attack,
    run,
    sweep_mu,
    table1_rows,
)
from cowsim.eve import observe_transcript
import protocol_model
from pooled import SEEDS, assert_binomial

IDEAL = dict(channel_t=1.0, eta_data=1.0, eta_mon=1.0, p_dark_data=0.0, p_dark_mon=0.0)


class TestRun:
    def test_lossless_roundtrip(self):
        # t_b = 1 leaves the monitor dark: saturated, it would click beside
        # both slots and take them out of the key
        config = SimConfig(
            n_bits=2,
            decoy_strategy=DecoyStrategy.NONE,
            f_verify=0.0,
            t_b=1.0,
            **_SATURATED,
        )
        stats, transcript, _ = run(config)
        assert stats.sifted_len == 2
        assert stats.qber == 0.0
        assert transcript.get("KeyIndices")["slots"] == [0, 1]

    def test_table1_oracle(self):
        rows, ok = table1_rows()
        assert ok
        assert [r[5] for r in rows] == ["0", "n.d.", "n.d.", "1", "0", "1"]

    @pytest.mark.parametrize("seed", [11, 22, 33])
    def test_perfect_recovery(self, seed):
        config = SimConfig(n_bits=100_000, attack=Attack.AND_MASK, seed=seed)
        stats, _, _ = run(config)
        assert stats.sifted_len > 0
        assert stats.eve_recovery_fraction == 1.0
        assert stats.qber == 0.0

    @pytest.mark.parametrize("attack", [Attack.NONE, Attack.AND_MASK])
    def test_qber_zero_without_darks(self, attack):
        stats, _, _ = run(SimConfig(n_bits=20_000, attack=attack, f_verify=0.3, seed=7))
        assert stats.qber == 0.0

    def test_determinism(self):
        config = SimConfig(n_bits=3000, attack=Attack.AND_MASK, p_dark_data=0.01, seed=42)
        a = run(config)
        b = run(config)
        assert a[0].to_lines() == b[0].to_lines()
        assert a[1].to_jsonl() == b[1].to_jsonl()
        assert np.array_equal(a[2].reconstructed_key, b[2].reconstructed_key)

    def test_eve_stream_isolated(self, monkeypatch):
        base = SimConfig(n_bits=3000, attack=Attack.NONE, seed=42)
        a = run(base)
        streams = engine._streams

        def reseed_eve(master):
            rngs = streams(master)
            rngs[2] = np.random.default_rng(999)
            return rngs

        monkeypatch.setattr(engine, "_streams", reseed_eve)
        b = run(base)
        # Alice's bits, Bob's detections and the whole dialog are untouched
        assert a[1].to_jsonl() == b[1].to_jsonl()
        assert not np.array_equal(a[2].mask.bins, b[2].mask.bins)

    @pytest.mark.parametrize(
        "strategy", [s for s in DecoyStrategy if s is not DecoyStrategy.NONE]
    )
    def test_sifting_reads_alices_train(self, strategy):
        # under the mask the channel holds no DECOY pattern (DECOY & mask is
        # 1 or 2), so only Alice's own train tells sifting where her decoys are
        config = SimConfig(n_bits=10_000, decoy_strategy=strategy, seed=4)
        off, _, _ = run(config)
        on, transcript, _ = run(replace(config, attack=Attack.AND_MASK))
        assert on.decoy_slots == off.decoy_slots > 0
        assert transcript.get("DecoyDiscard")["slots"]

    def test_key_indices_not_reparsed(self, monkeypatch):
        # Eve reads the public dialog with the reader a replay uses, and gets
        # the published int64 array itself, not a copy parsed from it
        seen = []

        def observe(transcript):
            seen.append((transcript, observe_transcript(transcript)))
            return seen[-1][1]

        monkeypatch.setattr(engine.eve, "observe_transcript", observe)
        stats, transcript, record = run(SimConfig(n_bits=2000, attack=Attack.AND_MASK, seed=4))
        kept = transcript.messages["KeyIndices"]["slots"]
        assert len(seen) == 1 and seen[0][0] is transcript and seen[0][1] is kept
        assert np.array_equal(record.reconstructed_key, _pattern(record.mask, kept) >> 1)
        assert stats.eve_recovery_fraction == 1.0

    def test_rate_reporting(self):
        stats, _, _ = run(SimConfig(n_bits=10_000, seed=3))
        expect = stats.sifted_len / (2 * stats.slots_sent * 2.4e-9)
        assert stats.raw_rate_bits_per_s == pytest.approx(expect)

    def test_sifted_at_most_detections(self):
        stats, _, _ = run(SimConfig(n_bits=10_000, p_dark_data=0.02, seed=3))
        assert stats.sifted_len <= stats.detections


class TestSweep:
    def test_closed_form_columns(self):
        config = SimConfig(n_bits=100_000, **IDEAL)
        rows = sweep_mu(config, [0.1, 0.25, 0.5, 1.0])
        at_half = rows[2]
        assert at_half.detectable == pytest.approx(0.3934693402873666, abs=1e-9)
        assert at_half.splittable == pytest.approx(0.22925295873160084, abs=1e-9)
        assert all(b.detectable > a.detectable for a, b in zip(rows, rows[1:]))
        assert all(b.splittable > a.splittable for a, b in zip(rows, rows[1:]))

    def test_empirical_tracks_mu_eff(self):
        # pooled over seeds, 300k bits per point in all: each data slot holds
        # one pulse and no darks, so it is detected with 1 - exp(-mu t t_b eta)
        config, grid = SimConfig(n_bits=10_000), [0.25, 0.5]
        detected = np.zeros(len(grid), dtype=np.int64)
        for seed in SEEDS:
            rows = sweep_mu(replace(config, seed=seed), grid)
            detected += [round(row.empirical * config.n_bits) for row in rows]
        for mu, k in zip(grid, detected):
            p = 1 - math.exp(-mu * 0.5 * 0.9 * 0.1)
            assert_binomial(k, config.n_bits * len(SEEDS), p, f"mu={mu}")

    def test_points_do_not_share_streams_across_seeds(self):
        # seeding point i with seed + i made point 1 of seed 5 repeat
        # point 0 of seed 6 exactly
        config = SimConfig(n_bits=20_000, p_dark_data=0.01, seed=5)
        later = [r.empirical for r in sweep_mu(config, [0.5] * 4)[1:]]
        first = [r.empirical for r in sweep_mu(replace(config, seed=6), [0.5] * 3)]
        assert later != first

    def test_rejects_nonpositive_mu(self):
        with pytest.raises(ValueError):
            sweep_mu(SimConfig(n_bits=100), [0.5, 0.0])

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_insert_decoys_reference(self, seed):
        # the protocol model's rows, its train laid out with no decoys; the
        # grid puts p_max on both sides of 1/3, where numpy's geometric
        # switches methods, and the one gap formula must not
        config = SimConfig(n_bits=50_001, seed=seed, **{**IDEAL, "p_dark_data": 1e-3})
        grid = [0.1, 0.5, 60.0]
        assert [astuple(row) for row in sweep_mu(config, grid)] == protocol_model.sweep_mu(config, grid)


class TestCompareAttack:
    def test_rate_halving_ideal(self):
        config = SimConfig(n_bits=100_000, seed=2, **IDEAL)
        result = compare_attack(config)
        assert 0.48 <= result.rate_ratio <= 0.52
        assert result.recovery_attack == 1.0

    def test_blind_guess_without_attack(self):
        # Eve's mask bits are drawn apart from every other stream, so without
        # the mask her bits match Alice's on the kept slots as Binomial(kept, 1/2)
        kept, matches = [], []
        for seed in SEEDS:
            config = SimConfig(n_bits=100_000, seed=seed, **IDEAL)
            off, _, _ = run(config)
            kept.append(off.sifted_len)
            matches.append(round(compare_attack(config).recovery_no_attack * off.sifted_len))
        assert_binomial(matches, kept, 0.5, "Eve's matches without the mask")

    @pytest.mark.parametrize("strategy", list(DecoyStrategy))
    def test_equals_two_separate_runs(self, strategy):
        # each side of the comparison matches its own run() call
        config = SimConfig(
            n_bits=20_000, seed=12, decoy_strategy=strategy, p_dark_data=1e-3, p_dark_mon=1e-3
        )
        off, _, _ = run(replace(config, attack=Attack.NONE))
        on, _, _ = run(replace(config, attack=Attack.AND_MASK))
        result = compare_attack(config)
        assert result.rate_ratio == on.sifted_len / off.sifted_len
        assert result.recovery_no_attack == off.eve_recovery_fraction
        assert result.recovery_attack == on.eve_recovery_fraction

    def test_no_key_without_attack_names_n_bits(self):
        # the rate ratio would be 0/0
        with pytest.raises(NoKeyError, match="n_bits"):
            compare_attack(SimConfig(n_bits=1))

    def test_no_key_at_tiny_mu_gives_bits_per_click(self):
        # a pulse bin clicks with p of about 4.55e-15, so one click needs about 2.2e14 bits
        with pytest.raises(NoKeyError, match="n_bits") as info:
            compare_attack(SimConfig(n_bits=1000, mu=1e-13))
        message = str(info.value)
        assert "p=4.55e-15" in message and "2.2e+14 bits" in message and "raise n_bits" in message

    @pytest.mark.parametrize(
        "overrides, named",
        [
            ({"t_b": 0.0}, "t_b=0"),
            ({"eta_data": 0.0}, "eta_data=0"),
            ({"channel_t": 0.0}, "channel_t=0"),
            ({"t_b": 0.0, "eta_data": 0.0}, "t_b=0, eta_data=0"),
            # nothing is 0, but 1 - exp(-eta * mu * t * t_b) rounds to 0
            ({"mu": 1e-17}, "mu=1e-17"),
        ],
    )
    def test_no_data_click_names_the_key(self, monkeypatch, overrides, named):
        # no n_bits can help, so the advice names the key and no run is made
        def no_run(config):
            raise AssertionError("ran")

        monkeypatch.setattr(engine, "run", no_run)
        with pytest.raises(NoKeyError, match=named) as info:
            compare_attack(SimConfig(n_bits=1000, **overrides))
        assert "raise n_bits" not in str(info.value)

    def test_dark_clicks_alone_sift_a_key(self):
        # with t_b = 0 the data detector still clicks in the dark, and no light
        # reaches it, so the mask leaves its clicks as they were.  The rate
        # ratio is not 1 exactly: the monitor takes all the light, and the
        # slots beside its clicks, which the mask moves, leave the key
        config = SimConfig(n_bits=20_000, t_b=0.0, p_dark_data=0.01)
        result = compare_attack(config)
        (off, off_transcript, _), (on, on_transcript, _) = (run(replace(config, attack=a)) for a in Attack)
        assert result.rate_ratio == on.sifted_len / off.sifted_len > 0
        report = [t.messages["DetectionReport"]["slots"] for t in (off_transcript, on_transcript)]
        assert np.array_equal(*report) and report[0].size > 0

    def test_to_lines(self):
        result = engine.CompareResult(rate_ratio=0.1, recovery_no_attack=0.5, recovery_attack=1.0)
        assert result.to_lines() == (
            "rate_ratio=0.10000000000000001\nrecovery_no_attack=0.5\nrecovery_attack=1\n"
        )


class TestConfig:
    def test_mu_positive_required(self):
        # the pulse mean lives on SimConfig, which rejects a nonpositive one
        for mu in (0.0, -0.5):
            with pytest.raises(ValueError, match="mu"):
                SimConfig(mu=mu)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            SimConfig(n_bits=0)
        with pytest.raises(ValueError):
            SimConfig(t_b=1.5)
        with pytest.raises(ValueError):
            SimConfig(f_verify=1.0)

    def test_n_bits_cap(self):
        # the positions of 2 * n_bits bins must fit in int64, on any machine
        with pytest.raises(ValueError, match=r"^n_bits must be in \[1, 2\*\*62\)"):
            SimConfig(n_bits=2**62)
        assert SimConfig(n_bits=2**62 - 1).n_bits == 2**62 - 1

    @pytest.mark.parametrize(
        "key, value",
        [
            ("attack", "andmask"),
            ("decoy_strategy", "none"),
            ("n_bits", 2500.5),
            ("n_bits", True),
            ("seed", 1.5),
            ("mu", "0.5"),
            ("mu", True),
            ("alarm_alpha", "0.5"),
            ("alarm_alpha", None),
            ("seed", None),
        ],
    )
    def test_wrong_type_names_the_key(self, key, value):
        # an enum's value string, a float count or a numeric string would
        # otherwise run without the attack, fail later or fail unnamed
        with pytest.raises(ValueError, match=rf"^{key} must be of type"):
            SimConfig(**{key: value})

    def test_numbers_accepted(self):
        # an int is a number; numpy scalars stand for their Python values
        config = SimConfig(mu=1, n_bits=np.int64(500), t_b=np.float32(0.5), alarm_alpha=np.float64(0.01))
        assert (config.mu, config.n_bits, config.t_b, config.alarm_alpha) == (1, 500, 0.5, 0.01)
        assert type(config.n_bits) is int and type(config.t_b) is float
        assert type(config.alarm_alpha) is float
        assert run(config)[0].slots_sent > 0
        with pytest.raises(ValueError, match="^mu must be finite"):
            SimConfig(mu=np.float32("inf"))
        # an int past the float range would overflow later, naming nothing
        for key in ("mu", "tau_ns"):
            with pytest.raises(ValueError, match=f"^{key} must be finite"):
                SimConfig(**{key: 10**400})
