"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import math
from dataclasses import replace

import numpy as np

from cowsim import alice, bob, eve
from cowsim.alice import DECOY, DecoyStrategy
from cowsim.engine import _SATURATED, Attack, SimConfig, run
from cowsim.optics import detectable_fraction, splittable_fraction
from cowsim.sifting import run_sifting
import protocol_model
from pooled import SEEDS, binomial_z
from protocol_model import ONE, ZERO, _patterns, _train


def _report(number, title, ok):
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {title}")
    assert ok, f"acceptance criterion {number} ({title}) failed"


def test_criterion_1_table1_reproduction():
    train = _train([ZERO, ZERO, ONE, ONE, DECOY, DECOY])
    mask = _train([ZERO, ONE, ZERO, ONE, ZERO, ONE])
    sent = eve.apply_and_mask(train, mask)
    config = SimConfig(t_b=0.9, **_SATURATED)
    detected, _ = bob.receive(sent, config, np.random.default_rng(0))

    slots, values = detected
    ok = (slots.tolist(), values.tolist()) == ([0, 3, 4, 5], [0, 1, 0, 1])

    monitor = np.array([], dtype=int)
    result, transcript = run_sifting(
        train, detected, monitor, SimConfig(f_verify=0.0), np.random.default_rng(0)
    )
    ok = ok and transcript.get("DecoyDiscard")["slots"] == [4, 5]
    ok = ok and result.kept_indices.tolist() == [0, 3]
    _report(1, "Table 1 reproduction", ok)


def test_criterion_2_fig1_curves():
    ok = abs(detectable_fraction(0.5) - 0.3934693) < 1e-6
    # the closed form (1-(1+mu)e^-mu)/(1-e^-mu) evaluates to 0.22925296 at
    # mu=0.5; the independently sampled Poisson oracle below confirms it
    ok = ok and abs(splittable_fraction(0.5) - 0.22925296) < 1e-6

    rng = np.random.default_rng(20240817)
    for mu in (0.1, 0.25, 0.5, 1.0):
        n = rng.poisson(mu, size=1_000_000)
        p_det = detectable_fraction(mu)
        se_det = math.sqrt(p_det * (1 - p_det) / n.size)
        ok = ok and abs(np.mean(n >= 1) - p_det) < 3 * se_det

        detected = n[n >= 1]
        p_spl = splittable_fraction(mu)
        se_spl = math.sqrt(p_spl * (1 - p_spl) / detected.size)
        ok = ok and abs(np.mean(detected >= 2) - p_spl) < 3 * se_spl
    _report(2, "Fig. 1 detectable/splittable curves", ok)


def test_criterion_3_perfect_key_recovery():
    ok = True
    for seed in (101, 202, 303):
        config = SimConfig(
            n_bits=100_000,
            attack=Attack.AND_MASK,
            p_dark_data=0.0,
            p_dark_mon=0.0,
            seed=seed,
        )
        stats, _, _ = run(config)
        ok = ok and stats.sifted_len > 0
        ok = ok and stats.eve_recovery_fraction == 1.0
        ok = ok and stats.qber == 0.0
    _report(3, "perfect key recovery under the AND mask", ok)


def test_criterion_4_rate_halving():
    # pooled over seeds, 1.5M bits in all.  The mask passes a data slot's
    # pulse where Eve's bit is Alice's, and one seed draws the same detector
    # numbers with and without it, so of the data slots detected without
    # the mask, each is detected with it with probability 1/2.  The sifted
    # rates, which the slots beside monitor clicks nudge, keep a ratio of
    # about 1/2
    base = SimConfig(n_bits=50_000, mu=0.5, t_b=0.9, channel_t=0.5, eta_data=0.1)
    sifted, data_detected = dict.fromkeys(Attack, 0), dict.fromkeys(Attack, 0)
    for seed in SEEDS:
        for attack in Attack:
            stats, transcript, _ = run(replace(base, attack=attack, seed=seed))
            sifted[attack] += stats.sifted_len
            data_detected[attack] += stats.detections - len(transcript.messages["DecoyDiscard"]["slots"])
    z = binomial_z(data_detected[Attack.AND_MASK], data_detected[Attack.NONE], 0.5)
    ratio = sifted[Attack.AND_MASK] / sifted[Attack.NONE]
    ok = abs(z) <= 5 and 0.48 <= ratio <= 0.52
    _report(4, f"data detections halved (z = {z:.2f}), sifted-rate ratio {ratio:.4f} in [0.48, 0.52]", ok)


def test_criterion_5_mu_eff_law():
    # pooled over seeds, 300k slots per setting in all
    ok, n = True, 10_000
    for (t, t_b, eta) in ((0.5, 0.9, 0.1), (0.2, 0.9, 0.25)):
        # all-zero bits keep nonempty bins two apart, so dead time is inert
        train = alice.insert_decoys(np.zeros(-(-n // 8), dtype=np.uint8), n, DecoyStrategy.NONE)
        config = SimConfig(mu=0.5, channel_t=t, t_b=t_b, eta_data=eta, p_dark_data=0.0)
        detected = sum(bob.receive(train, config, np.random.default_rng(seed))[0][0].size for seed in SEEDS)
        ok = ok and abs(binomial_z(detected, n * len(SEEDS), 1 - math.exp(-0.5 * t * t_b * eta))) <= 5
    _report(5, "per-slot detection follows 1 - exp(-mu t t_b eta)", ok)


def test_criterion_6_monitor_behavior():
    # pooled over seeds, 30k decoys in all
    n_decoys = 1_000
    train = _train([DECOY] * n_decoys)
    checked = np.flatnonzero(protocol_model.pairs(_patterns(train)) == 2)
    config = SimConfig(mu=0.5, channel_t=0.5, t_b=0.9, eta_mon=1.0, p_dark_mon=0.0, visibility=1.0)
    ok, hits, broken = checked.size >= n_decoys, 0, 0
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        # no attack: every checked boundary cancels perfectly
        _, monitor = bob.receive(train, config, rng)
        ok = ok and not np.isin(checked, monitor).any()

        # attack on: each decoy pair keeps exactly one pulse, clicking at the
        # closed-form rate 1 - exp(-eta_mon (1-t_b) t mu / 4)
        sent = eve.apply_and_mask(train, eve.generate_mask(n_decoys, rng))
        _, monitor = bob.receive(sent, config, rng)
        # a checked boundary is broken when one of its two bins lost its pulse
        occupied = protocol_model.bins(_patterns(sent))
        one_survivor = checked[occupied[checked] != occupied[checked + 1]]
        assert one_survivor.size >= n_decoys
        hits += np.count_nonzero(np.isin(one_survivor, monitor))
        broken += one_survivor.size
    ok = ok and abs(binomial_z(hits, broken, 1 - math.exp(-1.0 * (1 - 0.9) * 0.5 * 0.5 / 4))) <= 5
    _report(6, "monitor silent when intact, closed-form rate when broken", ok)


def test_criterion_7_decoy_destruction():
    rng = np.random.default_rng(7)
    ok = True
    for trial in range(1000):
        n = int(rng.integers(4, 120))
        bits = alice.generate_raw_bits(n, rng)
        strategy = (DecoyStrategy.SUBSTITUTE_PATTERN, DecoyStrategy.FRAME_HEADER)[trial % 2]
        train = alice.insert_decoys(bits, n, strategy)
        if (trial // 2) % 2:  # the fixed bits 1, 0, 1, 0, ... draw nothing
            mask = _train(np.resize(np.array([ONE, ZERO], dtype=np.uint8), train.n))
        else:
            mask = eve.generate_mask(train.n, rng)
        sent = eve.apply_and_mask(train, mask)
        ok = ok and 0b11 not in _patterns(sent)  # no slot keeps both bins
    _report(7, "no post-mask slot carries two pulses (1000 runs)", ok)


def test_criterion_8_determinism():
    config = SimConfig(
        n_bits=20_000, attack=Attack.AND_MASK, p_dark_data=0.01, p_dark_mon=0.001, seed=88
    )
    a_stats, a_tr, _ = run(config)
    b_stats, b_tr, _ = run(config)
    ok = a_tr.to_jsonl().encode() == b_tr.to_jsonl().encode()
    ok = ok and a_stats.to_lines().encode() == b_stats.to_lines().encode()
    _report(8, "byte-identical transcripts and stats for identical config", ok)
