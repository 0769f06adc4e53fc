"""One round of the COW protocol stated slot by slot: the oracle for every run.

Written from the rules as the README and the paper give them, in loops and
lists, not from cowsim's code.  Click probabilities come from
optics.click_probability, since np.exp and math.exp may differ by an ulp, and
levels are looked up with numpy, where a loop would take seconds.  run,
sweep_mu and compare_attack give what cowsim's functions of those names must
write; a change to that output on purpose changes the rule here too.
"""

import functools
import json
import math
import re
from dataclasses import replace

import numpy as np
import scipy.stats

from cowsim import Attack, DecoyStrategy
from cowsim.alice import _pack, _pattern
from cowsim.optics import click_probability

# slot patterns: a data 0 lights the early bin, a data 1 the late bin, a decoy both
ZERO, ONE, DECOY = 0b01, 0b10, 0b11


# the stage tests' bridges to cowsim's packed forms, which the model itself never uses
def _train(patterns):
    """A list of slot patterns as cowsim's alice.Train."""
    return _pack(patterns)


def _patterns(train):
    """An alice.Train's slot patterns as a list."""
    return _pattern(train, np.arange(train.n)).tolist()


def _packed(bits):
    """A list of bits packed 8 to a byte, low bit first, as alice.generate_raw_bits packs them."""
    return np.packbits(np.asarray(bits, dtype=np.uint8), bitorder="little")


def raw_bits(n, rng):  # every bit of the raw 64-bit words, low bit first
    words = rng.bit_generator.random_raw(-(-n // 64))
    return (words[:, None] >> np.arange(64, dtype=np.uint64) & np.uint64(1)).ravel()[:n].tolist()


def uniform_below(f, words):
    """Per raw word, whether its uniform (word >> 11) * 2**-53, as rng.random() reads it, is below f."""
    return (np.asarray(words, dtype=np.uint64) >> np.uint64(11)) < np.ceil(np.asarray(f) * 2.0**53).astype(np.uint64)


def gaps(words, p):
    """Geometric(p) gaps, one per raw word, as floats (inf past the float range):
    floor(log(U) / log1p(-p)) + 1 for U = 1 - (word >> 12) * 2**-52 in (0, 1]."""
    u = 1.0 - (np.asarray(words, dtype=np.uint64) >> np.uint64(12)) * 2.0**-52
    with np.errstate(over="ignore"):
        return np.floor(np.log(u) / (math.log1p(-p) if p < 1 else -math.inf)) + 1


def layout(bits, strategy):
    """Alice's slot patterns for a list of bits under a DecoyStrategy."""
    if strategy is DecoyStrategy.FRAME_HEADER:  # a decoy, then up to three data slots, per frame
        return [p for i in range(0, len(bits), 3) for p in [DECOY] + [b + 1 for b in bits[i : i + 3]]]
    train = [b + 1 for b in bits]
    if strategy is DecoyStrategy.SUBSTITUTE_PATTERN:  # each 1,0,1,0 a left-to-right scan finds
        for found in re.finditer("1010", "".join(map(str, bits))):
            train[found.start() : found.end()] = [DECOY] * 4
    return train


def bins(train):
    """Pulses (0 or 1) per bin: bin 2i is slot i's early bin, bin 2i + 1 its late bin."""
    return (np.array(train, dtype=np.int64).reshape(-1, 1) >> [0, 1] & 1).ravel()


def pairs(train):
    """Pulses (0, 1 or 2) in bins k and k + 1, which the monitor overlaps at boundary k."""
    lit = bins(train)
    return lit[:-1] + lit[1:]


def clicks(p, n, level_at, rng):
    """The sorted positions i < n that click, each with p[level_at(i)]: candidates by
    gaps(p_max), in chunks for the left positions not yet covered and clipped to
    left + 1, until one is past the end; one raw word each, kept by uniform_below(p / p_max)."""
    p_max = float(max(p))
    if n == 0 or p_max <= 0.0:
        return np.zeros(0, dtype=np.int64)
    chunks, last = [], -1
    while last < n - 1:
        left = n - 1 - last
        words = rng.bit_generator.random_raw(int(left * p_max + 5.0 * math.sqrt(left * p_max)) + 1)
        chunks.append(last + np.cumsum(np.minimum(gaps(words, p_max), left + 1).astype(np.int64)))
        last = int(chunks[-1][-1])
    pos = np.concatenate(chunks)
    pos = pos[pos < n]
    return pos[uniform_below((np.asarray(p) / p_max)[level_at(pos)], rng.bit_generator.random_raw(pos.size))]


def detect(train, config, rng):
    """Bob's data detector, a pulse carrying mu * channel_t * t_b to it: (slots,
    values), the first click of each slot, which shadows the slot's late bin."""
    level = bins(train)
    p = click_probability([0.0, config.mu * config.channel_t * config.t_b], config.eta_data, config.p_dark_data)
    first = {}
    for k in clicks(p, level.size, level.__getitem__, rng).tolist():
        first.setdefault(k // 2, k % 2)
    return list(first), list(first.values())


def monitor_p(config):
    """The monitor's click probability at a boundary of 0, 1 or 2 pulses: at the
    destructive port a lone pulse gives m / 4 and an intact pair (1 - V) m / 2."""
    m = config.mu * config.channel_t * (1 - config.t_b)
    return click_probability([0.0, m / 4, (1 - config.visibility) * m / 2], config.eta_mon, config.p_dark_mon)


def receive(sent, config, rng):
    """Bob's (slots, values) from detect, then his monitor clicks on the 2n - 1 boundaries."""
    detected, level = detect(sent, config, rng), pairs(sent)
    return detected, clicks(monitor_p(config), level.size, level.__getitem__, rng).tolist()


_binomial_sf = functools.lru_cache(scipy.stats.binom.sf)  # 0.1 ms a call, and small runs repeat


def dialog(train, slots, values, monitor, config, rng):
    """The public messages, kind to payload in order, on Alice's train as sent,
    each list in one message.  Alice flags each monitor click on a coherent
    boundary (both bins lit) and counts those she sent.  Then decoys and the
    slots k // 2 and (k + 1) // 2 beside each click k leave the key, and the
    bits of a fraction f_verify of the rest are revealed; the run aborts when
    P(K >= flagged) < alarm_alpha for K ~ Binomial(coherent, q0)."""
    beside = {k // 2 for k in monitor} | {(k + 1) // 2 for k in monitor}
    rest = [(s, v) for s, v in zip(slots, values) if train[s] != DECOY and s not in beside]
    drawn = uniform_below(config.f_verify, rng.bit_generator.random_raw(len(rest))).tolist()
    checked = [(s, v) for (s, v), verify in zip(rest, drawn) if verify]
    level = pairs(train).tolist()
    flags = [int(level[k] == 2) for k in monitor]
    tail = _binomial_sf(sum(flags) - 1, level.count(2), monitor_p(config)[2])
    return {
        "DetectionReport": {"slots": slots},
        "DecoyDiscard": {"slots": [s for s in slots if train[s] == DECOY]},
        "MonitorReport": {"boundaries": monitor, "clicks": flags, "coherent": level.count(2)},
        "VerificationRequest": {"slots": [s for s, _ in checked]},
        "VerificationReveal": {"alice_bits": [train[s] >> 1 for s, _ in checked], "bob_bits": [v for _, v in checked]},
        "Verdict": {"verdict": "abort" if tail < config.alarm_alpha else "accept"},
        "KeyIndices": {"slots": [s for (s, _), verify in zip(rest, drawn) if not verify]},
    }


def _round(config):
    """One round's RunStats fields, name to value, and its messages."""
    streams = np.random.SeedSequence(config.seed).spawn(4)
    rng_bits, rng_choices, rng_eve, rng_det = map(np.random.default_rng, streams)
    train = layout(raw_bits(config.n_bits, rng_bits), config.decoy_strategy)
    mask = [b + 1 for b in raw_bits(len(train), rng_eve)]
    sent = [t & e for t, e in zip(train, mask)] if config.attack is Attack.AND_MASK else train
    (slots, values), monitor = receive(sent, config, rng_det)
    messages = dialog(train, slots, values, monitor, config, rng_choices)
    reveal, report = messages["VerificationReveal"], messages["MonitorReport"]
    kept, n_verified = messages["KeyIndices"]["slots"], len(messages["VerificationRequest"]["slots"])
    errors = sum(a != b for a, b in zip(reveal["alice_bits"], reveal["bob_bits"]))
    return {
        "slots_sent": len(train),
        "decoy_slots": train.count(DECOY),
        "detections": len(slots),
        "sifted_len": len(kept),
        "qber": errors / n_verified if n_verified else 0.0,
        "eve_recovery_fraction": sum(mask[s] >> 1 == train[s] >> 1 for s in kept) / len(kept) if kept else 0.0,
        "break_rate": sum(report["clicks"]) / report["coherent"] if report["coherent"] else 0.0,
        "verdict": messages["Verdict"]["verdict"],
        "verified_count": n_verified,
        "raw_rate_bits_per_s": len(kept) / (2.0 * len(train) * config.tau_ns * 1e-9),
    }, messages


def _lines(record):
    return "".join(f"{k}={v:.17g}\n" if isinstance(v, float) else f"{k}={v}\n" for k, v in record.items())


def run(config):
    """RunStats.to_lines() and Transcript.to_jsonl() of the round config sets."""
    stats, messages = _round(config)
    jsonl = "".join(json.dumps({"kind": k, **m}, sort_keys=True) + "\n" for k, m in messages.items())
    return _lines(stats), jsonl


def sweep_mu(config, mu_grid):
    """sweep_mu's rows as (mu, detectable, splittable, empirical): point i draws from
    child i of the seed's SeedSequence, and detects raw bits laid out with no decoys."""
    master, rows = np.random.SeedSequence(config.seed), []
    for mu in mu_grid:
        rng_bits, _, _, rng_det = map(np.random.default_rng, master.spawn(1)[0].spawn(4))
        train = layout(raw_bits(config.n_bits, rng_bits), DecoyStrategy.NONE)
        slots, _ = detect(train, replace(config, mu=float(mu)), rng_det)
        splittable = (1.0 - (1.0 + mu) * math.exp(-mu)) / -math.expm1(-mu)
        rows.append((float(mu), -math.expm1(-mu), splittable, len(slots) / config.n_bits))
    return rows


def compare_attack(config):
    """CompareResult.to_lines(): one seed's round with the mask off, then on."""
    off, on = (_round(replace(config, attack=attack))[0] for attack in Attack)
    return _lines({
        "rate_ratio": on["sifted_len"] / off["sifted_len"],
        "recovery_no_attack": off["eve_recovery_fraction"],
        "recovery_attack": on["eve_recovery_fraction"],
    })
