"""Bob: channel reception, data detection with dead time, and the monitor line.

Each incoming pulse loses power in the fiber, is split between the data
detector (fraction t_b) and the monitoring interferometer, and detected.
The interferometer delays one arm by a single bin and is tuned so an intact
pulse pair cancels at the instrumented (destructive) output.  Since every
pulse has the same mean, a data bin is either empty or a pulse, and the
destructive port at a boundary sees nothing, a lone pulse or an intact pair.

The train arrives as an alice.Train after any mask; alice says what it
lights (_bin_level and _pair_level).  A detection is the sorted array of
positions that clicked, as the sampler draws them.  The data detector
reports (slots, values): bin 2i+v clicked gives slot i and value v, at most
one per slot.  The monitor detector reports its clicked interferometer
boundaries k (bins k and k+1), sorted.

Clicks are sampled by thinned geometric skipping (Devroye, Non-Uniform
Random Variate Generation, 1986; Batagelj & Brandes, Phys. Rev. E 71,
036113, 2005).  With p_max the largest click probability of any level,
candidate positions are drawn at rate p_max by geometric gaps, each
floor(log(U) / log1p(-p_max)) + 1 for a U in (0, 1] made from one raw
64-bit word, and candidate i clicks iff a uniform u_i < p[level_i] / p_max,
read from another raw word as an integer compare.  That is exactly
Bernoulli(p[level_i]) per position, independent across positions.  Every
number is drawn with rng.bit_generator.random_raw, whose stream numpy keeps
stable, and none with a Generator distribution method.  The keep words are
drawn only when some level is thinned (0 < p / p_max < 1); otherwise the
bit generator advances past them.  Levels are looked up from the train at
the candidates only.  The gaps, and the generator's state after each
detector, depend only on the train length and p_max, never on the train's
contents, so two trains of one length see the same draws from one seed.
"""

from __future__ import annotations

import math
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from .alice import Train, _bin_level, _check_is_train, _keep_below, _pair_level
from .optics import click_probability

if TYPE_CHECKING:
    from .engine import SimConfig

__all__ = [
    "receive",
    "detect_data",
    "data_click_probability",
    "monitor_click_probability",
]

# the bits of the float64 1.0 and 2**52: a float in [1, 2) is 1.0's bits
# with any 52-bit mantissa, and 2**52 + k's mantissa is k for k < 2**52
_FLOAT_ONE = np.uint64(0x3FF0000000000000)
_FLOAT_TWO_52 = np.uint64(0x4330000000000000)


def receive(
    train: Train,
    config: SimConfig,
    rng: np.random.Generator,
) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """Propagate a train through loss and the splitter, then detect.

    Returns ((slots, values), monitor): detect_data's detected slots and bit
    values, and the monitor detector's clicked interferometer boundaries k
    (bins k and k+1) as strictly increasing int64 positions in [0, 2n - 1).

    It draws first the data detector's numbers (detect_data), then the
    monitor's over the 2n - 1 interferometer boundaries.  Each detector
    thins geometric gaps drawn at its largest click probability p_max, so
    the gaps, and the generator's state after each detector, depend only on
    the train length and the two p_max values, never on the channel
    contents: runs with and without Eve's mask stay draw-aligned for
    controlled comparisons.  rng's bit generator must have advance (PCG64
    has); ValueError names rng if not.
    """
    detected = detect_data(train, config, rng)  # which checks train
    return detected, _sample_clicks(
        monitor_click_probability(config), max(2 * train.n - 1, 0), partial(_pair_level, train), rng
    )


def data_click_probability(config: SimConfig) -> np.ndarray:
    """The data detector's click probability at a bin of 0 or 1 pulses, a
    pulse carrying mu * channel_t * t_b to it."""
    data_mean = np.array([0.0, config.mu * config.channel_t * config.t_b])
    return click_probability(data_mean, config.eta_data, config.p_dark_data)


def monitor_click_probability(config: SimConfig) -> np.ndarray:
    """The monitor's click probability at a boundary of 0, 1 or 2 pulses, the
    last, q0, an intact pair's.  At the interferometer's destructive port a
    lone pulse loses half at each coupler, and an intact pair leaks what the
    visibility fails to cancel."""
    m = config.mu * config.channel_t * (1.0 - config.t_b)
    port = np.array([0.0, m / 4.0, (m - config.visibility * m) / 2.0])
    return click_probability(port, config.eta_mon, config.p_dark_mon)


def detect_data(
    train: Train,
    config: SimConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """The data detector's (slots, values) for a train.

    slots is strictly increasing; a click in bin 2i+v gives slot i and the
    uint8 value v.  Candidate bins are drawn by geometric gaps at rate
    p_max, the click probability of a pulse bin, and a candidate clicks iff
    a uniform u < p[level] / p_max, its keep word drawn only when some level
    is thinned.  The gaps, and the generator's state afterwards, depend only
    on the train length and p_max, not on which bins hold pulses.  Dead
    time is gated per information slot: an early-bin click shadows the late
    bin of the same slot and the detector re-arms at the next slot
    boundary, so a slot never yields two clicks.

    train must be an alice.Train, and rng's bit generator must have advance;
    ValueError names the one that is not.
    """
    train = _check_is_train("train", train)
    pos = _sample_clicks(data_click_probability(config), 2 * train.n, partial(_bin_level, train), rng)
    slots = pos >> 1
    values = pos.astype(np.uint8)  # the cast keeps bit 0, the bin within its slot
    values &= 1
    # positions are sorted, so a slot's two clicks are adjacent (bins 2i and
    # 2i+1) and keeping its first lets the early bin win; most trains have none
    first = slots[1:] != slots[:-1]
    if not first.all():
        first = np.concatenate(([True], first))
        slots, values = slots[first], values[first]
    return slots, values


def _sample_clicks(p: np.ndarray, n: int, level_at, rng: np.random.Generator) -> np.ndarray:
    """Sorted click positions i < n, position i clicking independently with
    p[level_at(i)].

    Thinned geometric skipping: candidates come at rate p_max = max(p), by
    geometric gaps drawn in chunks sized to cover the rest of the train with
    margin, until the last candidate lies at or past the end.  A gap is
    floor(log(U) / log1p(-p_max)) + 1, one raw word each, U = 2 - x for the
    x in [1, 2) whose mantissa is the word's top 52 bits: U lies in (0, 1],
    so log(U) is finite, and at p_max = 1 every gap is 1.  Then one raw word
    per candidate inside the train; candidate i clicks iff the word is below
    _keep_below(p[level_at(i)] / p_max), still one Bernoulli(p[level_at(i)])
    each, tested level by level: the top level keeps every candidate, and a
    level with p = 0 keeps none.  level_at sees only the candidates.

    When every p / p_max is 0 or 1 no keep word is read, so none is drawn:
    rng.bit_generator.advance(k) stands for the k draws.  That is exact for
    PCG64 and PCG64DXSM.  Philox's advance is not the state of k draws, so a
    Philox-backed run is reproducible but not the stream that draws every
    word.  A bit generator with no advance (MT19937, SFC64) is refused with
    a ValueError naming rng, at every p.
    """
    bit_gen = rng.bit_generator
    if not hasattr(bit_gen, "advance"):
        raise ValueError(f"rng must use a bit generator with advance, such as PCG64, not {type(bit_gen).__name__}")
    p_max = float(p.max())
    if n == 0 or p_max <= 0.0:  # nothing can click
        return np.zeros(0, dtype=np.int64)
    # log1p(-1) is -inf, where every gap is 1.  Held at -1e-300 or below,
    # log_q keeps every quotient finite: a U < 1 has log(U) below -2.2e-16,
    # so its quotient passes 2.2e284 and is clipped to the end either way
    log_q = min(math.log1p(-p_max), -1e-300) if p_max < 1.0 else -math.inf
    chunks, end = [], 0  # end: candidates drawn so far cover positions 0 .. end - 1
    while end < n:
        left = n - end
        size = int(left * p_max + 5.0 * math.sqrt(left * p_max)) + 1
        # every step in place in the raw words' buffer, which ends up holding
        # the positions: a fresh array costs its page faults
        raw = bit_gen.random_raw(size)
        raw >>= np.uint64(12)
        raw |= _FLOAT_ONE
        gaps = raw.view(np.float64)
        np.subtract(2.0, gaps, out=gaps)
        np.log(gaps, out=gaps)
        gaps /= log_q
        np.floor(gaps, out=gaps)
        # every gap past the end acts alike, so clip there, then add 1 and
        # 2**52: the float's mantissa then holds the gap as an integer, which
        # taking 2**52's bits away leaves as int64.  Exact while left + 1 <
        # 2**52 bins, past any train that fits in memory
        np.minimum(gaps, left, out=gaps)
        gaps += 2.0**52 + 1.0
        raw -= _FLOAT_TWO_52
        gaps = raw.view(np.int64)
        # the first gap counts from the last candidate, at end - 1
        gaps[0] += end - 1
        pos = np.cumsum(gaps, out=gaps)
        chunks.append(pos)
        end = int(pos[-1]) + 1
    pos = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    pos = pos[: np.searchsorted(pos, n)]
    thresholds = (p / p_max).tolist()
    if any(0.0 < thr < 1.0 for thr in thresholds):
        raw = bit_gen.random_raw(pos.size)
    else:
        bit_gen.advance(pos.size)
    level = level_at(pos)
    # by level, on booleans: gathering p / p_max by uint8 levels is numpy's slow path
    keep = np.zeros(pos.size, dtype=bool)
    for lv, thr in enumerate(thresholds):
        if thr > 0.0:
            hit = level == lv
            if thr < 1.0:
                hit &= raw < _keep_below(thr)
            keep |= hit
    # the data detector keeps about half its candidates, at random, since
    # half its bins are empty: the worst case for a boolean index.  On 130k
    # int64 positions at half kept it took 0.9-1.0 ms against 0.19-0.30 ms
    # for flatnonzero and a gather; at 97% kept, 0.16-0.26 against 0.23-0.25
    # (2-vCPU Xeon, numpy 2.4.6)
    return pos[np.flatnonzero(keep)]
