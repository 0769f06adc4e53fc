"""Bob: channel reception, data detection with dead time, and the monitor line.

Each incoming pulse loses power in the fiber, is split between the data
detector (fraction t_b) and the monitoring interferometer, and detected.
The interferometer delays one arm by a single bin and is tuned so an intact
pulse pair cancels at the instrumented (destructive) output.  Since every
pulse has the same mean, a data bin is either empty or a pulse, and the
destructive port at a boundary sees nothing, a lone pulse or an intact pair.

The train arrives as Alice's slot patterns (alice.insert_decoys), after any
mask: bit v of train[i] is set when bin 2i+v holds a pulse.  A detection is
the sorted array of positions that clicked, as the sampler draws them.  The
data detector reports (slots, values): bin 2i+v clicked gives slot i and
value v, at most one per slot.  The monitor detector reports its clicked
interferometer boundaries k (bins k and k+1), sorted.

Clicks are sampled by thinned geometric skipping (Devroye, Non-Uniform
Random Variate Generation, 1986; Batagelj & Brandes, Phys. Rev. E 71,
036113, 2005).  With p_max the largest click probability of any level,
candidate positions are drawn at rate p_max by geometric gaps, and candidate
i clicks iff a uniform u_i < p[level_i] / p_max.  That is exactly
Bernoulli(p[level_i]) per position, independent across positions.  Levels
are looked up from the slot patterns at the candidates only.  How many
numbers are drawn, and their values, depend only on the train length and
p_max, never on the train's contents, so two trains of one length see the
same draws from one seed.
"""

from __future__ import annotations

import math
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from .optics import click_probability

if TYPE_CHECKING:
    from .engine import SimConfig

__all__ = [
    "receive",
    "detect_data",
]


def receive(
    train: np.ndarray,
    config: SimConfig,
    rng: np.random.Generator,
) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """Propagate a slot-pattern train through loss and the splitter, then detect.

    Returns ((slots, values), monitor): detect_data's detected slots and bit
    values, and the monitor detector's clicked interferometer boundaries k
    (bins k and k+1) as strictly increasing int64 positions in [0, 2n - 1).

    It draws first the data detector's numbers (detect_data), then the
    monitor's over the 2n - 1 interferometer boundaries.  Each detector
    thins geometric gaps drawn at its largest click probability p_max, so
    what is drawn depends only on the train length and the two p_max
    values, never on the channel contents: runs with and without Eve's
    mask stay draw-aligned for controlled comparisons.
    """
    train = np.asarray(train, dtype=np.uint8)
    detected = detect_data(train, config, rng)

    m = config.mu * config.channel_t * (1.0 - config.t_b)
    # destructive port of the one-bin-delay interferometer for 0, 1 or 2
    # pulses in the two interfering bins: a lone pulse loses half at each
    # coupler, and an intact pair leaks what the visibility fails to cancel
    port = np.array([0.0, m / 4.0, (m - config.visibility * m) / 2.0])

    return detected, _sample_clicks(
        click_probability(port, config.eta_mon, config.p_dark_mon),
        max(2 * train.size - 1, 0), partial(_pair_level, train), rng,
    )


def detect_data(
    train: np.ndarray,
    config: SimConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """The data detector's (slots, values) for a slot-pattern train.

    slots is strictly increasing; a click in bin 2i+v gives slot i and the
    uint8 value v.  Candidate bins are drawn by geometric gaps at rate
    p_max, the click probability of a pulse bin, and a candidate clicks iff
    a uniform u < p[level] / p_max.  What is drawn depends only on the train
    length and p_max, not on which bins hold pulses.  Dead time is gated per
    information slot: an early-bin click shadows the late bin of the same
    slot and the detector re-arms at the next slot boundary, so a slot never
    yields two clicks.
    """
    train = np.asarray(train, dtype=np.uint8)
    data_mean = np.array([0.0, config.mu * config.channel_t * config.t_b])
    pos = _sample_clicks(
        click_probability(data_mean, config.eta_data, config.p_dark_data),
        2 * train.size, partial(_bin_level, train), rng,
    )
    slots = pos >> 1
    # positions are sorted, so keeping each slot's first click lets the early bin win
    first = np.diff(slots, prepend=-1) > 0
    return slots[first], (pos[first] & 1).astype(np.uint8)


def _bin_level(train: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Pulses (0 or 1) in bins pos of a slot-pattern train."""
    # a uint8 shift count keeps the arithmetic in uint8
    return (train[pos >> 1] >> (pos & 1).astype(np.uint8)) & 1


def _pair_level(train: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Pulses (0, 1 or 2) in bins k and k+1 of a slot-pattern train: the late
    bin of slot k >> 1 plus the early bin of slot (k + 1) >> 1, which is the
    same slot when k is even."""
    return (train[k >> 1] >> 1) + (train[(k + 1) >> 1] & 1)


def _sample_clicks(p: np.ndarray, n: int, level_at, rng: np.random.Generator) -> np.ndarray:
    """Sorted click positions i < n, position i clicking independently with
    p[level_at(i)].

    Thinned geometric skipping: candidates come at rate p_max = max(p), by
    geometric gaps drawn in chunks sized to cover the rest of the train with
    margin, until the last candidate lies at or past the end.  Then one
    uniform per candidate inside the train; candidate i clicks iff
    u < p[level_at(i)] / p_max.  level_at sees only the candidates.
    """
    p_max = float(p.max())
    if n == 0 or p_max <= 0.0:  # nothing can click, and geometric needs p > 0
        return np.zeros(0, dtype=np.int64)
    chunks, end = [], 0  # end: 1-based position of the last candidate drawn
    while end < n:
        left = n - end
        gaps = rng.geometric(p_max, size=int(left * p_max + 5.0 * math.sqrt(left * p_max)) + 1)
        # below p_max ~ 1e-16 numpy returns int64 max; every gap past the
        # end acts alike, and clipping there keeps the sums from wrapping
        np.minimum(gaps, left + 1, out=gaps)
        pos = np.cumsum(gaps)
        pos += end
        chunks.append(pos)
        end = int(pos[-1])
    pos = np.concatenate(chunks)
    pos = pos[: np.searchsorted(pos, n, side="right")] - 1
    return pos[rng.random(pos.size) < (p / p_max)[level_at(pos)]]
