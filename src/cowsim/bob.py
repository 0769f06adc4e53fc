"""Bob: channel reception, data detection with dead time, and the monitor line.

Each incoming pulse loses power in the fiber, is split between the data
detector (fraction t_b) and the monitoring interferometer, and detected.
The interferometer delays one arm by a single bin and is tuned so an intact
pulse pair cancels at the instrumented (destructive) output.  Since every
pulse has the same mean, a data bin is either empty or a pulse, and the
destructive port at a boundary sees nothing, a lone pulse or an intact pair.

Detections sit on the same grid as the pulse train: one boolean per bin for
the data detector, and one per interferometer boundary k (bins k and k+1)
for the monitor detector.

Clicks are sampled by thinned geometric skipping (Devroye, Non-Uniform
Random Variate Generation, 1986; Batagelj & Brandes, Phys. Rev. E 71,
036113, 2005).  With p_max the largest click probability of any level,
candidate positions are drawn at rate p_max by geometric gaps, and candidate
i clicks iff a uniform u_i < p[level_i] / p_max.  That is exactly
Bernoulli(p[level_i]) per position, independent across positions.  How many
numbers are drawn, and their values, depend only on the train length and
p_max, never on the train's contents, so two trains of one length see the
same draws from one seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .optics import click_probability

if TYPE_CHECKING:
    from .engine import SimConfig

__all__ = [
    "DetectionMode",
    "DetectionRecord",
    "receive",
    "detect_data",
    "decode",
]

class DetectionMode(Enum):
    SAMPLED = "sampled"
    # test-oracle mode: any nonempty bin clicks, darks off, rng untouched
    DETERMINISTIC = "deterministic"


@dataclass
class DetectionRecord:
    """Bob's clicks on the bin grid of a 2n-bin train.

    data_clicks     bool, length 2n: the data detector fired in bin i
    monitor_clicks  bool, length 2n - 1: the monitor detector fired at
                    boundary k, where bins k and k+1 interfere
    """

    data_clicks: np.ndarray
    monitor_clicks: np.ndarray


def receive(
    occupancy: np.ndarray,
    config: SimConfig,
    rng: np.random.Generator,
) -> DetectionRecord:
    """Propagate an occupied-bin train through loss and the splitter, then detect.

    The sampled path draws first the data detector's numbers (detect_data),
    then the monitor's over the interferometer boundaries.  Each detector
    thins geometric gaps drawn at its largest click probability p_max, so
    what is drawn depends only on the train length and the two p_max values,
    never on the channel contents: runs with and without Eve's mask stay
    draw-aligned for controlled comparisons.
    """
    clicks = detect_data(occupancy, config, rng)

    m = config.mu * config.channel_t * (1.0 - config.t_b)
    # destructive port of the one-bin-delay interferometer for 0, 1 or 2
    # pulses in the two interfering bins: a lone pulse loses half at each
    # coupler, and an intact pair leaks what the visibility fails to cancel
    port = np.array([0.0, m / 4.0, (m - config.visibility * m) / 2.0])

    bin_level = np.asarray(occupancy, dtype=bool).view(np.uint8)
    pair_level = bin_level[:-1] + bin_level[1:]

    if config.detection_mode is DetectionMode.DETERMINISTIC:
        mon_clicks = (port > 0.0)[pair_level]
    else:
        p_mon = click_probability(port, config.eta_mon, config.p_dark_mon)
        mon_clicks = _sample_clicks(p_mon, pair_level, rng)

    return DetectionRecord(clicks, mon_clicks)


def detect_data(
    occupancy: np.ndarray,
    config: SimConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """The data detector's clicks, one boolean per bin of an occupied-bin train.

    The sampled path draws candidate bins by geometric gaps at rate p_max,
    the click probability of a pulse bin, and a candidate clicks iff a
    uniform u < p[level] / p_max.  What is drawn depends only on the train
    length and p_max, not on which bins hold pulses.  Dead time is gated per
    information slot: an early-bin click shadows the late bin of the same
    slot and the detector re-arms at the next slot boundary, so a slot never
    yields two clicks.
    """
    occupancy = np.asarray(occupancy, dtype=bool)
    if occupancy.size % 2 != 0:
        raise ValueError(f"train length must be even, got {occupancy.size} bins")

    data_mean = np.array([0.0, config.mu * config.channel_t * config.t_b])
    bin_level = occupancy.view(np.uint8)

    if config.detection_mode is DetectionMode.DETERMINISTIC:
        clicks = (data_mean > 0.0)[bin_level]
    else:
        p_click = click_probability(data_mean, config.eta_data, config.p_dark_data)
        clicks = _sample_clicks(p_click, bin_level, rng)

    late = clicks[1::2]
    late &= ~clicks[0::2]
    return clicks


def _sample_clicks(p: np.ndarray, level: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Independent Bernoulli(p[level[i]]) clicks by thinned geometric skipping.

    Candidates come at rate p_max = max(p): geometric gaps are drawn in
    chunks sized to cover the rest of the train with margin, until the last
    candidate lies at or past the end.  Then one uniform per candidate inside
    the train; candidate i clicks iff u < p[level[i]] / p_max.
    """
    n = level.size
    clicks = np.zeros(n, dtype=bool)
    p_max = float(p.max())
    if n == 0 or p_max <= 0.0:  # nothing can click, and geometric needs p > 0
        return clicks
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
    clicks[pos] = rng.random(pos.size) < (p / p_max)[level[pos]]
    return clicks


def decode(rec: DetectionRecord) -> tuple[np.ndarray, np.ndarray]:
    """Map clicks to (slots, values): bin 2i -> slot i, value 0; bin 2i+1 -> slot i, value 1."""
    early, late = rec.data_clicks[0::2], rec.data_clicks[1::2]
    if np.any(early & late):
        raise ValueError("two clicks decoded in one slot; dead time invariant broken")
    slots = np.flatnonzero(early | late)
    return slots, late[slots].astype(np.uint8)
