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
"""

from __future__ import annotations

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

# receive draws this many uniforms at a time, never a float array as long as the train
_DRAW_BLOCK = 1 << 16


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

    The sampled path draws first one uniform per data bin (detect_data), then
    one per interferometer boundary, regardless of outcomes, so runs with
    different channel contents stay draw-aligned for controlled comparisons.
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

    The sampled path draws one uniform per bin.  Dead time is gated per
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
    """rng.random(level.size) < p[level], drawn in blocks that keep the draw order.

    Each block ORs (level == j) & (u < p[j]) over the levels j into the
    clicks, so no per-bin probability array is gathered.
    """
    clicks = np.zeros(level.size, dtype=bool)
    u = np.empty(min(level.size, _DRAW_BLOCK))
    hit, at_level = np.empty((2, u.size), dtype=bool)
    for start in range(0, level.size, _DRAW_BLOCK):
        block = level[start : start + _DRAW_BLOCK]
        u, hit, at_level = u[: block.size], hit[: block.size], at_level[: block.size]
        rng.random(out=u)
        out = clicks[start : start + block.size]
        for j, p_j in enumerate(p.tolist()):
            if p_j > 0.0:  # a uniform in [0, 1) is never below p_j <= 0
                np.less(u, p_j, out=hit)
                hit &= np.equal(block, j, out=at_level)
                out |= hit
    return clicks


def decode(rec: DetectionRecord) -> tuple[np.ndarray, np.ndarray]:
    """Map clicks to (slots, values): bin 2i -> slot i, value 0; bin 2i+1 -> slot i, value 1."""
    early, late = rec.data_clicks[0::2], rec.data_clicks[1::2]
    if np.any(early & late):
        raise ValueError("two clicks decoded in one slot; dead time invariant broken")
    slots = np.flatnonzero(early | late)
    return slots, late[slots].astype(np.uint8)
