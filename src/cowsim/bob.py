"""Bob: channel reception, data detection with dead time, and the monitor line.

Each incoming pulse loses power in the fiber, is split between the data
detector (fraction t_b) and the monitoring interferometer, and detected.
The interferometer delays one arm by a single bin and is tuned so an intact
pulse pair cancels at the instrumented (destructive) output.  Since every
pulse has the same mean, a data bin is either empty or a pulse, and the
destructive port at a boundary sees nothing, a lone pulse or an intact pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .optics import click_probability
from .sifting import MonitorOutcome, in_sorted

if TYPE_CHECKING:
    from .engine import SimConfig

__all__ = [
    "DetectionMode",
    "DetectionRecord",
    "receive",
    "decode",
    "monitor_outcome",
]

# destructive-port means below this are treated as perfect cancellation
_CANCEL_TOL = 1e-12


class DetectionMode(Enum):
    SAMPLED = "sampled"
    # test-oracle mode: any nonempty bin clicks, darks off, rng untouched
    DETERMINISTIC = "deterministic"


@dataclass
class DetectionRecord:
    """Bin indices of data clicks and boundary indices of monitor clicks."""

    data_clicks: np.ndarray
    monitor_clicks: np.ndarray

    def __post_init__(self):
        self.data_clicks = np.asarray(self.data_clicks, dtype=np.int64)
        self.monitor_clicks = np.asarray(self.monitor_clicks, dtype=np.int64)
        if np.any(np.diff(self.data_clicks) <= 0):
            raise ValueError("data clicks must be strictly increasing")


def receive(
    occupancy: np.ndarray,
    config: SimConfig,
    rng: np.random.Generator,
) -> DetectionRecord:
    """Propagate an occupied-bin train through loss and the splitter, then detect.

    The sampled path consumes one uniform draw per data bin and one per
    interferometer boundary regardless of outcomes, so runs with different
    channel contents stay draw-aligned for controlled comparisons.

    Dead time is gated per information slot: an early-bin click shadows the
    late bin of the same slot and the detector re-arms at the next slot
    boundary, so a slot never yields two clicks.
    """
    occupancy = np.asarray(occupancy, dtype=bool)
    if occupancy.size % 2 != 0:
        raise ValueError(f"train length must be even, got {occupancy.size} bins")

    arrived = config.mu * config.channel_t
    data_mean = np.array([0.0, arrived * config.t_b])
    m = arrived * (1.0 - config.t_b)
    # destructive port of the one-bin-delay interferometer for 0, 1 or 2
    # pulses in the two interfering bins; all pulses come from one CW source
    # at one mean, so these three levels are the only ones that occur
    prev, cur = np.array([0.0, m, m]), np.array([0.0, 0.0, m])
    port = prev + cur - 2.0 * config.visibility * np.sqrt(prev * cur)
    port = np.maximum(port, 0.0) / 4.0

    bin_level = occupancy.view(np.uint8)
    pair_level = bin_level[:-1] + bin_level[1:]

    if config.detection_mode is DetectionMode.DETERMINISTIC:
        clicks = (data_mean > 0.0)[bin_level]
        mon_clicks = (port > _CANCEL_TOL)[pair_level]
    else:
        p_click = click_probability(data_mean, config.eta_data, config.p_dark_data)
        clicks = rng.random(occupancy.size) < p_click[bin_level]
        p_mon = click_probability(port, config.eta_mon, config.p_dark_mon)
        mon_clicks = rng.random(pair_level.size) < p_mon[pair_level]

    late = clicks[1::2]
    late &= ~clicks[0::2]

    return DetectionRecord(np.flatnonzero(clicks), np.flatnonzero(mon_clicks))


def decode(rec: DetectionRecord) -> tuple[np.ndarray, np.ndarray]:
    """Map click bins to (slots, values): bin 2i -> slot i, value 0; bin 2i+1 -> slot i, value 1."""
    slots = rec.data_clicks // 2
    # data clicks are strictly increasing, so a repeated slot is adjacent
    if np.any(slots[1:] == slots[:-1]):
        raise ValueError("two clicks decoded in one slot; dead time invariant broken")
    return slots, (rec.data_clicks % 2).astype(np.uint8)


def monitor_outcome(rec: DetectionRecord, checked_boundaries) -> MonitorOutcome:
    """Per-boundary monitor result for the sifting dialog."""
    checked = np.sort(np.asarray(checked_boundaries, dtype=np.int64))
    clicked = checked[in_sorted(np.sort(rec.monitor_clicks), checked)]
    return MonitorOutcome(checked, clicked)
