"""Single-photon detection statistics and the closed-form pulse-number curves.

Every nonempty time bin is a coherent state of the same mean photon number.
Linear optics (fiber loss, beam splitters, the monitoring interferometer)
scale that mean analytically; Poisson randomness enters only when a
detector samples a click.  This is exact for coherent states and keeps the
channel noiseless.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "click_probability",
    "detectable_fraction",
    "splittable_fraction",
]


def click_probability(mu_at_detector, eta: float, p_dark: float):
    """Probability that a threshold detector fires on a bin of given mean.

    1 - (1 - p_dark) * exp(-eta * mu): no click requires no dark count and
    zero detected photons out of a Poisson-distributed number.
    Accepts scalars or numpy arrays for the mean.
    """
    return 1.0 - (1.0 - p_dark) * np.exp(-eta * np.asarray(mu_at_detector, dtype=float))


def detectable_fraction(mu: float) -> float:
    """Fraction of transmitted pulses an ideal detector can see: P(n >= 1)."""
    if mu < 0:
        raise ValueError(f"mu must be >= 0, got {mu}")
    return -math.expm1(-mu)


def splittable_fraction(mu: float) -> float:
    """Fraction of detectable pulses carrying two or more photons.

    P(n >= 2 | n >= 1) = (1 - (1 + mu) e^{-mu}) / (1 - e^{-mu});
    defined as 0 at mu = 0 by continuity.
    """
    if mu < 0:
        raise ValueError(f"mu must be >= 0, got {mu}")
    if mu == 0.0:
        return 0.0
    return (1.0 - (1.0 + mu) * math.exp(-mu)) / -math.expm1(-mu)
