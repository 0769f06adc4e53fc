"""Optics oracles: the closed forms, and channel loss, the beam splitter and the
monitor interferometer as seen through Bob's receive.

Arm means are read back from click rates: a threshold detector of
efficiency 1 with no dark counts fires with probability 1 - exp(-m) on a
pulse of mean m, so m = -log(1 - rate).
"""

import math

import numpy as np
import pytest

from cowsim.bob import receive
from cowsim.engine import _SATURATED, SimConfig
from cowsim.optics import click_probability, detectable_fraction, splittable_fraction
from protocol_model import _train

RNG = lambda: np.random.default_rng(1234)

# unit-efficiency, noiseless detectors behind a lossless channel
IDEAL = dict(channel_t=1.0, t_b=1.0, eta_data=1.0, eta_mon=1.0, p_dark_data=0.0, p_dark_mon=0.0)
N = 200_000


def lone_pulses(n_slots=N):
    """All-zero data: every slot is (pulse, empty), so every boundary holds one pulse.
    Like every train here, it is slot patterns, packed where receive takes it."""
    return np.ones(n_slots, dtype=np.uint8)


def rates(train, seed=0, **params):
    """(data clicks per pulse, monitor clicks per boundary) of one receive call."""
    config = SimConfig(**{**IDEAL, **params})
    (slots, _), monitor = receive(_train(train), config, np.random.default_rng(seed))
    pulses = np.count_nonzero(train & 1) + np.count_nonzero(train & 2)
    n_boundaries = 2 * train.size - 1
    # monitor: the clicked boundaries, strictly increasing inside [0, n_boundaries)
    assert np.all(np.diff(monitor) > 0) and np.all((monitor >= 0) & (monitor < n_boundaries))
    return slots.size / pulses, monitor.size / n_boundaries


def mean_from_rate(rate, n):
    """Detected mean -log(1 - rate) and its standard error from n trials."""
    return -math.log1p(-rate), math.sqrt(rate / ((1.0 - rate) * n)) if rate < 1 else 0.0


def arm_means(mu, seed=0, **params):
    """Means reaching the data arm and the monitor arm, inferred from clicks.

    A lone pulse reaches the destructive port at a quarter of its monitor-arm
    mean, so that arm's mean is four times the port mean.
    """
    data_rate, mon_rate = rates(lone_pulses(), seed, mu=mu, **params)
    data, data_se = mean_from_rate(data_rate, N)
    port, port_se = mean_from_rate(mon_rate, 2 * N - 1)
    return data, 4.0 * port, math.hypot(data_se, 4.0 * port_se)


class TestAttenuate:
    def test_identity(self):
        data, _, se = arm_means(0.5, channel_t=1.0)
        assert abs(data - 0.5) < 4 * se

    def test_full_block(self):
        assert rates(lone_pulses(), mu=0.5, channel_t=0.0, t_b=0.9) == (0.0, 0.0)

    def test_product(self):
        data, _, se = arm_means(0.5, channel_t=0.2)
        assert abs(data - 0.1) < 4 * se

    def test_range_rejected(self):
        with pytest.raises(ValueError, match="channel_t"):
            SimConfig(channel_t=1.5)
        with pytest.raises(ValueError, match="channel_t"):
            SimConfig(channel_t=-0.1)

    def test_matches_binomial_thinning(self):
        # oracle: a Poisson(mu) photon number thinned binomially with p
        # must click as often as receive's loss model at transmittance p
        rng = RNG()
        thinned = rng.binomial(rng.poisson(0.5, size=N), 0.2)
        seen = np.mean(thinned >= 1)
        data_rate, _ = rates(lone_pulses(), seed=5, mu=0.5, channel_t=0.2)
        p = 1 - math.exp(-0.5 * 0.2)
        se = math.sqrt(2 * p * (1 - p) / N)
        assert abs(seen - data_rate) < 4 * se


class TestBeamsplit:
    def test_paper_ratio(self):
        data, monitor, se = arm_means(1.0, t_b=0.9)
        assert abs(data - 0.9) < 4 * se
        assert abs(monitor - 0.1) < 4 * se

    def test_vacuum(self):
        train = np.zeros(N, dtype=np.uint8)
        (slots, _), monitor = receive(_train(train), SimConfig(**{**IDEAL, "t_b": 0.3}), RNG())
        assert slots.size == 0 and monitor.size == 0

    def test_symmetric(self):
        data, monitor, se = arm_means(0.5, t_b=0.5)
        assert abs(data - monitor) < 4 * se

    @pytest.mark.parametrize("mu", [0.1, 0.5, 1.0, 3.7])
    @pytest.mark.parametrize("t_b", [0.0, 0.25, 0.9, 1.0])
    def test_energy_conserved(self, mu, t_b):
        # data-arm plus monitor-arm mean equals the arrived mean
        data, monitor, se = arm_means(mu, seed=int(100 * mu + 10 * t_b), t_b=t_b)
        assert abs(data + monitor - mu) < 4 * se


class TestMonitorPort:
    def test_intact_pair_cancels(self):
        train = np.full(N, 3, dtype=np.uint8)  # all decoys: every bin holds a pulse
        for saturated in ({}, _SATURATED):
            config = SimConfig(**{**IDEAL, "t_b": 0.5, **saturated})
            _, monitor = receive(_train(train), config, RNG())
            assert monitor.size == 0

    def test_lone_pulse(self):
        # a single surviving pulse loses half at each coupler: m / 4,
        # independent of the visibility
        m = 0.5 * 0.8 * (1 - 0.6)
        p = 1 - math.exp(-0.7 * m / 4)
        se = math.sqrt(p * (1 - p) / (2 * N - 1))
        for v in (1.0, 0.3):
            _, mon_rate = rates(lone_pulses(), mu=0.5, channel_t=0.8, t_b=0.6, eta_mon=0.7, visibility=v)
            assert abs(mon_rate - p) < 4 * se

    def test_partial_visibility(self):
        # an intact pair at visibility V leaks m (1 - V) / 2
        train = np.full(N, 3, dtype=np.uint8)
        m = 1.3 * 0.8 * (1 - 0.6)
        for v in (0.98, 0.7):
            p = 1 - math.exp(-0.7 * m * (1 - v) / 2)
            se = math.sqrt(p * (1 - p) / (2 * N - 1))
            _, mon_rate = rates(train, mu=1.3, channel_t=0.8, t_b=0.6, eta_mon=0.7, visibility=v)
            assert abs(mon_rate - p) < 4 * se

    def test_both_empty(self):
        train = np.zeros(N, dtype=np.uint8)
        train[0::2] = 1  # slots alternate (pulse, empty) and (empty, empty)
        _, monitor = receive(_train(train), SimConfig(**{**IDEAL, "t_b": 0.5, "visibility": 0.7}), RNG())
        # bins 1000 1000 ...: boundaries 4j+1 and 4j+2 join two empty bins
        k = np.arange(2 * N - 1)
        silent = (k % 4 == 1) | (k % 4 == 2)
        assert silent.sum() > 0 and monitor.size > 0
        assert not np.any(silent[monitor])

    @pytest.mark.parametrize("v", [0.0, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("mus", [(0.1, 0.1), (0.5, 0.5), (2.0, 0.0)])
    def test_never_negative(self, v, mus):
        # source means of the two interfering bins; the port mean is zero
        # only for an intact pair at V = 1 and positive everywhere else
        # four slots, each (mus[0], mus[1]); bit v of a slot holds bin v.
        # Saturated detectors click iff the port mean is positive.
        train = np.full(4, (mus[0] > 0) | (mus[1] > 0) << 1, dtype=np.uint8)
        config = SimConfig(t_b=0.5, visibility=v, **_SATURATED)
        _, monitor = receive(_train(train), config, RNG())
        cancels = mus[1] > 0 and v == 1.0
        assert monitor.tolist() == ([] if cancels else list(range(7)))


class TestClickProbability:
    def test_vacuum_ideal(self):
        assert click_probability(0.0, 1.0, 0.0) == 0.0

    def test_half_photon(self):
        assert click_probability(0.5, 1.0, 0.0) == pytest.approx(1 - math.exp(-0.5), abs=1e-12)

    def test_dark_floor(self):
        assert click_probability(0.0, 1.0, 0.01) == pytest.approx(0.01, abs=1e-12)

    def test_monte_carlo(self):
        rng = RNG()
        n = rng.poisson(0.5, size=1_000_000)
        seen = np.mean(n >= 1)
        p = click_probability(0.5, 1.0, 0.0)
        se = math.sqrt(p * (1 - p) / n.size)
        assert abs(seen - p) < 3 * se

    def test_overlap_consistency(self):
        # with a perfect noiseless detector, no-click prob is the squared
        # vacuum overlap |<0|mu>|^2 = exp(-mu)
        for mu in np.linspace(0.05, 2.0, 10):
            no_click = 1 - click_probability(mu, 1.0, 0.0)
            assert no_click == pytest.approx(math.exp(-mu), abs=1e-12)


class TestSampleClick:
    def test_degenerate(self):
        train = lone_pulses(1000)
        # probability 0: nothing reaches either detector and darks are off
        assert rates(train, mu=0.5, channel_t=0.0) == (0.0, 0.0)
        # probability 1: a saturated detector fires on every occupied bin
        det = SimConfig(**_SATURATED)
        (slots, values), _ = receive(_train(train), det, RNG())
        assert slots.tolist() == list(range(1000)) and not values.any()

    def test_fair(self):
        rng = RNG()
        hits = np.mean(rng.random(1_000_000) < 0.5)
        assert abs(hits - 0.5) < 3 * 0.0005

    def test_range(self):
        # every configurable detector yields a probability in [0, 1]
        mus = np.array([0.0, 1e-9, 0.5, 50.0, 1e6])
        for eta in (0.0, 0.1, 1.0):
            for p_dark in (0.0, 0.5, 1 - 1e-12):
                p = click_probability(mus, eta, p_dark)
                assert np.all((p >= 0.0) & (p <= 1.0))


class TestClosedForms:
    def test_no_click_probability(self):
        # at eta = 1 and no darks, a pulse of mean mu goes unseen with the
        # squared vacuum overlap exp(-mu)
        for mu in (0.1, 0.5, 1.0):
            data_rate, _ = rates(lone_pulses(), seed=int(10 * mu), mu=mu)
            p = math.exp(-mu)
            se = math.sqrt(p * (1 - p) / N)
            assert abs((1 - data_rate) - p) < 4 * se

    def test_detectable(self):
        assert detectable_fraction(0.0) == 0.0
        assert detectable_fraction(0.5) == pytest.approx(0.3934693402873666, abs=1e-9)
        values = [detectable_fraction(mu) for mu in np.arange(0.01, 10, 0.01)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert detectable_fraction(50.0) > 1 - 1e-12

    def test_splittable(self):
        assert splittable_fraction(0.0) == 0.0
        assert splittable_fraction(1e-9) < 1e-8
        # frozen from the closed form (1 - (1+mu)e^-mu) / (1 - e^-mu)
        assert splittable_fraction(0.5) == pytest.approx(0.22925295873160084, abs=1e-9)
        values = [splittable_fraction(mu) for mu in np.arange(0.01, 10.01, 0.01)]
        assert all(b > a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("fraction", [detectable_fraction, splittable_fraction])
    @pytest.mark.parametrize("mu", [-0.1, -math.inf])
    def test_negative_mu_rejected(self, fraction, mu):
        with pytest.raises(ValueError, match="mu must be >= 0"):
            fraction(mu)

    def test_splittable_monte_carlo(self):
        rng = RNG()
        n = rng.poisson(0.5, size=1_000_000)
        detectable = n >= 1
        frac = np.mean(n[detectable] >= 2)
        p = splittable_fraction(0.5)
        se = math.sqrt(p * (1 - p) / detectable.sum())
        assert abs(frac - p) < 3 * se

    def test_data_click_law(self):
        # the data detector sees mu_eff = mu * t * t_b * eta
        for t, t_b, eta in ((1.0, 1.0, 1.0), (0.2, 0.9, 0.1), (0.5, 0.9, 0.5)):
            data_rate, _ = rates(lone_pulses(), mu=0.5, channel_t=t, t_b=t_b, eta_data=eta)
            p = 1 - math.exp(-0.5 * t * t_b * eta)
            se = math.sqrt(p * (1 - p) / N)
            assert abs(data_rate - p) < 4 * se


class TestParams:
    def test_ranges_enforced(self):
        with pytest.raises(ValueError):
            SimConfig(channel_t=1.2)
        with pytest.raises(ValueError):
            SimConfig(p_dark_data=1.0)
        with pytest.raises(ValueError):
            SimConfig(mu=-0.1)
