"""run, sweep_mu and compare_attack write, byte for byte, what tests/protocol_model.py says."""

import itertools
from dataclasses import astuple

import numpy as np
import pytest

import protocol_model
from cowsim import Attack, DecoyStrategy, SimConfig, compare_attack, run, sweep_mu
from cowsim.engine import _SATURATED

NOISY = dict(p_dark_data=1e-3, p_dark_mon=1e-3, visibility=0.98)
# a dark monitor (t_b = 1) takes no slot from the key, so a saturated run keeps one; its
# data detector's dark counts let a slot click in both bins, and the early one must win
DARK_MONITOR = {**_SATURATED, "t_b": 1.0, "p_dark_data": 1e-3}
DETECTORS = {"default": {}, "noisy": NOISY, "saturated": _SATURATED, "dark-monitor": DARK_MONITOR}
# a few bits of one raw word, both sides of a word boundary, and a partial word past 2000
SIZES, SEEDS = (1, 2, 3, 4, 5, 63, 64, 65, 2003), range(20)


@pytest.mark.parametrize("detectors", DETECTORS)
@pytest.mark.parametrize("attack", list(Attack))
@pytest.mark.parametrize("strategy", list(DecoyStrategy))
def test_run_equals_model(strategy, attack, detectors):
    for n_bits, seed in itertools.product(SIZES, SEEDS):
        config = SimConfig(
            n_bits=n_bits, seed=seed, decoy_strategy=strategy, attack=attack, **DETECTORS[detectors]
        )
        stats, transcript, _ = run(config)
        assert (stats.to_lines(), transcript.to_jsonl()) == protocol_model.run(config), (n_bits, seed)


@pytest.mark.parametrize("strategy", list(DecoyStrategy))
def test_compare_attack_equals_model(strategy):
    for seed in SEEDS:
        config = SimConfig(n_bits=2003, seed=seed, decoy_strategy=strategy)
        assert compare_attack(config).to_lines() == protocol_model.compare_attack(config), seed


class _RawWordsOnly(np.random.Generator):
    """A Generator whose distribution methods raise: only bit_generator.random_raw draws."""

    def _refuse(self, *args, **kwargs):
        raise AssertionError("a Generator distribution method was called")

    random = standard_exponential = geometric = integers = _refuse


def test_raw_words_only(monkeypatch):
    # every stream the package and the model make refuses the methods whose
    # streams numpy does not promise to keep, and the outputs stay the model's
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: _RawWordsOnly(np.random.PCG64(seed)))
    with pytest.raises(AssertionError):
        np.random.default_rng(0).random()
    for strategy in DecoyStrategy:
        config = SimConfig(n_bits=2003, seed=5, decoy_strategy=strategy, attack=Attack.AND_MASK, **NOISY)
        stats, transcript, _ = run(config)
        assert (stats.to_lines(), transcript.to_jsonl()) == protocol_model.run(config)
        assert compare_attack(config).to_lines() == protocol_model.compare_attack(config)
    config, grid = SimConfig(n_bits=2003, seed=5, **NOISY), [0.1, 0.5, 60.0]
    assert [astuple(row) for row in sweep_mu(config, grid)] == protocol_model.sweep_mu(config, grid)
