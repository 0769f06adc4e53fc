"""Pooled multi-seed checks: a count summed over a fixed range of seeds, held
to its expectation at 5 sigma.

One seed's count sits somewhere in its spread, and a change of draws moves
it there, so a one-seed check tests the draws as much as the rate.  The
pooled count over SEEDS tests the rate.  SEEDS was fixed before the checks
first ran against it, and no other test uses these seeds.  With one seed a
check is the one-seed check it replaces.
"""

import math

import numpy as np

SEEDS = range(61_000, 61_030)


def binomial_z(k, n, p) -> float:
    """How many sigma k successes in n trials, summed over seeds, lie from their
    mean, each trial succeeding with p (one p, or one per seed).  For p of 0
    or 1 any k but the mean is infinitely far."""
    k, n, p = int(np.sum(k)), np.asarray(n, dtype=float), np.asarray(p, dtype=float)
    mean, var = float(np.sum(n * p)), float(np.sum(n * p * (1.0 - p)))
    if var == 0.0:
        return 0.0 if k == mean else math.inf
    return (k - mean) / math.sqrt(var)


def assert_binomial(k, n, p, what=""):
    """binomial_z(k, n, p) within 5 sigma."""
    z = binomial_z(k, n, p)
    assert abs(z) <= 5.0, f"{what}: {int(np.sum(k))} successes, z = {z:.2f}"
