"""Count sampling shared by the traffic engine and the monitors.

The workload draws per-tick request counts and the Hydra draws how many
of a walk's messages it captures from the same Poisson sampler; both
import it from here, at module level, so the per-walk capture path pays
no import lookup.
"""

from __future__ import annotations

import math
import random


def poisson(mean: float, rng: random.Random) -> int:
    """Poisson sample (Knuth for small means, normal approx for large)."""
    if mean <= 0.0:
        return 0
    if mean > 30.0:
        value = int(rng.gauss(mean, mean ** 0.5) + 0.5)
        return max(0, value)
    limit = math.exp(-mean)
    count = 0
    product = rng.random()
    while product > limit:
        count += 1
        product *= rng.random()
    return count
