"""Heavy-tailed ON/OFF session samplers (pure inverse-CDF, scalar math).

Costa et al. observe that IPFS gateway users arrive in bursts: a session
turns ON, issues a train of requests, and goes quiet — with both the
session length and the train size heavy-tailed (a few whales dominate
total volume).  The samplers here are pure functions of a uniform draw,
computed with scalar Python float math (``**`` and ``/``) only, so a
given uniform always maps to the same value.
"""

from __future__ import annotations


def duration_scale(mean_seconds: float, alpha: float) -> float:
    """Pareto scale parameter giving the requested mean.

    For a Pareto(scale, alpha) with ``alpha > 1`` the mean is
    ``scale * alpha / (alpha - 1)``; invert for the scale.
    """
    if alpha <= 1.0:
        raise ValueError("duration_alpha must exceed 1 for a finite mean")
    return mean_seconds * (alpha - 1.0) / alpha


def pareto_duration(u: float, scale: float, alpha: float, cap: float) -> float:
    """Inverse-CDF Pareto draw, capped.

    ``u`` in (0, 1]; the survival function ``(scale/x)**alpha`` inverts
    to ``scale * u ** (-1/alpha)``.  ``u == 0`` would be infinite, so it
    is clamped to the cap (measure-zero under a float uniform anyway).
    """
    if u <= 0.0:
        return cap
    value = scale * u ** (-1.0 / alpha)
    return value if value < cap else cap


def train_size(u: float, mean: float, alpha: float, cap: int) -> int:
    """Heavy-tailed request-train length: a discretized Pareto, >= 1.

    The continuous draw is shifted so its mean is ``mean`` (for
    ``alpha > 1``), truncated to an int, floored at 1 and capped so a
    single whale session cannot stall a tick.
    """
    scale = duration_scale(mean, alpha)
    value = pareto_duration(u, scale, alpha, float(cap))
    count = int(value)
    if count < 1:
        return 1
    if count > cap:
        return cap
    return count
