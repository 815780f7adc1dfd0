"""Diurnal rate curves for the open-loop workload.

"Studying the workload of a fully decentralized Web3 system: IPFS"
(Costa et al., 2022) observes a clear day/night swing in gateway request
rates.  The model here is the standard single-harmonic curve: a cosine
around the mean with a configurable amplitude and peak hour.  Its mean
over a full day is exactly 1.0, so turning the curve on changes *when*
requests arrive but not how many — the calibrated daily volume is
untouched.
"""

from __future__ import annotations

import math

TWO_PI = 2.0 * math.pi


def diurnal_factor(hour_of_day: float, amplitude: float, peak_hour: float) -> float:
    """Rate multiplier at ``hour_of_day`` (0-24, wrapping).

    ``amplitude`` in ``[0, 1)`` is the peak-to-mean excess: 0 is flat,
    0.55 swings between 0.45× (trough) and 1.55× (peak).  The peak sits
    at ``peak_hour``; the trough 12 hours opposite.
    """
    if amplitude <= 0.0:
        return 1.0
    return 1.0 + amplitude * math.cos((hour_of_day - peak_hour) / 24.0 * TWO_PI)
