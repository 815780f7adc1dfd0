"""A mergeable quantile sketch for live campaign analytics.

:class:`QuantileSketch` is a KLL-style compactor hierarchy for rank /
quantile / CCDF queries over unbounded value streams, with
*deterministic* alternating compaction (no RNG: the same update
sequence always yields the same state, which is what the workers=1 ≡
workers=N parity pins rely on).  ``epsilon`` is the sketch's declared
rank-error target; the test suite verifies observed error stays inside
it across distributions, sizes and merge plans.

:mod:`repro.obs.stream` keeps two of them: per-window per-peer request
volumes and per-crawled-peer routing-table out-degrees.  Every other
live number is exact, read from the monitors'
:class:`~repro.core.traffic.LogSummary` folds.

A sketch serializes to a JSON-compatible state dict (``to_state`` /
``from_state``) and merges deterministically: folding per-worker states
in a fixed (crawl) order produces bit-identical merged state no matter
which process produced each part.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, List, Sequence, Tuple

__all__ = ["QuantileSketch"]


class QuantileSketch:
    """Streaming rank/quantile summary with deterministic compaction.

    A hierarchy of compactors: level ``h`` holds items of weight
    ``2**h``.  When the sketch exceeds its size budget the fullest-over-
    budget level is sorted and every other item is promoted one level up
    (the kept parity alternates per level — deterministic, no RNG), the
    rest are discarded.  This is the KLL/MRL compaction scheme with the
    random coin replaced by strict alternation, which keeps the sketch a
    pure function of its update/merge sequence.

    ``epsilon`` is the *declared* rank-error target (a fraction of the
    stream length).  The test suite pins observed error below it across
    uniform / Zipf / sorted / constant streams and 4-way merges; callers
    treat quantile answers as ``±epsilon``-rank approximations.
    """

    __slots__ = ("k", "epsilon", "n", "levels", "_parity")

    def __init__(self, k: int = 256, epsilon: float = 0.02) -> None:
        if k < 8:
            raise ValueError("QuantileSketch k must be >= 8")
        self.k = k
        self.epsilon = epsilon
        self.n = 0
        self.levels: List[List[float]] = [[]]
        self._parity: List[bool] = [False]

    def __len__(self) -> int:
        return self.n

    # -- size bookkeeping --------------------------------------------------

    def _cap(self, level: int) -> int:
        """Capacity of ``level`` under the (2/3)-decay KLL schedule."""
        depth = len(self.levels) - 1 - level
        return max(2, int(math.ceil(self.k * (2.0 / 3.0) ** depth)))

    def _size(self) -> int:
        return sum(len(level) for level in self.levels)

    def _budget(self) -> int:
        return sum(self._cap(level) for level in range(len(self.levels)))

    def update(self, value: float) -> None:
        self.levels[0].append(value)
        self.n += 1
        if self._size() > self._budget():
            self._compress()

    def _compress(self) -> None:
        for level in range(len(self.levels)):
            if len(self.levels[level]) >= self._cap(level):
                self._compact(level)
                return

    def _compact(self, level: int) -> None:
        items = sorted(self.levels[level])
        if len(items) < 2:
            return
        if level + 1 == len(self.levels):
            self.levels.append([])
            self._parity.append(False)
        # An odd item stays behind at its own level so no weight is lost.
        leftover: List[float] = []
        if len(items) % 2:
            leftover.append(items[-1])
            items = items[:-1]
        offset = 1 if self._parity[level] else 0
        self._parity[level] = not self._parity[level]
        self.levels[level] = leftover
        self.levels[level + 1].extend(items[offset::2])

    # -- queries -----------------------------------------------------------

    def _weighted_items(self) -> List[Tuple[float, int]]:
        items: List[Tuple[float, int]] = []
        for level, values in enumerate(self.levels):
            weight = 1 << level
            items.extend((value, weight) for value in values)
        items.sort(key=lambda pair: pair[0])
        return items

    def rank(self, value: float) -> int:
        """Estimated number of stream items ``<= value``."""
        total = 0
        for level, values in enumerate(self.levels):
            weight = 1 << level
            total += weight * sum(1 for item in values if item <= value)
        return total

    def cdf(self, value: float) -> float:
        return self.rank(value) / self.n if self.n else 0.0

    def quantile(self, fraction: float) -> float:
        """The value at rank ``fraction * n`` (0 < fraction <= 1)."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        items = self._weighted_items()
        if not items:
            return 0.0
        target = fraction * self.n
        cumulative = 0
        for value, weight in items:
            cumulative += weight
            if cumulative >= target:
                return value
        return items[-1][0]

    def quantiles(self, fractions: Sequence[float]) -> Dict[str, float]:
        """Several quantiles in one weighted pass, keyed ``"p50"``-style."""
        items = self._weighted_items()
        out: Dict[str, float] = {}
        if not items or not self.n:
            return {_fraction_label(q): 0.0 for q in fractions}
        cumulative: List[int] = []
        running = 0
        for _, weight in items:
            running += weight
            cumulative.append(running)
        for q in sorted(fractions):
            if not 0.0 < q <= 1.0:
                raise ValueError("fraction must be in (0, 1]")
            target = q * self.n
            index = bisect_left(cumulative, target)
            index = min(index, len(items) - 1)
            out[_fraction_label(q)] = items[index][0]
        return out

    # -- merge and state ---------------------------------------------------

    def merge(self, other: "QuantileSketch") -> None:
        while len(self.levels) < len(other.levels):
            self.levels.append([])
            self._parity.append(False)
        for level, values in enumerate(other.levels):
            self.levels[level].extend(values)
        self.n += other.n
        self.epsilon = max(self.epsilon, other.epsilon)
        while self._size() > self._budget():
            self._compress()

    def to_state(self) -> Dict[str, object]:
        return {
            "k": self.k,
            "epsilon": self.epsilon,
            "n": self.n,
            "levels": [list(level) for level in self.levels],
            "parity": [bool(flag) for flag in self._parity],
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "QuantileSketch":
        sketch = cls(k=int(state["k"]), epsilon=float(state["epsilon"]))
        sketch.n = int(state["n"])
        sketch.levels = [list(level) for level in state["levels"]]
        sketch._parity = [bool(flag) for flag in state["parity"]]
        if not sketch.levels:
            sketch.levels = [[]]
            sketch._parity = [False]
        return sketch


def _fraction_label(fraction: float) -> str:
    """``0.5`` → ``"p50"``; ``0.999`` → ``"p99.9"``."""
    percent = fraction * 100.0
    if abs(percent - round(percent)) < 1e-9:
        return f"p{int(round(percent))}"
    return f"p{percent:g}"
