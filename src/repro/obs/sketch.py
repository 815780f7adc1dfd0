"""Mergeable streaming sketches for live campaign analytics.

Every headline figure in the paper (§4-§6) is a share, a CCDF tail or a
heavy-hitter ranking — all of which have classic bounded-memory streaming
summaries.  This module provides the zero-dependency sketch substrate the
:mod:`repro.obs.stream` engine is built on:

* :class:`SpaceSaving` — the Metwally et al. top-K heavy-hitter summary
  (peer IDs, IPs, CIDs).  Every tracked key carries an overestimation
  bound; merging follows the parallel-Space-Saving rule (minimum-count
  floors absorb possible evicted mass), so tracked keys keep the
  classic ``error ≤ total / capacity`` guarantee across merges.
* :class:`QuantileSketch` — a KLL-style compactor hierarchy for rank /
  quantile / CCDF queries over unbounded value streams, with
  *deterministic* alternating compaction (no RNG: the same update
  sequence always yields the same state, which is what the workers=1 ≡
  workers=N parity pins rely on).  ``epsilon`` is the sketch's declared
  rank-error target; the test suite verifies observed error stays inside
  it across distributions, sizes and merge plans.
* :class:`LinearCounter` — a linear-counting bitmap for distinct-count
  estimates (how many peers are behind the traffic), mergeable by OR.
  Keys are hashed with BLAKE2b, never ``hash()``, so estimates are
  independent of ``PYTHONHASHSEED``.

Exact counts are not kept here: the §5 shares come from the monitors'
:class:`~repro.core.traffic.LogSummary` folds.

All sketches are keyed by *stable strings* (base58 peer IDs, dotted
IPs, base32 CIDs), serialize to JSON-compatible state dicts
(``to_state`` / ``from_state``) and merge deterministically: folding
per-worker states in a fixed (crawl) order produces bit-identical merged
state no matter which process produced each part.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from bisect import bisect_left
from typing import Dict, List, Sequence, Tuple

__all__ = [
    "LinearCounter",
    "QuantileSketch",
    "SpaceSaving",
]


# ---------------------------------------------------------------------------
# Space-Saving heavy hitters
# ---------------------------------------------------------------------------


class SpaceSaving:
    """Top-K heavy hitters with per-key overestimation bounds.

    Tracks at most ``capacity`` keys.  A new key arriving at a full
    summary evicts the current minimum and inherits its count as its
    error bound — the Space-Saving rule — so for every tracked key::

        true_count <= count  and  count - error <= true_count

    and for every key (tracked or not) the absolute error is bounded by
    ``total / capacity``.  Merging follows the parallel-Space-Saving
    rule: counts and error bounds add, and a key present in only one
    summary absorbs the *other* summary's minimum count (its possible
    evicted mass) into both count and error before the union is
    truncated back to ``capacity`` (largest counts first, ties broken
    by ascending error then key).  After a merge, tracked keys keep the
    invariant above with ``error ≤ total / capacity``; an untracked
    key's true count is bounded by ``2 · total / capacity``.
    """

    __slots__ = ("capacity", "total", "_counts", "_errors", "_heap", "_seq")

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError("SpaceSaving capacity must be >= 1")
        self.capacity = capacity
        self.total = 0
        self._counts: Dict[str, int] = {}
        self._errors: Dict[str, int] = {}
        #: lazy min-heap of (count, seq, key); stale entries (count no
        #: longer current) are dropped or refreshed at eviction time.
        self._heap: List[Tuple[int, int, str]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._counts)

    def update(self, key: str, amount: int = 1) -> None:
        self.total += amount
        counts = self._counts
        current = counts.get(key)
        if current is not None:
            counts[key] = current + amount
            return
        if len(counts) < self.capacity:
            counts[key] = amount
            self._errors[key] = 0
            self._seq += 1
            heapq.heappush(self._heap, (amount, self._seq, key))
            return
        evicted, floor = self._pop_min()
        del counts[evicted]
        del self._errors[evicted]
        counts[key] = floor + amount
        self._errors[key] = floor
        self._seq += 1
        heapq.heappush(self._heap, (floor + amount, self._seq, key))

    def _pop_min(self) -> Tuple[str, int]:
        """Pop the key with the smallest *current* count (lazy heap)."""
        heap = self._heap
        counts = self._counts
        while True:
            count, seq, key = heap[0]
            current = counts.get(key)
            if current == count:
                heapq.heappop(heap)
                return key, count
            heapq.heappop(heap)
            if current is not None:
                # refreshed entry keeps its insertion sequence so ties
                # stay deterministic
                heapq.heappush(heap, (current, seq, key))

    def count(self, key: str) -> int:
        """The (over-)estimated count for ``key`` (0 if untracked)."""
        return self._counts.get(key, 0)

    def error(self, key: str) -> int:
        return self._errors.get(key, 0)

    @property
    def max_error(self) -> float:
        """Upper bound on any key's estimation error."""
        return self.total / self.capacity if self.capacity else 0.0

    def top(self, k: int) -> List[Tuple[str, int, int]]:
        """The ``k`` largest entries as ``(key, count, error)``, ordered
        by descending count (ties: ascending error, then key)."""
        entries = [
            (key, count, self._errors[key]) for key, count in self._counts.items()
        ]
        entries.sort(key=lambda entry: (-entry[1], entry[2], entry[0]))
        return entries[:k]

    def top_sum(self, k: int) -> int:
        """Summed counts of the ``k`` largest entries."""
        return sum(count for _, count, _ in self.top(k))

    def _min_floor(self) -> int:
        """The largest count an *untracked* key could have accumulated
        in this summary: the minimum tracked count when the summary is
        full (an eviction may have absorbed the key's mass), zero when
        it never evicted (absent means never seen)."""
        if len(self._counts) < self.capacity:
            return 0
        return min(self._counts.values())

    def merge(self, other: "SpaceSaving") -> None:
        """Fold ``other`` into this summary (deterministic).

        Keys present on one side only absorb the other side's
        :meth:`_min_floor` into count and error — without it a key
        evicted from one part would merge as a plain underestimate and
        truncation could drop it while its true count still exceeded
        ``total / capacity`` (the parallel-Space-Saving correction).
        """
        self_floor = self._min_floor()
        other_floor = other._min_floor()
        counts = self._counts
        errors = self._errors
        other_counts = other._counts
        for key, count in other_counts.items():
            if key in counts:
                counts[key] += count
                errors[key] += other._errors[key]
            else:
                counts[key] = count + self_floor
                errors[key] = other._errors[key] + self_floor
        if other_floor:
            for key in counts:
                if key not in other_counts:
                    counts[key] += other_floor
                    errors[key] += other_floor
        self.total += other.total
        if len(counts) > self.capacity:
            ranked = sorted(
                counts.items(), key=lambda item: (-item[1], errors[item[0]], item[0])
            )
            keep = ranked[: self.capacity]
            self._counts = {key: count for key, count in keep}
            self._errors = {key: errors[key] for key, _ in keep}
        self._rebuild_heap()

    def _rebuild_heap(self) -> None:
        self._seq = len(self._counts)
        self._heap = [
            (count, seq, key)
            for seq, (key, count) in enumerate(self._counts.items())
        ]
        heapq.heapify(self._heap)

    # -- state -------------------------------------------------------------

    def to_state(self) -> Dict[str, object]:
        return {
            "capacity": self.capacity,
            "total": self.total,
            "entries": [
                [key, count, self._errors[key]]
                for key, count in self._counts.items()
            ],
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "SpaceSaving":
        sketch = cls(capacity=int(state["capacity"]))
        sketch.total = int(state["total"])
        for key, count, error in state["entries"]:
            sketch._counts[key] = int(count)
            sketch._errors[key] = int(error)
        sketch._rebuild_heap()
        return sketch


# ---------------------------------------------------------------------------
# KLL-style quantile sketch (deterministic compaction)
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# linear-counting distinct estimator
# ---------------------------------------------------------------------------


class LinearCounter:
    """Distinct-count estimate via a linear-counting bitmap.

    ``estimate = -m * ln(zero_bits / m)`` over an ``m``-bit map, accurate
    to ~1 % while the load factor stays moderate (distinct counts up to a
    few times ``m`` — the default 32768 bits covers the fixture-scale
    peer/IP populations; at saturation the estimate degrades, which the
    snapshot reports via ``saturated``).  Merging is bitwise OR.  Hashing
    is BLAKE2b of the key string, so estimates are reproducible across
    processes and ``PYTHONHASHSEED`` values.
    """

    __slots__ = ("bits", "_map")

    def __init__(self, bits: int = 1 << 15) -> None:
        if bits < 64 or bits & 7:
            raise ValueError("LinearCounter bits must be >= 64 and a multiple of 8")
        self.bits = bits
        self._map = bytearray(bits >> 3)

    def update(self, key: str) -> None:
        digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
        position = int.from_bytes(digest, "big") % self.bits
        self._map[position >> 3] |= 1 << (position & 7)

    def _ones(self) -> int:
        return int.from_bytes(self._map, "little").bit_count()

    @property
    def saturated(self) -> bool:
        return self._ones() >= self.bits - max(1, self.bits // 256)

    def estimate(self) -> float:
        zeros = self.bits - self._ones()
        if zeros <= 0:
            return float(self.bits * 8)  # saturated: report a floor
        return -self.bits * math.log(zeros / self.bits)

    def merge(self, other: "LinearCounter") -> None:
        if other.bits != self.bits:
            raise ValueError("cannot merge LinearCounters of different widths")
        self._map = bytearray(a | b for a, b in zip(self._map, other._map))

    def to_state(self) -> Dict[str, object]:
        return {"bits": self.bits, "map": self._map.hex()}

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "LinearCounter":
        counter = cls(bits=int(state["bits"]))
        counter._map = bytearray(bytes.fromhex(state["map"]))
        return counter

