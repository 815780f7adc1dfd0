"""Zipf CID popularity: rank-weighted request sampling per content class.

Costa et al. find IPFS request popularity is heavily skewed — a few hot
CIDs draw most requests over a long tail of rarely-fetched content, with
the persistent platform catalogs (NFT assets and the like) forming the
flattest part of the tail.  :class:`ZipfPopularity` models one content
class: items ordered by rank get weight ``rank ** -s`` and requests are
drawn by inverse-CDF lookup.

Determinism: the cumulative weights are computed once with scalar Python
float ops, and a sample is one ``bisect_left`` of ``u * total`` into
them.
"""

from __future__ import annotations

import bisect
from typing import List, Sequence


class ZipfPopularity:
    """Rank-``s`` Zipf sampling over an ordered item sequence.

    ``items[0]`` is rank 1 (the hottest); weight of rank ``r`` is
    ``r ** -s``.  ``s`` around 1 reproduces the classic web-like skew;
    smaller ``s`` flattens toward the uniform long tail.
    """

    def __init__(self, items: Sequence, s: float) -> None:
        self.items: List = list(items)
        self.s = float(s)
        cumulative: List[float] = []
        total = 0.0
        for rank in range(1, len(self.items) + 1):
            total += rank ** -self.s
            cumulative.append(total)
        self._cumulative = cumulative
        self.total_weight = total

    def __len__(self) -> int:
        return len(self.items)

    def sample(self, u: float):
        """The item at the quantile ``u`` of the Zipf CDF (``None`` when
        the class is empty)."""
        if not self._cumulative:
            return None
        index = bisect.bisect_left(self._cumulative, u * self.total_weight)
        if index >= len(self.items):
            index = len(self.items) - 1
        return self.items[index]

    def top_share(self, fraction: float) -> float:
        """Share of the total request weight held by the top ``fraction``
        of ranks — the calibration headline (e.g. top-1% share)."""
        if not self._cumulative:
            return 0.0
        count = max(1, int(len(self.items) * fraction))
        return self._cumulative[count - 1] / self.total_weight


def rank_by_weight(items: Sequence) -> List:
    """Order catalog items for rank assignment: heaviest first, ties by
    insertion position (deterministic under any hash seed)."""
    return [
        item
        for _, item in sorted(
            enumerate(items), key=lambda pair: (-getattr(pair[1], "weight", 1.0), pair[0])
        )
    ]
