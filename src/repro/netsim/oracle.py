"""A sorted index over the online DHT-server keyspace.

Several simulation steps need "the k XOR-closest online servers to a key":
provider-record placement, routing-table construction and refresh.  Running
a full iterative walk for each would be prohibitively slow at network
scale, and — crucially — the *result* of a healthy Kademlia walk is exactly
the set this index returns.  The exact walk remains available in
:mod:`repro.kademlia.lookup` and is used by the measurement code paths
(crawler, provider fetcher); the oracle is the fast path for *network-side*
behaviour.  DESIGN.md documents this substitution.

The XOR-closest query (shared with :func:`repro.ids.keys.select_closest`)
exploits a property of the metric: the k closest keys to a target all lie
inside the smallest *aligned binary subtree* (prefix range) around the
target containing at least k keys, and prefix ranges are contiguous in
sorted order.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Tuple

from repro.ids.keys import KEY_BITS, select_closest
from repro.ids.peerid import PeerID


class KeyspaceOracle:
    """Sorted (dht_key, peer) index of online DHT servers."""

    def __init__(self) -> None:
        self._keys: List[int] = []
        self._by_key: Dict[int, PeerID] = {}
        #: bumped on every membership change; callers may cache query
        #: results keyed on this counter (e.g. per-CID resolver sets).
        self.generation = 0

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, peer: PeerID) -> bool:
        return self._by_key.get(peer.dht_key) == peer

    def add(self, peer: PeerID) -> None:
        key = peer.dht_key
        if key in self._by_key:
            if self._by_key[key] != peer:
                raise ValueError("DHT key collision between distinct peers")
            return
        self._by_key[key] = peer
        index = bisect_left(self._keys, key)
        self._keys.insert(index, key)
        self.generation += 1

    def remove(self, peer: PeerID) -> None:
        key = peer.dht_key
        if self._by_key.get(key) != peer:
            return
        del self._by_key[key]
        index = bisect_left(self._keys, key)
        if index < len(self._keys) and self._keys[index] == key:
            del self._keys[index]
        self.generation += 1

    def peers(self) -> List[PeerID]:
        return [self._by_key[key] for key in self._keys]

    def closest(self, target: int, count: int) -> List[PeerID]:
        """The ``count`` online servers XOR-closest to ``target``."""
        by_key = self._by_key
        return [by_key[key] for key in select_closest(self._keys, target, count)]

    def closest_keys(self, target: int, count: int) -> List[int]:
        """:meth:`closest` as DHT keys."""
        return select_closest(self._keys, target, count)

    def range_bounds(self, prefix: int, prefix_len: int) -> Tuple[int, int]:
        """Index bounds ``[low, high)`` of the keys sharing ``prefix``."""
        if prefix_len <= 0:
            return 0, len(self._keys)
        shift = KEY_BITS - prefix_len
        base = (prefix >> shift) << shift
        low_index = bisect_left(self._keys, base)
        high_index = bisect_left(self._keys, base + (1 << shift))
        return low_index, high_index

    def sample_range(self, prefix: int, prefix_len: int, count: int, rng) -> List[int]:
        """Up to ``count`` random online server keys sharing the given
        prefix — the population of one k-bucket subtree."""
        return self.sample_range_info(prefix, prefix_len, count, rng)[0]

    def sample_range_info(
        self, prefix: int, prefix_len: int, count: int, rng
    ) -> Tuple[List[int], bool]:
        """Like :meth:`sample_range`, also reporting whether ``rng`` was
        consumed (it is drawn from only when the subtree population
        exceeds ``count``) — the refresh-skip bookkeeping needs this to
        prove a maintenance pass was a no-op."""
        low_index, high_index = self.range_bounds(prefix, prefix_len)
        size = high_index - low_index
        if size <= 0:
            return [], False
        if size <= count:
            return self._keys[low_index:high_index], False
        keys = self._keys
        return [keys[index] for index in rng.sample(range(low_index, high_index), count)], True
