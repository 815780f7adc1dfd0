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

Vectorized path: alongside the authoritative bigint key list the oracle
maintains a parallel ``uint64`` array of each key's top 64 bits (same
sort order).  For prefix lengths ≤ 64 a prefix range's bounds are fully
determined by those top bits — the range spans ≥ 2**192 values, so its
endpoints have all-zero / all-one low bits — which lets
:meth:`bucket_bounds_top64` answer *all* routing-table bucket bounds for
one node in a single ``searchsorted`` call instead of 2×256 bigint
bisects.  Results are exact (ties on the top-64 bits are detected and
reported so callers fall back to the scalar path); see
``tests/test_soa_properties.py`` for the brute-force pin.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

from repro.ids.keys import KEY_BITS, select_closest
from repro.ids.peerid import PeerID
from repro.netsim.soa import HAVE_NUMPY, np

#: How many leading key bits the uint64 mirror captures.
MIRROR_BITS = 64
_MIRROR_SHIFT = KEY_BITS - MIRROR_BITS

if HAVE_NUMPY:
    #: per-bucket shift amounts / range spans, hoisted out of the
    #: per-join :meth:`KeyspaceOracle.bucket_bounds_top64` hot path.
    _SHIFTS = np.arange(MIRROR_BITS - 1, -1, -1, dtype=np.uint64)
    _SPANS_MINUS1 = (np.uint64(1) << _SHIFTS) - np.uint64(1)
else:  # pragma: no cover - the numpy-less CI lane
    _SHIFTS = _SPANS_MINUS1 = None


class KeyspaceOracle:
    """Sorted (dht_key, peer) index of online DHT servers."""

    def __init__(self) -> None:
        self._keys: List[int] = []
        self._by_key: Dict[int, PeerID] = {}
        #: bumped on every membership change; callers may cache query
        #: results keyed on this counter (e.g. per-CID resolver sets).
        self.generation = 0
        #: parallel uint64 array of ``key >> 192`` in the same sort order
        #: (numpy-gated; ``None`` keeps every scalar path intact).
        self._mirror = None
        self._mirror_len = 0

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
        if HAVE_NUMPY:
            self._mirror_insert(index, key >> _MIRROR_SHIFT)
        self.generation += 1

    def remove(self, peer: PeerID) -> None:
        key = peer.dht_key
        if self._by_key.get(key) != peer:
            return
        del self._by_key[key]
        index = bisect_left(self._keys, key)
        if index < len(self._keys) and self._keys[index] == key:
            del self._keys[index]
            if self._mirror is not None:
                self._mirror_delete(index)
        self.generation += 1

    # -- uint64 mirror maintenance -----------------------------------------

    def _mirror_insert(self, index: int, top: int) -> None:
        buffer = self._mirror
        length = self._mirror_len
        if buffer is None or length == len(buffer):
            capacity = max(64, 2 * (0 if buffer is None else len(buffer)))
            grown = np.empty(capacity, dtype=np.uint64)
            if buffer is not None:
                grown[:length] = buffer[:length]
            self._mirror = buffer = grown
        if index < length:
            buffer[index + 1 : length + 1] = buffer[index:length]
        buffer[index] = top
        self._mirror_len = length + 1

    def _mirror_delete(self, index: int) -> None:
        buffer = self._mirror
        length = self._mirror_len
        buffer[index : length - 1] = buffer[index + 1 : length]
        self._mirror_len = length - 1

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

    def bucket_bounds_top64(self, own_key: int):
        """All k-bucket subtree bounds around ``own_key`` in one shot.

        Returns ``(lows, highs)`` lists where entry ``b`` holds the
        ``[low, high)`` index bounds of bucket ``b``'s subtree (prefix
        length ``b + 1``) for ``b`` in ``0..63`` — exactly what
        :meth:`range_bounds` computes per bucket, via one vectorized
        ``searchsorted`` over the uint64 mirror.  Buckets ≥ 64 are
        provably empty in the returned regime: the method returns
        ``None`` (caller falls back to the scalar path) whenever any
        *other* key shares ``own_key``'s top 64 bits, so every deeper
        subtree around ``own_key`` contains no foreign keys.  Also
        returns ``None`` when numpy is unavailable.
        """
        if self._mirror is None:
            return None
        length = self._mirror_len
        view = self._mirror[:length]
        own_top = own_key >> _MIRROR_SHIFT
        own_top_u = np.uint64(own_top)
        tie_low = int(np.searchsorted(view, own_top_u, side="left"))
        tie_high = int(np.searchsorted(view, own_top_u, side="right"))
        ties = tie_high - tie_low
        if ties > (1 if own_key in self._by_key else 0):
            return None
        bases = ((own_top_u >> _SHIFTS) ^ np.uint64(1)) << _SHIFTS
        # last key of each range: base + span - 1 (never overflows: the
        # base's low ``shift`` bits are zero).
        lasts = bases + _SPANS_MINUS1
        lows = np.searchsorted(view, bases, side="left")
        highs = np.searchsorted(view, lasts, side="right")
        return lows.tolist(), highs.tolist()

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
        return self.sample_bounds_info(low_index, high_index, count, rng)

    def sample_bounds_info(
        self, low_index: int, high_index: int, count: int, rng
    ) -> Tuple[List[int], bool]:
        """:meth:`sample_range_info` over precomputed index bounds (the
        vectorized refresh path gets its bounds from
        :meth:`bucket_bounds_top64`)."""
        size = high_index - low_index
        if size <= 0:
            return [], False
        if size <= count:
            return self._keys[low_index:high_index], False
        keys = self._keys
        return [keys[index] for index in rng.sample(range(low_index, high_index), count)], True
