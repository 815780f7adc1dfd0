"""K-buckets and the Kademlia routing table.

A node with address ``a_n`` stores its outbound DHT connections in
k-buckets, which form a view of the network as a binary trie.  Buckets have
a fixed capacity of ``k`` connections, which generally leads to the first,
furthest buckets being filled completely, whereas buckets closer to ``a_n``
tend to contain fewer and fewer connections (paper §3).  Only peers
providing DHT *server* functionality are stored in the buckets.

Entries are DHT keys (a server's key is unique to its peer ID): every
maintenance path — joins, refreshes, evictions, self-insertion — runs on
plain ints, and the overlay maps a key back to its peer ID only where an
observer sees peer IDs (crawl snapshots, in-degrees).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.ids.keys import KEY_BITS

DEFAULT_BUCKET_SIZE = 20


class KBucket(dict):
    """A single k-bucket: an ordered set of DHT keys, least-recently seen
    first (the dict's insertion order; values are unused).

    Kademlia's replacement policy keeps long-lived peers (they are the most
    likely to stay alive), so new peers are rejected when the bucket is
    full rather than evicting an existing live entry.
    """

    __slots__ = ("capacity",)

    def __init__(self, capacity: int = DEFAULT_BUCKET_SIZE) -> None:
        super().__init__()
        self.capacity = capacity

    @property
    def is_full(self) -> bool:
        return len(self) >= self.capacity

    def add(self, key: int) -> bool:
        """Insert ``key``; refresh its position if already present.

        Returns ``True`` if the key is in the bucket afterwards.
        """
        if key in self:
            # Move to most-recently-seen position.
            del self[key]
            self[key] = None
            return True
        if len(self) >= self.capacity:
            return False
        self[key] = None
        return True

    def remove(self, key: int) -> bool:
        """Drop ``key`` (e.g. it failed to respond). Returns whether present."""
        if key in self:
            del self[key]
            return True
        return False

    def oldest(self) -> Optional[int]:
        """Least-recently seen key, or ``None`` if empty."""
        return next(iter(self), None)


class RoutingTable:
    """The per-node Kademlia routing table, over DHT keys.

    Bucket ``i`` holds keys sharing exactly ``i`` leading bits with the
    owner's key.  go-libp2p-kad-dht unfolds buckets lazily; we keep a
    list of buckets indexed by prefix length, grown to the deepest one
    touched, which is equivalent for every operation the paper's
    measurements exercise (in particular the crawler's bucket-sweep
    enumeration).
    """

    __slots__ = ("owner_key", "bucket_size", "_buckets", "_bucket_of")

    def __init__(self, owner_key: int, bucket_size: int = DEFAULT_BUCKET_SIZE) -> None:
        self.owner_key = owner_key
        self.bucket_size = bucket_size
        self._buckets: List[KBucket] = []
        #: stored key -> its bucket index, in first-stored order.
        self._bucket_of: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._bucket_of)

    def __contains__(self, key: int) -> bool:
        return key in self._bucket_of

    def bucket(self, index: int) -> KBucket:
        """The bucket at ``index``, created (with any shallower ones
        missing) on first touch."""
        buckets = self._buckets
        while len(buckets) <= index:
            buckets.append(KBucket(self.bucket_size))
        return buckets[index]

    def add(self, key: int) -> bool:
        """Try to insert ``key``; returns whether it is stored.

        A stored key moves to its bucket's most-recently-seen end.  The
        owner's key is never stored.  A full bucket rejects the insertion
        (classic Kademlia keeps the incumbent).
        """
        owner = self.owner_key
        if key == owner:
            return False
        index = KEY_BITS - (owner ^ key).bit_length()
        bucket = self.bucket(index)
        if key in bucket:
            return bucket.add(key)
        return bool(self.top_up(index, (key,)))

    def top_up(self, index: int, keys: Iterable[int]) -> List[int]:
        """Store each of ``keys`` (all from bucket ``index``'s subtree)
        that the bucket does not hold yet, while it has room.

        Held keys keep their position.  Returns the newly stored keys in
        order — what :meth:`add` of each key not yet in the bucket would
        have accepted.
        """
        bucket = self.bucket(index)
        room = self.bucket_size - len(bucket)
        stored: List[int] = []
        if room <= 0:
            return stored
        bucket_of = self._bucket_of
        for key in keys:
            if key not in bucket:
                bucket[key] = None
                bucket_of[key] = index
                stored.append(key)
                room -= 1
                if not room:
                    break
        return stored

    def remove(self, key: int) -> bool:
        """Remove a key (stale/dead entry). Returns whether it was present."""
        index = self._bucket_of.pop(key, None)
        if index is None:
            return False
        del self._buckets[index][key]
        return True

    def keys(self) -> List[int]:
        """All stored keys (the node's complete outbound DHT view), in
        the order they were first stored."""
        return list(self._bucket_of)

    def nonempty_buckets(self) -> List[int]:
        """Indices of buckets currently holding at least one key."""
        return [index for index, bucket in enumerate(self._buckets) if bucket]

    def closest_keys(self, key: int, count: int) -> List[int]:
        """The ``count`` stored keys closest (XOR) to ``key``, closest
        first: :meth:`closest_keys_unsorted`, sorted."""
        closest = self.closest_keys_unsorted(key, count)
        closest.sort(key=key.__xor__)
        return closest

    def closest_keys_unsorted(self, key: int, count: int) -> List[int]:
        """The ``count`` stored keys closest (XOR) to ``key``, in no set
        order — what a FIND_NODE handler returns, read off the buckets.

        Let ``b`` (``depth`` below) be the common-prefix length of the
        owner and ``key``.
        Every key in bucket ``b`` shares at least ``b + 1`` bits with
        ``key``, so it is closer than any other stored key.  The keys of
        all deeper buckets come next: each shares exactly ``b`` bits with
        ``key``.  Then buckets ``b - 1``, ``b - 2``, … follow, one band
        further out each.  Bands are taken whole while they fit; the band
        that overflows is cut by XOR distance.
        """
        if len(self._bucket_of) <= count:
            return list(self._bucket_of)
        if count <= 0:
            return []
        buckets = self._buckets
        depth = KEY_BITS - (self.owner_key ^ key).bit_length()
        closest: List[int] = []
        need = count
        if depth < len(buckets):
            band = buckets[depth]
            if len(band) >= need:
                return _nearest(band, key, need)
            closest += band
            need -= len(band)
            band = [stored for bucket in buckets[depth + 1 :] for stored in bucket]
            if len(band) >= need:
                return closest + _nearest(band, key, need)
            closest += band
            need -= len(band)
        for band in reversed(buckets[:depth]):
            if len(band) >= need:
                return closest + _nearest(band, key, need)
            closest += band
            need -= len(band)
        return closest

    def fullness(self) -> Dict[int, int]:
        """Occupancy per bucket index — useful to verify the trie shape."""
        return {index: len(bucket) for index, bucket in enumerate(self._buckets) if bucket}

    @property
    def max_bucket_index(self) -> int:
        """Deepest non-empty bucket (0 when the table is empty)."""
        indices = self.nonempty_buckets()
        return indices[-1] if indices else 0


def _nearest(band: Iterable[int], key: int, count: int) -> List[int]:
    """The ``count`` keys of ``band`` closest (XOR) to ``key``; ``band``
    holds at least ``count`` keys."""
    keys = list(band)
    if len(keys) > count:
        keys.sort(key=key.__xor__)
        del keys[count:]
    return keys
