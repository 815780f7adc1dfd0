"""K-buckets and the Kademlia routing table.

A node with address ``a_n`` stores its outbound DHT connections in
k-buckets, which form a view of the network as a binary trie.  Buckets have
a fixed capacity of ``k`` connections, which generally leads to the first,
furthest buckets being filled completely, whereas buckets closer to ``a_n``
tend to contain fewer and fewer connections (paper §3).  Only peers
providing DHT *server* functionality are stored in the buckets.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.ids.keys import KEY_BITS, bucket_index, select_closest
from repro.ids.peerid import PeerID

DEFAULT_BUCKET_SIZE = 20


@dataclass
class KBucket:
    """A single k-bucket: an ordered set of peers, least-recently seen first.

    Kademlia's replacement policy keeps long-lived peers (they are the most
    likely to stay alive), so new peers are rejected when the bucket is
    full rather than evicting an existing live entry.
    """

    capacity: int = DEFAULT_BUCKET_SIZE
    _peers: Dict[PeerID, None] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self._peers)

    def __contains__(self, peer: PeerID) -> bool:
        return peer in self._peers

    def __iter__(self) -> Iterator[PeerID]:
        return iter(self._peers)

    @property
    def is_full(self) -> bool:
        return len(self._peers) >= self.capacity

    def add(self, peer: PeerID) -> bool:
        """Insert ``peer``; refresh its position if already present.

        Returns ``True`` if the peer is in the bucket afterwards.
        """
        if peer in self._peers:
            # Move to most-recently-seen position.
            del self._peers[peer]
            self._peers[peer] = None
            return True
        if self.is_full:
            return False
        self._peers[peer] = None
        return True

    def remove(self, peer: PeerID) -> bool:
        """Drop ``peer`` (e.g. it failed to respond). Returns whether present."""
        if peer in self._peers:
            del self._peers[peer]
            return True
        return False

    def oldest(self) -> Optional[PeerID]:
        """Least-recently seen peer, or ``None`` if empty."""
        return next(iter(self._peers), None)

    def peers(self) -> List[PeerID]:
        return list(self._peers)


class RoutingTable:
    """The per-node Kademlia routing table.

    Bucket ``i`` holds peers sharing exactly ``i`` leading bits with the
    owner's DHT key.  go-libp2p-kad-dht unfolds buckets lazily; we keep a
    sparse dict of buckets keyed by prefix length, which is equivalent for
    every operation the paper's measurements exercise (in particular the
    crawler's bucket-sweep enumeration).
    """

    def __init__(self, owner: PeerID, bucket_size: int = DEFAULT_BUCKET_SIZE) -> None:
        self.owner = owner
        self.bucket_size = bucket_size
        self._buckets: Dict[int, KBucket] = {}
        self._peer_buckets: Dict[PeerID, int] = {}
        # Sorted DHT-key index over the stored peers, so ``closest`` can
        # use the aligned-prefix-range query instead of a full sort.
        self._sorted_keys: List[int] = []
        self._peer_by_key: Dict[int, PeerID] = {}
        # Distinct peers sharing a DHT key never occur with SHA-256-derived
        # keys, but the index would silently drop one; fall back to the
        # exact full sort if it ever happens.
        self._key_collision = False

    def __len__(self) -> int:
        return len(self._peer_buckets)

    def __contains__(self, peer: PeerID) -> bool:
        return peer in self._peer_buckets

    def bucket_index_for(self, peer: PeerID) -> int:
        """Which bucket ``peer`` belongs in (by common prefix length)."""
        return bucket_index(self.owner.dht_key, peer.dht_key)

    def bucket(self, index: int) -> KBucket:
        """The bucket at ``index``, created on first touch."""
        if index not in self._buckets:
            self._buckets[index] = KBucket(capacity=self.bucket_size)
        return self._buckets[index]

    def add(self, peer: PeerID) -> bool:
        """Try to insert ``peer``; returns whether it is stored.

        The owner itself is never stored.  A full bucket rejects the
        insertion (classic Kademlia keeps the incumbent).
        """
        if peer == self.owner:
            return False
        index = self.bucket_index_for(peer)
        added = self.bucket(index).add(peer)
        if added and peer not in self._peer_buckets:
            key = peer.dht_key
            incumbent = self._peer_by_key.get(key)
            if incumbent is None:
                self._peer_by_key[key] = peer
                insort(self._sorted_keys, key)
            elif incumbent != peer:
                self._key_collision = True
            self._peer_buckets[peer] = index
        return added

    def remove(self, peer: PeerID) -> bool:
        """Remove a peer (stale/dead entry). Returns whether it was present."""
        index = self._peer_buckets.pop(peer, None)
        if index is None:
            return False
        key = peer.dht_key
        if self._peer_by_key.get(key) == peer:
            del self._peer_by_key[key]
            position = bisect_left(self._sorted_keys, key)
            if position < len(self._sorted_keys) and self._sorted_keys[position] == key:
                del self._sorted_keys[position]
        return self._buckets[index].remove(peer)

    def peers(self) -> List[PeerID]:
        """All stored peers (the node's complete outbound DHT view)."""
        return list(self._peer_buckets)

    def nonempty_buckets(self) -> List[int]:
        """Indices of buckets currently holding at least one peer."""
        return sorted(index for index, bucket in self._buckets.items() if len(bucket) > 0)

    def closest(self, key: int, count: int) -> List[PeerID]:
        """The ``count`` stored peers closest (XOR) to ``key``.

        This is what a FIND_NODE handler returns.  The sorted key index
        answers it via an aligned-prefix-range scan — identical output to
        a full XOR sort over all entries, without the per-call sort.
        """
        if self._key_collision:
            return sorted(self._peer_buckets, key=lambda peer: peer.dht_key ^ key)[:count]
        by_key = self._peer_by_key
        return [by_key[k] for k in select_closest(self._sorted_keys, key, count)]

    def closest_keys(self, key: int, count: int) -> List[int]:
        """:meth:`closest` as DHT keys — the FIND_NODE answer the
        key-based lookup walks consume, with no peer objects built."""
        if self._key_collision:
            return [peer.dht_key for peer in self.closest(key, count)]
        return select_closest(self._sorted_keys, key, count)

    def fullness(self) -> Dict[int, int]:
        """Occupancy per bucket index — useful to verify the trie shape."""
        return {index: len(bucket) for index, bucket in self._buckets.items() if len(bucket) > 0}

    @property
    def max_bucket_index(self) -> int:
        """Deepest non-empty bucket (0 when the table is empty)."""
        indices = self.nonempty_buckets()
        return indices[-1] if indices else 0

    @staticmethod
    def num_possible_buckets() -> int:
        return KEY_BITS
