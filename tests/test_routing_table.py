"""K-buckets and the routing table."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.ids.keys import common_prefix_len
from repro.ids.peerid import PeerID
from repro.kademlia.routing_table import KBucket, RoutingTable


def make_peers(count, seed=0):
    rng = random.Random(seed)
    return [PeerID.generate(rng) for _ in range(count)]


def make_keys(count, seed=0):
    return [peer.dht_key for peer in make_peers(count, seed)]


class TestKBucket:
    def test_capacity_enforced(self):
        bucket = KBucket(capacity=3)
        peers = make_keys(5)
        accepted = [bucket.add(p) for p in peers]
        assert accepted == [True, True, True, False, False]
        assert len(bucket) == 3

    def test_reinsert_refreshes_position(self):
        bucket = KBucket(capacity=3)
        a, b, c = make_keys(3)
        for peer in (a, b, c):
            bucket.add(peer)
        assert bucket.oldest() == a
        assert bucket.add(a)  # already present: moves to freshest
        assert bucket.oldest() == b

    def test_remove(self):
        bucket = KBucket(capacity=2)
        a, b = make_keys(2, seed=1)
        bucket.add(a)
        assert bucket.remove(a)
        assert not bucket.remove(b)
        assert a not in bucket

    def test_oldest_empty(self):
        assert KBucket().oldest() is None


class TestRoutingTable:
    def test_never_stores_owner(self):
        owner = make_keys(1)[0]
        table = RoutingTable(owner)
        assert not table.add(owner)
        assert owner not in table

    def test_bucket_placement_by_prefix(self):
        owner, *others = make_keys(40, seed=2)
        table = RoutingTable(owner)
        for key in others:
            table.add(key)
        for key in table.keys():
            expected = common_prefix_len(owner, key)
            holding = [index for index in table.nonempty_buckets() if key in table.bucket(index)]
            assert holding == [expected]
            assert key in table.bucket(expected)

    def test_far_buckets_fill_first(self):
        """The trie shape of §3: far (low-index) buckets fill completely,
        near buckets stay sparse."""
        owner, *others = make_keys(3000, seed=3)
        table = RoutingTable(owner, bucket_size=20)
        for key in others:
            table.add(key)
        fullness = table.fullness()
        # Bucket 0 holds half the keyspace: certainly full.
        assert fullness[0] == 20
        assert fullness[1] == 20
        # Deepest occupied buckets hold few peers.
        deepest = max(fullness)
        assert fullness[deepest] < 20

    def test_full_bucket_rejects(self):
        owner = make_keys(1, seed=4)[0]
        table = RoutingTable(owner, bucket_size=1)
        added = sum(1 for key in make_keys(200, seed=5) if table.add(key))
        # With capacity 1 per bucket, at most one peer per prefix length.
        assert added == len(table.nonempty_buckets())

    def test_remove_updates_membership(self):
        owner, peer = make_keys(2, seed=6)
        table = RoutingTable(owner)
        table.add(peer)
        assert table.remove(peer)
        assert peer not in table
        assert not table.remove(peer)
        assert len(table) == 0

    def test_closest_returns_sorted_by_xor(self):
        owner, *others = make_keys(100, seed=7)
        table = RoutingTable(owner)
        for key in others:
            table.add(key)
        target = make_keys(1, seed=8)[0]
        closest = table.closest_keys(target, 10)
        distances = [key ^ target for key in closest]
        assert distances == sorted(distances)
        # And they are the true closest among stored peers.
        all_distances = sorted(key ^ target for key in table.keys())
        assert distances == all_distances[:10]

    @settings(max_examples=25)
    @given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=30))
    def test_closest_never_exceeds_count(self, seed, count):
        rng = random.Random(seed)
        owner = PeerID.generate(rng).dht_key
        table = RoutingTable(owner)
        for _ in range(50):
            table.add(PeerID.generate(rng).dht_key)
        result = table.closest_keys(rng.getrandbits(256), count)
        assert len(result) == min(count, len(table))
        assert len(set(result)) == len(result)

    def test_max_bucket_index_empty_table(self):
        owner = make_keys(1, seed=9)[0]
        assert RoutingTable(owner).max_bucket_index == 0
