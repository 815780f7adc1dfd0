"""K-buckets and the routing table."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.ids.keys import KEY_BITS, common_prefix_len
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


def key_sharing(owner, shared, low_bits):
    """A key sharing exactly ``shared`` leading bits with ``owner``, the
    bits below the first difference taken from ``low_bits`` (``owner``
    itself when ``shared`` is ``KEY_BITS``)."""
    if shared >= KEY_BITS:
        return owner
    shift = KEY_BITS - 1 - shared
    return owner ^ (1 << shift) ^ (low_bits & ((1 << shift) - 1))


ANY_KEY = st.integers(min_value=0, max_value=2**KEY_BITS - 1)
#: Uniform 256-bit low bits from a shrinkable seed (plain integer draws
#: favour 0 and other edge values, which leave every band in index order).
LOW_BITS = st.integers(0, 2**32).map(lambda seed: random.Random(seed).getrandbits(KEY_BITS))


class TestBucketAnswer:
    """``closest_keys`` reads its answer off the buckets: bucket ``b``
    (the owner's common-prefix length with the target), then every
    deeper bucket as one band cut by XOR, then ``b - 1``, ``b - 2``, ….
    It must equal a full XOR sort of the stored keys, as a set for
    :meth:`RoutingTable.closest_keys_unsorted` and in order for
    :meth:`RoutingTable.closest_keys`."""

    @settings(max_examples=1000, deadline=None)
    @given(
        owner=ANY_KEY,
        bucket_size=st.sampled_from([1, 2, 3, 5, 20]),
        # Prefix lengths 0..9 with gaps: full, under-full and empty buckets.
        entries=st.lists(st.tuples(st.integers(0, 9), LOW_BITS), max_size=70),
        removed=st.lists(st.integers(0, 69), max_size=10),
        count=st.integers(0, 25),
        data=st.data(),
    )
    def test_answer_is_the_full_xor_sort(self, owner, bucket_size, entries, removed, count, data):
        table = RoutingTable(owner, bucket_size=bucket_size)
        stored = [key_sharing(owner, shared, low) for shared, low in entries]
        for key in stored:
            table.add(key)
        for position in removed:
            if position < len(stored):
                table.remove(stored[position])
        # Targets sharing 0…depth+2 bits with the owner, or the owner itself.
        shared = data.draw(
            st.one_of(st.integers(0, table.max_bucket_index + 2), st.just(KEY_BITS)),
            label="target shares",
        )
        target = key_sharing(owner, shared, data.draw(LOW_BITS, label="target low bits"))
        expected = sorted(table.keys(), key=lambda key: key ^ target)[:count]
        assert table.closest_keys(target, count) == expected
        unsorted = table.closest_keys_unsorted(target, count)
        assert len(unsorted) == len(expected)
        assert set(unsorted) == set(expected)

    def test_deeper_band_is_cut_by_xor(self):
        """Bucket ``b`` is under-full and the deeper buckets hold more than
        the rest of the answer: the cut follows XOR, not bucket order.
        The target agrees with the owner at bit ``b + 1``, so bucket
        ``b + 2`` is closer than bucket ``b + 1``."""
        owner = 0
        target = key_sharing(owner, 1, 0)
        table = RoutingTable(owner, bucket_size=4)
        near = key_sharing(owner, 1, 1)
        deeper = [key_sharing(owner, shared, low) for shared in (2, 3) for low in (-1, 5, 0)]
        for key in [near, *deeper]:
            table.add(key)
        expected = sorted(table.keys(), key=lambda key: key ^ target)[:3]
        assert expected[0] == near
        assert {common_prefix_len(key, owner) for key in expected[1:]} == {3}
        assert table.closest_keys(target, 3) == expected
        assert set(table.closest_keys_unsorted(target, 3)) == set(expected)
