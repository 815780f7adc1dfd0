"""Property-based tests on core data structures and invariants."""

import random
from bisect import bisect_left

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.exec.seeds import derive_seed
from repro.ids import encoding, keys
from repro.ids.cid import CID
from repro.ids.multiaddr import Multiaddr
from repro.ids.peerid import PeerID
from repro.ipns.records import IPNSKeyPair, IPNSRecord
from repro.kademlia.lookup import iterative_find_node
from repro.kademlia.providers import ProviderRecord
from repro.kademlia.routing_table import RoutingTable
from repro.netsim.network import ProviderRegistry
from repro.netsim.node import OrderedCIDSet
from repro.netsim.oracle import KeyspaceOracle
from repro.core.pareto import pareto_curve, top_share


def peer_from_tag(tag: int) -> PeerID:
    return PeerID((tag % (2**256)).to_bytes(32, "big"))


class TestRoutingTableProperties:
    @settings(max_examples=40)
    @given(st.lists(st.integers(min_value=1, max_value=10_000), max_size=120),
           st.integers(min_value=1, max_value=25))
    def test_bucket_capacity_invariant(self, tags, bucket_size):
        owner = peer_from_tag(999_999_999).dht_key
        table = RoutingTable(owner, bucket_size=bucket_size)
        for tag in tags:
            table.add(peer_from_tag(tag).dht_key)
        for index in table.nonempty_buckets():
            assert len(table.bucket(index)) <= bucket_size
        # The membership index agrees with the buckets.
        assert sorted(table.keys()) == sorted(
            key for index in table.nonempty_buckets() for key in table.bucket(index)
        )

    @settings(max_examples=40)
    @given(st.lists(st.tuples(st.booleans(), st.integers(min_value=1, max_value=40)),
                    max_size=150))
    def test_add_remove_sequences_match_reference_set(self, operations):
        owner = peer_from_tag(123_456).dht_key
        table = RoutingTable(owner, bucket_size=1000)  # capacity never binds
        reference = set()
        for is_add, tag in operations:
            key = peer_from_tag(tag).dht_key
            if key == owner:
                continue
            if is_add:
                table.add(key)
                reference.add(key)
            else:
                table.remove(key)
                reference.discard(key)
        assert set(table.keys()) == reference

    @settings(max_examples=40)
    @given(st.lists(st.tuples(st.sampled_from(["add", "remove", "query"]),
                              st.integers(min_value=1, max_value=40)), max_size=150),
           st.integers(min_value=0, max_value=2**256 - 1))
    def test_closest_keys_track_adds_and_removes(self, operations, target):
        """``closest_keys`` stays exact across adds and removes made
        before and after its first query."""
        owner = peer_from_tag(123_456).dht_key
        table = RoutingTable(owner, bucket_size=3)  # full buckets reject too

        def brute_force():
            return sorted(table.keys(), key=lambda key: key ^ target)[:5]

        for operation, tag in operations:
            key = peer_from_tag(tag).dht_key
            if operation == "add":
                table.add(key)
            elif operation == "remove":
                table.remove(key)
            else:
                assert table.closest_keys(target, 5) == brute_force()
        assert table.closest_keys(target, 5) == brute_force()


class TestOracleProperties:
    @settings(max_examples=30)
    @given(st.lists(st.tuples(st.booleans(), st.integers(min_value=1, max_value=60)),
                    max_size=120),
           st.integers(min_value=0, max_value=2**256 - 1))
    def test_membership_and_closest_consistency(self, operations, target):
        oracle = KeyspaceOracle()
        reference = set()
        for is_add, tag in operations:
            peer = peer_from_tag(tag)
            if is_add:
                oracle.add(peer)
                reference.add(peer)
            else:
                oracle.remove(peer)
                reference.discard(peer)
        assert set(oracle.peers()) == reference
        expected = sorted(reference, key=lambda p: p.dht_key ^ target)[:5]
        assert oracle.closest(target, 5) == expected

    @settings(max_examples=30)
    @given(st.lists(st.integers(min_value=1, max_value=40), max_size=25),
           st.integers(min_value=0, max_value=2**256 - 1),
           st.integers(min_value=0, max_value=60))
    def test_closest_handles_count_beyond_population(self, tags, target, count):
        oracle = KeyspaceOracle()
        members = set()
        for tag in tags:
            peer = peer_from_tag(tag)
            oracle.add(peer)
            members.add(peer)
        result = oracle.closest(target, count)
        assert result == sorted(members, key=lambda p: p.dht_key ^ target)[:count]
        if count >= len(members):
            assert set(result) == members


class TestSelectClosestProperties:
    """``keys.select_closest`` must be bit-identical to a brute-force XOR
    sort — it backs the oracle and the crawler's bucket sweeps."""

    @settings(max_examples=60)
    @given(st.lists(st.integers(min_value=0, max_value=2**256 - 1),
                    unique=True, max_size=80),
           st.integers(min_value=0, max_value=2**256 - 1),
           st.integers(min_value=0, max_value=100))
    def test_matches_brute_force(self, key_list, target, count):
        expected = sorted(key_list, key=lambda k: k ^ target)[:count]
        assert keys.select_closest(sorted(key_list), target, count) == expected

    @settings(max_examples=60)
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=7),
                              st.integers(min_value=0, max_value=255)),
                    max_size=60),
           st.tuples(st.integers(min_value=0, max_value=7),
                     st.integers(min_value=0, max_value=255)),
           st.integers(min_value=1, max_value=30))
    def test_matches_brute_force_on_clustered_keys(self, members, target_parts, count):
        """Keys packed into a handful of aligned subtrees, target inside
        one of them: deep duplicate prefixes and range-expansion edges."""
        key_list = sorted({(high << 253) | low for high, low in members})
        target = (target_parts[0] << 253) | target_parts[1]
        expected = sorted(key_list, key=lambda k: k ^ target)[:count]
        assert keys.select_closest(key_list, target, count) == expected

    @settings(max_examples=80)
    @example(members=[], target_parts=(0, 0), count=20, data=None)
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=7),
                              st.integers(min_value=0, max_value=255)),
                    max_size=60),
           st.tuples(st.integers(min_value=0, max_value=7),
                     st.integers(min_value=0, max_value=255)),
           st.integers(min_value=0, max_value=30),
           st.data())
    def test_any_enclosing_start_range_matches_full_sort(
        self, members, target_parts, count, data
    ):
        """Started from any aligned range around the target that holds
        enough keys, the selection is the full XOR sort's (small tables,
        deep shared prefixes and the empty table included)."""
        key_list = sorted({(high << 253) | low for high, low in members})
        target = (target_parts[0] << 253) | target_parts[1]
        expected = sorted(key_list, key=lambda k: k ^ target)[:count]
        want = min(len(key_list), count)
        valid = [
            (bits, low, high)
            for bits in range(keys.KEY_BITS + 1)
            for low, high in [_prefix_slice(key_list, target, bits)]
            if high - low >= want
        ]
        bits, low, high = valid[-1] if data is None else data.draw(st.sampled_from(valid))
        assert keys.select_closest(key_list, target, count, low, high, bits + 1) == expected

    @pytest.mark.parametrize("deeper", [0, 5, 19, 40])
    def test_start_range_with_a_full_bucket(self, deeper):
        """A bucket holding exactly k keys, queried from its own range on
        with a crafted key of that bucket (the crawler's sweep step)."""
        k, bucket = 20, 3
        rng = random.Random(deeper)
        own = rng.getrandbits(keys.KEY_BITS)
        table = {keys.random_key_in_bucket(own, bucket, rng) for _ in range(k)}
        table |= {keys.random_key_in_bucket(own, bucket + 1 + i % 4, rng) for i in range(deeper)}
        key_list = sorted(table)
        assert sum(keys.bucket_index(own, key) == bucket for key in key_list) == k
        low, high = _prefix_slice(key_list, own, bucket)
        for _ in range(10):
            crafted = keys.random_key_in_bucket(own, bucket, rng)
            expected = sorted(key_list, key=lambda key: key ^ crafted)[:k]
            assert keys.select_closest(key_list, crafted, k, low, high, bucket + 1) == expected


def _prefix_slice(sorted_keys, target, bits):
    """The ``(low, high)`` slice of keys sharing ``target``'s first ``bits`` bits."""
    if bits == 0:
        return 0, len(sorted_keys)
    shift = keys.KEY_BITS - bits
    base = (target >> shift) << shift
    return bisect_left(sorted_keys, base), bisect_left(sorted_keys, base + (1 << shift))


class _ReferenceWalk:
    """The pre-frontier ``_Walk``: full re-sort of the known pool on every
    ``next_batch``/``closest_live`` (oracle implementation for the
    equivalence property below).  Peers are DHT keys."""

    def __init__(self, target_key, start, k, alpha):
        self.target_key = target_key
        self.k = k
        self.alpha = alpha
        self.known = {}
        self.queried = set()
        self.failed = set()
        self.contacted = []
        self.messages = 0
        for key in start:
            self.known.setdefault(key, None)

    def candidates(self):
        pool = [key for key in self.known if key not in self.failed]
        pool.sort(key=lambda key: key ^ self.target_key)
        return pool

    def next_batch(self):
        frontier = [key for key in self.candidates()[: self.k] if key not in self.queried]
        return frontier[: self.alpha]

    def absorb(self, closer_peers):
        for key in closer_peers:
            self.known.setdefault(key, None)

    def closest_live(self):
        return [key for key in self.candidates() if key in self.queried][: self.k]


def _reference_find_node(target_key, start, query, k, alpha, max_queries=500):
    walk = _ReferenceWalk(target_key, start, k, alpha)
    while walk.messages < max_queries:
        batch = walk.next_batch()
        if not batch:
            break
        for key in batch:
            if walk.messages >= max_queries:
                break
            walk.queried.add(key)
            walk.messages += 1
            response = query(key, target_key)
            if response is None:
                walk.failed.add(key)
                continue
            walk.contacted.append(key)
            walk.absorb(response)
    return walk


class TestLookupWalkProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=2, max_value=60),
           st.integers(min_value=1, max_value=8),
           st.integers(min_value=1, max_value=4))
    def test_frontier_walk_matches_full_sort_walk(self, seed, population, k, alpha):
        """On a random topology with unreachable peers, the incremental
        frontier walk traces the exact path of the full-re-sort walk:
        same closest set (in order), contacts (in order), failures and
        message count."""
        rng = random.Random(seed)
        keys = [peer_from_tag(rng.getrandbits(128) + 1).dht_key for _ in range(population)]
        unreachable = {key for key in keys if rng.random() < 0.25}
        neighbors = {
            key: rng.sample(keys, rng.randint(1, min(len(keys), 12))) for key in keys
        }
        target = rng.getrandbits(256)

        def query(key, target_key):
            assert target_key == target
            if key in unreachable:
                return None
            return neighbors[key]

        start = rng.sample(keys, min(len(keys), 3))
        new = iterative_find_node(target, start, query, k=k, alpha=alpha)
        old = _reference_find_node(target, start, query, k=k, alpha=alpha)
        assert new.closest == old.closest_live()
        assert new.contacted == old.contacted
        assert new.failed == old.failed
        assert new.messages == old.messages


class TestProviderRegistryProperties:
    @settings(max_examples=30)
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=5),
                              st.integers(min_value=0, max_value=30),
                              st.floats(min_value=0, max_value=100)),
                    min_size=1, max_size=80),
           st.floats(min_value=0, max_value=200))
    def test_get_never_returns_expired_and_respects_cap(self, adds, now):
        registry = ProviderRegistry(ttl=50.0, max_per_cid=8)
        cids = [CID((i + 1).to_bytes(32, "big")) for i in range(6)]
        for cid_index, provider_tag, published_at in adds:
            provider = peer_from_tag(provider_tag + 1)
            record = ProviderRecord(
                cid=cids[cid_index],
                provider=provider,
                addrs=(Multiaddr.direct("1.2.3.4", 4001, provider),),
                published_at=published_at,
            )
            registry.add(record)
        for cid in cids:
            records = registry.get(cid, now)
            assert len(records) <= 8
            assert all(now - record.published_at < 50.0 for record in records)
            providers = [record.provider for record in records]
            assert len(providers) == len(set(providers))

    @settings(max_examples=60)
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=1),
                              st.integers(min_value=0, max_value=7),
                              st.sampled_from([0.0, 0.0, 0.0, 1.0, 5.0])),
                    min_size=1, max_size=120),
           st.integers(min_value=1, max_value=4))
    def test_eviction_tie_rule_matches_min_reference(self, adds, cap):
        """Pins today's eviction rule for a later O(1) replacement.

        Publish times never decrease but repeat often, and providers
        re-provide.  The reference keeps each CID's records as an ordered
        list: a re-provide updates the provider's entry where it stands,
        a new provider appends, and an overflow drops the *first* entry
        with the smallest ``published_at`` (``min()``'s tie rule: the
        provider inserted first loses).
        """
        registry = ProviderRegistry(ttl=1e9, max_per_cid=cap)
        cids = [CID((i + 1).to_bytes(32, "big")) for i in range(2)]
        reference = {cid: [] for cid in cids}
        now = 0.0
        for cid_index, provider_tag, step in adds:
            now += step
            cid, provider = cids[cid_index], peer_from_tag(provider_tag + 1)
            registry.add(ProviderRecord(
                cid=cid,
                provider=provider,
                addrs=(Multiaddr.direct("1.2.3.4", 4001, provider),),
                published_at=now,
            ))
            entries = reference[cid]
            for position, (existing, _) in enumerate(entries):
                if existing == provider:
                    entries[position] = (provider, now)
                    break
            else:
                entries.append((provider, now))
            if len(entries) > cap:
                floor = min(published_at for _, published_at in entries)
                victim = next(
                    position for position, (_, published_at) in enumerate(entries)
                    if published_at == floor
                )
                del entries[victim]
        for cid in cids:
            survivors = [
                (record.provider, record.published_at) for record in registry.get(cid, now)
            ]
            assert survivors == reference[cid]


class TestOrderedCIDSetTrimProperties:
    @settings(max_examples=200)
    @given(
        st.lists(
            st.one_of(
                st.tuples(st.just("add"), st.integers(0, 300)),
                st.tuples(st.just("add_many"), st.integers(0, 300)),
                st.tuples(st.just("discard"), st.integers(0, 300)),
                st.tuples(st.just("trim"), st.integers(0, 60)),
            ),
            max_size=80,
        )
    )
    def test_trim_matches_the_pop_loop(self, operations):
        """``trim(cap)`` leaves the same members in the same order as
        popping the oldest CID while more than ``cap`` remain, whether it
        drops one, most or none of them."""
        cids = OrderedCIDSet()
        reference = {}  # insertion-ordered
        fresh = 1000
        for operation, value in operations:
            if operation == "add":
                cids.add(value)
                reference[value] = None
            elif operation == "add_many":
                for _ in range(value):
                    cids.add(fresh)
                    reference[fresh] = None
                    fresh += 1
            elif operation == "discard":
                cids.discard(value)
                reference.pop(value, None)
            else:
                cids.trim(value)
                while len(reference) > value:
                    del reference[next(iter(reference))]
            assert list(cids) == list(reference)
            assert len(cids) == len(reference)
        assert all(cid in cids for cid in reference)


class TestIPNSProperties:
    @settings(max_examples=30)
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=50),
                              st.floats(min_value=0, max_value=1000)),
                    min_size=1, max_size=30))
    def test_supersedes_selects_max_sequence_then_time(self, versions):
        keypair = IPNSKeyPair.generate(random.Random(1))
        records = [
            IPNSRecord.create(keypair, CID.for_data(bytes([seq % 256])), seq, published_at=ts)
            for seq, ts in versions
        ]
        winner = None
        for record in records:
            if record.supersedes(winner):
                winner = record
        best = max(records, key=lambda r: (r.sequence, r.published_at))
        assert winner.sequence == best.sequence
        assert winner.published_at == best.published_at

    @settings(max_examples=20)
    @given(st.binary(min_size=1, max_size=40), st.integers(min_value=0, max_value=100))
    def test_signatures_bind_value_and_sequence(self, payload, sequence):
        keypair = IPNSKeyPair.generate(random.Random(2))
        record = IPNSRecord.create(keypair, CID.for_data(payload), sequence, published_at=0.0)
        assert record.verify(keypair)
        other_key = IPNSKeyPair.generate(random.Random(3))
        assert not record.verify(other_key)


class TestParetoProperties:
    volumes = st.dictionaries(
        st.integers(), st.floats(min_value=0.001, max_value=1e6), min_size=2, max_size=40
    )

    @settings(max_examples=40)
    @given(volumes)
    def test_curve_endpoint_matches_top_share(self, volumes):
        curve = pareto_curve(volumes, points=len(volumes))
        assert curve[-1][1] == pytest.approx(1.0)
        # The curve at the first sampled fraction equals top_share there.
        fraction, share = curve[0]
        assert share == pytest.approx(top_share(volumes, fraction), rel=1e-9)

    @settings(max_examples=40)
    @given(volumes)
    def test_concentration_dominates_uniform(self, volumes):
        """For every fraction f, the top-f share is at least f."""
        for fraction in (0.1, 0.25, 0.5, 0.9):
            assert top_share(volumes, fraction) >= fraction - 1e-9


class TestIdentifierProperties:
    @settings(max_examples=40)
    @given(st.binary(min_size=32, max_size=32))
    def test_peerid_base58_roundtrip(self, digest):
        peer = PeerID(digest)
        assert PeerID.from_base58(peer.to_base58()) == peer

    @settings(max_examples=40)
    @given(st.binary(min_size=32, max_size=32))
    def test_cid_base32_roundtrip(self, digest):
        cid = CID(digest)
        assert CID.from_base32(cid.to_base32()) == cid

    @settings(max_examples=40)
    @given(st.binary(min_size=32, max_size=32), st.binary(min_size=32, max_size=32))
    def test_multiaddr_roundtrip_direct_and_circuit(self, d1, d2):
        peer, relay = PeerID(d1), PeerID(d2)
        direct = Multiaddr.direct("10.1.2.3", 4001, peer)
        assert Multiaddr.parse(str(direct)) == direct
        if peer != relay:
            circuit = Multiaddr.circuit("10.9.9.9", 4001, relay, peer)
            assert Multiaddr.parse(str(circuit)) == circuit


class TestEncodingProperties:
    """Round-trip laws for the raw base58/base32 codecs."""

    @settings(max_examples=60)
    @given(st.binary(max_size=64))
    def test_base58_roundtrip(self, data):
        assert encoding.base58_decode(encoding.base58_encode(data)) == data

    @settings(max_examples=60)
    @given(st.binary(max_size=64))
    def test_base32_roundtrip(self, data):
        assert encoding.base32_decode(encoding.base32_encode(data)) == data

    @settings(max_examples=40)
    @given(st.integers(min_value=0, max_value=16), st.binary(max_size=16))
    def test_base58_preserves_leading_zeros(self, zeros, tail):
        data = b"\x00" * zeros + tail
        assert encoding.base58_decode(encoding.base58_encode(data)) == data

    def test_invalid_characters_rejected(self):
        for bad in ("0OIl", "not base58 at all!"):
            with pytest.raises(ValueError):
                encoding.base58_decode(bad)
        with pytest.raises(ValueError):
            encoding.base32_decode("b01189!")


KEYS = st.integers(min_value=0, max_value=keys.KEY_SPACE - 1)


class TestXorMetricProperties:
    """Metric-space axioms of the Kademlia XOR distance."""

    @settings(max_examples=60)
    @given(KEYS, KEYS, KEYS)
    def test_metric_axioms(self, a, b, c):
        assert keys.xor_distance(a, a) == 0
        assert (keys.xor_distance(a, b) == 0) == (a == b)
        assert keys.xor_distance(a, b) == keys.xor_distance(b, a)
        assert keys.xor_distance(a, c) <= (
            keys.xor_distance(a, b) + keys.xor_distance(b, c)
        )

    @settings(max_examples=60)
    @given(KEYS, KEYS)
    def test_prefix_and_bucket_consistency(self, own, other):
        prefix = keys.common_prefix_len(own, other)
        if own == other:
            assert prefix == keys.KEY_BITS
            return
        assert keys.bucket_index(own, other) == prefix
        # Bucket i holds distances in [2^(255-i), 2^(256-i)).
        distance = keys.xor_distance(own, other)
        assert 1 << (keys.KEY_BITS - prefix - 1) <= distance < (
            1 << (keys.KEY_BITS - prefix)
        )

    @settings(max_examples=40)
    @given(KEYS, st.integers(min_value=0, max_value=keys.KEY_BITS - 1),
           st.integers(min_value=0))
    def test_random_key_lands_in_requested_bucket(self, own, index, seed):
        crafted = keys.random_key_in_bucket(own, index, random.Random(seed))
        assert keys.common_prefix_len(own, crafted) == index

    @settings(max_examples=40)
    @given(st.lists(st.integers(min_value=1, max_value=5000), min_size=1,
                    max_size=60, unique=True), st.binary(min_size=32, max_size=32))
    def test_routing_table_closest_is_true_xor_order(self, tags, target_digest):
        owner = peer_from_tag(777_777_777).dht_key
        table = RoutingTable(owner, bucket_size=10_000)
        peers = [peer_from_tag(tag) for tag in tags]
        for peer in peers:
            table.add(peer.dht_key)
        target = PeerID(target_digest).dht_key
        expected = sorted(peers, key=lambda p: keys.xor_distance(p.dht_key, target))
        assert table.closest_keys(target, 7) == [peer.dht_key for peer in expected[:7]]


class TestSqliteScanProperties:
    """A SQLite log reads back exactly what was appended, flushed or not."""

    records = st.lists(
        st.tuples(st.floats(min_value=0, max_value=100), st.integers()),
        max_size=80,
    )

    @settings(max_examples=30)
    @given(records, st.integers(min_value=1, max_value=12))
    def test_scan_restores_append_order(self, entries, batch_size):
        from repro.store.backend import SqliteBackend

        backend = SqliteBackend(batch_size=batch_size)
        appended = []
        for ts, value in entries:
            record = {"ts": ts, "value": value}
            backend.append(record)
            appended.append(record)
        assert list(backend.scan()) == appended
        assert list(backend.scan_reversed()) == appended[::-1]
        assert len(backend) == len(appended)
        backend.close()

    @settings(max_examples=20)
    @given(records, st.integers(min_value=1, max_value=12),
           st.floats(min_value=0, max_value=100), st.floats(min_value=0, max_value=100))
    def test_scan_range_matches_reference_filter(self, entries, batch_size, lo, hi):
        from repro.store.backend import SqliteBackend

        start, end = min(lo, hi), max(lo, hi)
        backend = SqliteBackend(batch_size=batch_size)
        appended = []
        for ts, value in entries:
            record = {"ts": ts, "value": value}
            backend.append(record)
            appended.append(record)
        expected = [r for r in appended if start <= r["ts"] < end]
        assert list(backend.scan_range(start, end)) == expected
        backend.close()


class TestSeedDerivationProperties:
    components = st.lists(
        st.one_of(st.integers(), st.text(max_size=12), st.binary(max_size=12)),
        max_size=4,
    )

    @settings(max_examples=60)
    @given(st.integers(min_value=-(2**63), max_value=2**63 - 1), components)
    def test_derivation_is_a_pure_function(self, root, parts):
        seed = derive_seed(root, *parts)
        assert seed == derive_seed(root, *parts)
        assert 0 <= seed < 2**64

    @settings(max_examples=60)
    @given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=0, max_value=10_000))
    def test_distinct_tasks_get_distinct_streams(self, root, i, j):
        if i != j:
            assert derive_seed(root, "crawl", i) != derive_seed(root, "crawl", j)
