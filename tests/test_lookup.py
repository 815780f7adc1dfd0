"""Iterative Kademlia walks over a static mini-DHT."""

import random

import pytest

from repro.ids.cid import CID
from repro.ids.peerid import PeerID
from repro.kademlia.lookup import (
    iterative_find_node,
    iterative_find_providers,
)
from repro.kademlia.providers import ProviderRecord, ProviderStore
from repro.kademlia.routing_table import RoutingTable
from repro.ids.multiaddr import Multiaddr


class MiniDHT:
    """A fully wired static network of routing tables, queried by DHT key."""

    def __init__(self, size=120, seed=0, k=20):
        self.rng = random.Random(seed)
        self.k = k
        self.peers = [PeerID.generate(self.rng) for _ in range(size)]
        self.by_key = {peer.dht_key: peer for peer in self.peers}
        self.tables = {}
        self.stores = {peer: ProviderStore() for peer in self.peers}
        self.unreachable = set()
        for peer in self.peers:
            table = RoutingTable(peer.dht_key, bucket_size=k)
            for other in self.peers:
                table.add(other.dht_key)
            self.tables[peer] = table

    def info(self, peer):
        """What a walk is seeded with: the peer's DHT key."""
        return peer.dht_key

    def peers_of(self, keys):
        """Map a walk's result keys back to peers."""
        return [self.by_key[key] for key in keys]

    def find_node_query(self, key, target_key):
        peer = self.by_key[key]
        if peer in self.unreachable:
            return None
        return self.tables[peer].closest_keys(target_key, self.k)

    def get_providers_query(self, key, cid):
        peer = self.by_key[key]
        if peer in self.unreachable:
            return None
        records = self.stores[peer].get(cid, now=0.0)
        closer = self.tables[peer].closest_keys(cid.dht_key, self.k)
        return records, closer

    def resolvers(self, cid):
        return sorted(self.peers, key=lambda p: p.dht_key ^ cid.dht_key)[: self.k]

    def store_record(self, cid, provider, num_resolvers=None):
        record = ProviderRecord(
            cid=cid,
            provider=provider,
            addrs=(Multiaddr.direct("10.9.9.9", 4001, provider),),
            published_at=0.0,
        )
        for resolver in self.resolvers(cid)[:num_resolvers]:
            self.stores[resolver].add(record)
        return record


@pytest.fixture(scope="module")
def dht():
    return MiniDHT()


class TestFindNode:
    def test_finds_true_closest(self, dht):
        target = random.Random(42).getrandbits(256)
        start = [dht.info(p) for p in dht.peers[:3]]
        result = iterative_find_node(target, start, dht.find_node_query)
        expected = sorted(dht.peers, key=lambda p: p.dht_key ^ target)[:20]
        assert dht.peers_of(result.closest) == expected

    def test_converges_with_few_messages(self, dht):
        target = random.Random(43).getrandbits(256)
        start = [dht.info(dht.peers[0])]
        result = iterative_find_node(target, start, dht.find_node_query)
        # Far fewer queries than peers: the walk is logarithmic-ish.
        assert result.messages < len(dht.peers) // 2

    def test_unreachable_peers_recorded_as_failed(self, dht):
        target = random.Random(44).getrandbits(256)
        dead = set(random.Random(1).sample(dht.peers, 30))
        dht.unreachable = dead
        try:
            start = [dht.info(p) for p in dht.peers[:3]]
            result = iterative_find_node(target, start, dht.find_node_query)
            assert set(dht.peers_of(result.failed)) <= dead
            assert all(peer not in dead for peer in dht.peers_of(result.contacted))
            # Live closest only.
            assert all(peer not in dead for peer in dht.peers_of(result.closest))
        finally:
            dht.unreachable = set()

    def test_empty_start(self, dht):
        result = iterative_find_node(123, [], dht.find_node_query)
        assert result.closest == []
        assert result.messages == 0

    def test_max_queries_bounds_messages(self, dht):
        target = random.Random(45).getrandbits(256)
        start = [dht.info(p) for p in dht.peers[:3]]
        result = iterative_find_node(target, start, dht.find_node_query, max_queries=5)
        assert result.messages <= 5


class TestFindProviders:
    def test_collects_stored_records(self, dht):
        cid = CID.generate(random.Random(50))
        provider = dht.peers[5]
        dht.store_record(cid, provider)
        result = iterative_find_providers(
            cid, [dht.info(dht.peers[0])], dht.get_providers_query
        )
        assert [r.provider for r in result.providers] == [provider]

    def test_no_providers_returns_empty(self, dht):
        cid = CID.generate(random.Random(51))
        result = iterative_find_providers(
            cid, [dht.info(dht.peers[0])], dht.get_providers_query
        )
        assert result.providers == []
        # The walk still queried the resolvers.
        assert len(result.resolvers_queried) > 0

    def test_stock_terminates_at_max_providers(self, dht):
        """Stock FindProviders stops once 20 providers were found."""
        cid = CID.generate(random.Random(52))
        rng = random.Random(53)
        for provider in rng.sample(dht.peers, 30):
            dht.store_record(cid, provider)
        stock = iterative_find_providers(
            cid, [dht.info(dht.peers[0])], dht.get_providers_query, max_providers=20
        )
        assert len(stock.providers) >= 20

    def test_exhaustive_collects_all(self, dht):
        """The paper's modification: terminate only after all resolvers
        answered, collecting every record."""
        cid = CID.generate(random.Random(54))
        rng = random.Random(55)
        providers = rng.sample(dht.peers, 30)
        for provider in providers:
            dht.store_record(cid, provider)
        exhaustive = iterative_find_providers(
            cid, [dht.info(dht.peers[0])], dht.get_providers_query, exhaustive=True
        )
        assert set(r.provider for r in exhaustive.providers) == set(providers)

    def test_exhaustive_equals_stock_for_sparse_cids(self, dht):
        """§A ethics: for CIDs with <20 providers the modified walk behaves
        exactly like the stock one."""
        cid = CID.generate(random.Random(56))
        for provider in dht.peers[10:13]:
            dht.store_record(cid, provider)
        stock = iterative_find_providers(
            cid, [dht.info(dht.peers[0])], dht.get_providers_query
        )
        exhaustive = iterative_find_providers(
            cid, [dht.info(dht.peers[0])], dht.get_providers_query, exhaustive=True
        )
        assert set(r.provider for r in stock.providers) == set(
            r.provider for r in exhaustive.providers
        )
        assert stock.messages == exhaustive.messages
