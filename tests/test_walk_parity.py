"""Key-based lookup walks and crawl sweeps against the code they replaced.

The oracle below is the earlier implementation less its metric counters:
a walk over :class:`PeerInfo` objects with a ``(distance, seq, info)``
frontier, FIND_NODE / GET_PROVIDERS handlers that answer with PeerInfos
built from the overlay's last announcements, and a crawl that re-sorts a
peer's whole routing table once per swept bucket.  The live code walks on
DHT keys and sweeps by aligned-prefix selection; every observable output
must stay the same on overlays with stale table entries, unreachable
servers and servers slower than the timeout.
"""

from __future__ import annotations

import dataclasses
import math
import random
from bisect import bisect_left, insort
from collections import deque
from typing import Dict, List, Optional, Sequence, Set, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.crawler import (
    CRAWL_PARALLELISM,
    CrawlObservation,
    CrawlSnapshot,
    CrawlTask,
    DHTCrawler,
    execute_crawl_task,
)
from repro.core import crawler as crawler_module
from repro.ids import keys as keys_module
from repro.ids.cid import CID
from repro.ids.keys import KEY_BITS, random_key_in_bucket
from repro.ids.peerid import PeerID
from repro.kademlia.lookup import iterative_find_node, iterative_find_providers
from repro.kademlia.messages import PeerInfo
from repro.kademlia.providers import ProviderRecord
from repro.monitors.provider_fetcher import ProviderObservation, ProviderRecordFetcher
from repro.netsim.churn import ChurnProcess
from repro.netsim.network import Overlay
from repro.obs import observer as obs
from repro.obs.observer import Observer, use_observer
from repro.obs.trace import Tracer, deterministic_trace_view
from repro.world.population import build_world
from repro.world.profiles import WorldProfile

#: Fetch timeout used throughout: below the median latency of the
#: residential classes, so plenty of online servers are too slow.
TIMEOUT = 2.0


# ---------------------------------------------------------------------------
# oracle: the PeerInfo walk
# ---------------------------------------------------------------------------


class _OracleWalk:
    def __init__(self, target_key: int, start: Sequence[PeerInfo], k: int, alpha: int) -> None:
        self.target_key = target_key
        self.k = k
        self.alpha = alpha
        self.known: Dict[PeerID, PeerInfo] = {}
        self.queried: Set[PeerID] = set()
        self.failed: Set[PeerID] = set()
        self.contacted: List[PeerID] = []
        self.messages = 0
        self._frontier: List[Tuple[int, int, PeerInfo]] = []
        self._entries: Dict[PeerID, Tuple[int, int, PeerInfo]] = {}
        self._seq = 0
        self.best_distance: Optional[int] = None
        self.absorb(start)

    def next_batch(self) -> List[PeerInfo]:
        batch = []
        for _, _, info in self._frontier[: self.k]:
            if info.peer not in self.queried:
                batch.append(info)
                if len(batch) >= self.alpha:
                    break
        return batch

    def absorb(self, closer_peers: Sequence[PeerInfo]) -> None:
        for info in closer_peers:
            peer = info.peer
            if peer in self.known:
                continue
            self.known[peer] = info
            distance = peer.dht_key ^ self.target_key
            item = (distance, self._seq, info)
            self._seq += 1
            self._entries[peer] = item
            insort(self._frontier, item)
            if self.best_distance is None or distance < self.best_distance:
                self.best_distance = distance

    def mark_failed(self, peer: PeerID) -> None:
        self.failed.add(peer)
        item = self._entries.pop(peer, None)
        if item is None:
            return
        position = bisect_left(self._frontier, item)
        if position < len(self._frontier) and self._frontier[position] is item:
            del self._frontier[position]

    def closest_live(self) -> List[PeerInfo]:
        live = []
        for _, _, info in self._frontier:
            if info.peer in self.queried:
                live.append(info)
                if len(live) >= self.k:
                    break
        return live


def _round_event(walk: _OracleWalk, rounds: int, batch: list) -> None:
    tracer = obs.get_tracer()
    if tracer.enabled:
        tracer.event(
            "lookup.round",
            round=rounds,
            batch=len(batch),
            frontier=len(walk._frontier),
            failed=len(walk.failed),
            best=walk.best_distance,
        )


def oracle_find_node(target_key, start, query, k=20, alpha=3, max_queries=500):
    walk = _OracleWalk(target_key, start, k, alpha)
    tracer = obs.get_tracer()
    rounds = 0
    with tracer.span("lookup.find_node") as lookup_span:
        while walk.messages < max_queries:
            batch = walk.next_batch()
            if not batch:
                break
            _round_event(walk, rounds, batch)
            rounds += 1
            for info in batch:
                if walk.messages >= max_queries:
                    break
                walk.queried.add(info.peer)
                walk.messages += 1
                response = query(info.peer, target_key)
                if response is None:
                    walk.mark_failed(info.peer)
                    continue
                walk.contacted.append(info.peer)
                walk.absorb(response)
        if tracer.enabled:
            lookup_span.note(
                reason="max_queries" if walk.messages >= max_queries else "frontier_exhausted",
                rounds=rounds,
                messages=walk.messages,
                failed=len(walk.failed),
            )
    return walk


def oracle_find_providers(
    cid, start, query, k=20, alpha=3, max_providers=20, exhaustive=False, max_queries=500
):
    walk = _OracleWalk(cid.dht_key, start, k, alpha)
    providers: Dict[PeerID, ProviderRecord] = {}
    tracer = obs.get_tracer()
    rounds = 0
    with tracer.span("lookup.find_providers") as lookup_span:
        while walk.messages < max_queries:
            if not exhaustive and len(providers) >= max_providers:
                break
            batch = walk.next_batch()
            if not batch:
                break
            _round_event(walk, rounds, batch)
            rounds += 1
            for info in batch:
                if walk.messages >= max_queries:
                    break
                walk.queried.add(info.peer)
                walk.messages += 1
                response = query(info.peer, cid)
                if response is None:
                    walk.mark_failed(info.peer)
                    continue
                walk.contacted.append(info.peer)
                records, closer_peers = response
                for record in records:
                    providers.setdefault(record.provider, record)
                walk.absorb(closer_peers)
                if not exhaustive and len(providers) >= max_providers:
                    break
        if tracer.enabled:
            if not exhaustive and len(providers) >= max_providers:
                reason = "providers_found"
            elif walk.messages >= max_queries:
                reason = "max_queries"
            else:
                reason = "frontier_exhausted"
            lookup_span.note(
                reason=reason,
                rounds=rounds,
                messages=walk.messages,
                failed=len(walk.failed),
                providers=len(providers),
            )
    return walk, list(providers.values())


# ---------------------------------------------------------------------------
# oracle: the PeerInfo handlers and the fetch around them
# ---------------------------------------------------------------------------


def _peer_infos(overlay: Overlay, peers: List[PeerID]) -> List[PeerInfo]:
    infos = []
    for peer in peers:
        info = overlay.last_info(peer)
        infos.append(info if info is not None else PeerInfo(peer=peer, addrs=()))
    return infos


def _handle_find_node(overlay: Overlay, node, target_key: int) -> List[PeerInfo]:
    if node.routing_table is None:
        return []
    keys = sorted(node.routing_table.keys(), key=lambda key: key ^ target_key)[: overlay.k]
    return _peer_infos(overlay, [overlay.peer_of(key) for key in keys])


def oracle_find_node_query(overlay: Overlay, timeout: float):
    def query(peer: PeerID, target_key: int):
        node = overlay.dial(peer, timeout)
        if obs.get_tracer().enabled:
            overlay._trace_message("find_node", node)
        if node is None:
            return None
        return _handle_find_node(overlay, node, target_key)

    return query


def oracle_get_providers_query(overlay: Overlay, timeout: float):
    def query(peer: PeerID, cid: CID):
        node = overlay.dial(peer, timeout)
        if obs.get_tracer().enabled:
            overlay._trace_message("get_providers", node)
        if node is None:
            return None
        records = overlay.provider_records_at(node, cid)
        return records, _handle_find_node(overlay, node, cid.dht_key)

    return query


def oracle_fetch(overlay: Overlay, rng: random.Random, cid: CID, exhaustive: bool = True):
    tracer = obs.get_tracer()
    with tracer.span("providers.fetch") as fetch_span:
        servers = overlay.online_servers()
        sample = rng.sample(servers, min(8, len(servers))) if servers else []
        walk, providers = oracle_find_providers(
            cid,
            [node.peer_info() for node in sample],
            oracle_get_providers_query(overlay, TIMEOUT),
            exhaustive=exhaustive,
        )
        records = tuple(providers)
        reachable = tuple(r for r in records if overlay.is_provider_reachable(r))
        if tracer.enabled:
            fetch_span.note(records=len(records), reachable=len(reachable), messages=walk.messages)
    return ProviderObservation(
        cid=cid,
        collected_at=overlay.now,
        records=records,
        reachable=reachable,
        resolvers_queried=len(walk.closest_live()),
        walk_messages=walk.messages,
    )


# ---------------------------------------------------------------------------
# oracle: the crawl with a full sort per swept bucket
# ---------------------------------------------------------------------------


def oracle_execute_crawl_task(task: CrawlTask) -> CrawlSnapshot:
    rng = random.Random(task.seed)
    keys = task.dht_keys
    pool = task.stable_pool if len(task.stable_pool) >= task.bootstrap_size else task.server_pool
    bootstrap = rng.sample(pool, min(task.bootstrap_size, len(pool))) if pool else []
    queue = deque(bootstrap)
    seen: Set[int] = set(bootstrap)
    observations: Dict[int, bool] = {}
    edges: Dict[int, Tuple[int, ...]] = {}
    requests_sent = 0
    responsive_work = 0.0
    had_unresponsive = False
    depth = int(math.log2(max(task.oracle_size, 2))) + 6
    while queue:
        index = queue.popleft()
        requests_sent += 1
        server = task.servers.get(index)
        if server is None or not server[0] or server[1] > task.timeout:
            had_unresponsive = True
            observations[index] = False
            continue
        responsive_work += server[1]
        own_key = keys[index]
        table = task.tables.get(index, ())
        neighbors: Set[int] = set()
        previous_size = -1
        for bucket_idx in range(min(depth, KEY_BITS)):
            crafted = random_key_in_bucket(own_key, bucket_idx, rng)
            for neighbor in sorted(table, key=lambda t: keys[t] ^ crafted)[: task.k]:
                neighbors.add(neighbor)
            if len(neighbors) == previous_size and bucket_idx > depth - 4:
                break
            previous_size = len(neighbors)
        neighbors.discard(index)
        requests_sent += max(1, len(neighbors) // task.k)
        observations[index] = True
        edges[index] = tuple(neighbors)
        for neighbor in edges[index]:
            if neighbor not in seen:
                seen.add(neighbor)
                queue.append(neighbor)
    snapshot = CrawlSnapshot(crawl_id=task.crawl_id, started_at=task.started_at)
    peers = [PeerID(digest) for digest in task.peer_digests]
    for index, crawlable in observations.items():
        snapshot.observations[peers[index]] = CrawlObservation(
            peers[index], task.ips[index], crawlable
        )
    for index, neighbor_indices in edges.items():
        snapshot.edges[peers[index]] = tuple(peers[n] for n in neighbor_indices)
    snapshot.requests_sent = requests_sent
    snapshot.duration = responsive_work / CRAWL_PARALLELISM + (
        task.timeout if had_unresponsive else 0.0
    )
    return snapshot


# ---------------------------------------------------------------------------
# test overlays
# ---------------------------------------------------------------------------


def churned_overlay(seed: int, servers: int = 90, hours: float = 5.0):
    """Bootstrap, publish records for a CID set, then churn for ``hours``
    (less than the refresh interval, so departures leave stale entries).

    Returns the overlay and the CIDs to fetch: some provided by several
    servers and NAT clients, some by nobody.
    """
    overlay = Overlay(build_world(WorldProfile(online_servers=servers, seed=seed)))
    overlay.bootstrap()
    overlay.schedule_periodic_refresh()
    rng = random.Random(seed + 1)
    online = list(overlay.online_by_peer.values())
    cids = [CID.generate(rng) for _ in range(12)]
    for position, cid in enumerate(cids[:9]):
        for node in rng.sample(online, min(len(online), 1 + 4 * position)):
            overlay.publish_provider_record(node, cid)
    ChurnProcess(overlay).start()
    overlay.scheduler.run_until(hours * 3600.0)
    return overlay, cids


def _stale_entries(overlay: Overlay) -> int:
    return sum(
        1
        for node in overlay.online_servers()
        for key in node.routing_table.keys()
        if overlay.peer_of(key) not in overlay.online_by_peer
    )


@pytest.fixture(scope="module")
def overlay_and_cids():
    return churned_overlay(seed=31, servers=150)


@pytest.fixture(scope="module")
def large_crawl_task():
    overlay, _ = churned_overlay(seed=5, servers=600)
    return DHTCrawler(overlay, seed=5).task(0)


# ---------------------------------------------------------------------------
# parity
# ---------------------------------------------------------------------------


class TestOverlayShape:
    def test_overlay_has_stale_unreachable_and_slow_servers(self, overlay_and_cids):
        overlay, _ = overlay_and_cids
        servers = overlay.online_servers()
        assert _stale_entries(overlay) > 0
        assert any(not node.reachable for node in servers)
        assert any(node.reachable and node.response_latency > TIMEOUT for node in servers)


class TestBucketAnswer:
    def test_tables_with_stale_entries_answer_the_full_sort(self, overlay_and_cids):
        """Every server's bucket answer, stale entries included, is a full
        XOR sort of its table: for random targets and for targets sharing
        0…depth+2 bits with the owner."""
        overlay, cids = overlay_and_cids
        rng = random.Random(17)
        stale = 0
        for node in overlay.online_servers():
            table = node.routing_table
            keys = table.keys()
            stale += sum(overlay.peer_of(key) not in overlay.online_by_peer for key in keys)
            owner = table.owner_key
            targets = [rng.getrandbits(KEY_BITS), cids[0].dht_key]
            targets += [
                random_key_in_bucket(owner, shared, rng)
                for shared in range(table.max_bucket_index + 3)
            ]
            for target in targets:
                expected = sorted(keys, key=lambda key: key ^ target)[: overlay.k]
                assert table.closest_keys(target, overlay.k) == expected
                assert sorted(table.closest_keys_unsorted(target, overlay.k)) == sorted(expected)
        assert stale > 0


class TestFetchParity:
    @settings(max_examples=5, deadline=None)
    @given(st.integers(min_value=0, max_value=2**20))
    def test_fetch_many_matches_oracle(self, seed):
        overlay, cids = churned_overlay(seed)
        for exhaustive in (True, False):
            fetcher = ProviderRecordFetcher(
                overlay, rng=random.Random(seed), timeout=TIMEOUT, exhaustive=exhaustive
            )
            new = fetcher.fetch_many(cids)
            rng = random.Random(seed)
            old = [oracle_fetch(overlay, rng, cid, exhaustive=exhaustive) for cid in cids]
            # Field-wise ``==``: cid, collection time, records and
            # reachable records in order, resolvers queried, messages.
            assert new == old

    @settings(max_examples=5, deadline=None)
    @given(st.integers(min_value=0, max_value=2**20), st.integers(min_value=1, max_value=12))
    def test_walks_match_oracle_with_cutoffs(self, seed, max_queries):
        """Stock and exhaustive FindProviders and FIND_NODE, with and
        without a ``max_queries`` cut-off, straight on the walk API."""
        overlay, cids = churned_overlay(seed)
        rng = random.Random(seed)
        servers = overlay.online_servers()
        for cid in cids:
            origin = rng.choice(servers)
            keys = origin.routing_table.closest_keys(cid.dht_key, overlay.k)
            start = [overlay.peer_of(key) for key in keys]
            infos = _peer_infos(overlay, start)
            for limit in (500, max_queries):
                for exhaustive, max_providers in ((True, 20), (False, 20), (False, 3)):
                    new = iterative_find_providers(
                        cid,
                        keys,
                        overlay.get_providers_query(TIMEOUT),
                        max_providers=max_providers,
                        exhaustive=exhaustive,
                        max_queries=limit,
                    )
                    walk, providers = oracle_find_providers(
                        cid,
                        infos,
                        oracle_get_providers_query(overlay, TIMEOUT),
                        max_providers=max_providers,
                        exhaustive=exhaustive,
                        max_queries=limit,
                    )
                    assert new.providers == providers
                    assert new.messages == walk.messages
                    assert new.contacted == [peer.dht_key for peer in walk.contacted]
                    assert new.failed == {peer.dht_key for peer in walk.failed}
                    assert new.resolvers_queried == [
                        info.peer.dht_key for info in walk.closest_live()
                    ]
                target = rng.getrandbits(256)
                new = iterative_find_node(
                    target, keys, overlay.find_node_query(TIMEOUT), max_queries=limit
                )
                walk = oracle_find_node(
                    target, infos, oracle_find_node_query(overlay, TIMEOUT), max_queries=limit
                )
                assert new.closest == [info.peer.dht_key for info in walk.closest_live()]
                assert new.contacted == [peer.dht_key for peer in walk.contacted]
                assert new.failed == {peer.dht_key for peer in walk.failed}
                assert new.messages == walk.messages



class TestCrawlParity:
    @settings(max_examples=4, deadline=None)
    @given(st.integers(min_value=0, max_value=2**20))
    def test_crawl_snapshot_matches_oracle(self, seed):
        overlay, _ = churned_overlay(seed)
        crawler = DHTCrawler(overlay, seed=seed)
        for crawl_id in range(2):
            task = crawler.task(crawl_id)
            new = execute_crawl_task(task)
            old = oracle_execute_crawl_task(task)
            assert new.observations == old.observations
            assert list(new.observations) == list(old.observations)
            assert new.edges == old.edges
            assert list(new.edges) == list(old.edges)
            assert new.requests_sent == old.requests_sent
            assert new.duration == old.duration

    def test_empty_and_small_tables_match_oracle(self):
        """Tables with no key or fewer than k keys sweep as the oracle does."""
        overlay, _ = churned_overlay(3)
        task = DHTCrawler(overlay, seed=3).task(0)
        tables = dict(task.tables)
        for position, index in enumerate(list(tables)[:20]):
            tables[index] = () if position % 2 else tables[index][:5]
        task = dataclasses.replace(task, tables=tables)
        new = execute_crawl_task(task)
        old = oracle_execute_crawl_task(task)
        assert list(new.edges.items()) == list(old.edges.items())
        assert list(new.observations.items()) == list(old.observations.items())
        assert new.requests_sent == old.requests_sent
        assert any(not neighbors for neighbors in new.edges.values())

    def test_large_crawl_matches_oracle_in_insertion_order(self, large_crawl_task):
        """At 600 servers peer indices exceed the neighbour sets' hash
        table size, so each edge tuple's order depends on the order its
        indices went in: a sweep that inserts a bucket's answer out of
        XOR order shows (at 90 servers every tuple is in index order)."""
        new = execute_crawl_task(large_crawl_task)
        old = oracle_execute_crawl_task(large_crawl_task)
        assert list(new.observations.items()) == list(old.observations.items())
        assert list(new.edges.items()) == list(old.edges.items())
        assert new.requests_sent == old.requests_sent
        assert new.duration == old.duration
        position = {digest: index for index, digest in enumerate(large_crawl_task.peer_digests)}
        assert any(
            [position[peer.digest] for peer in neighbors]
            != sorted(position[peer.digest] for peer in neighbors)
            for neighbors in new.edges.values()
        )


class TestCrawlWorkGuard:
    #: bisect calls allowed per crawled peer, per bucket of sweep depth
    #: (a selection that re-narrows the peer's own prefix on every
    #: bucket makes ~8.6 at 600 servers: quadratic in the depth).
    PER_BUCKET = 4

    def test_bisects_per_peer_linear_in_depth(self, large_crawl_task, monkeypatch):
        calls = [0]

        def counting_bisect_left(*args):
            calls[0] += 1
            return bisect_left(*args)

        monkeypatch.setattr(crawler_module, "bisect_left", counting_bisect_left)
        monkeypatch.setattr(keys_module, "bisect_left", counting_bisect_left)
        snapshot = execute_crawl_task(large_crawl_task)
        depth = int(math.log2(max(large_crawl_task.oracle_size, 2))) + 6
        assert calls[0] <= self.PER_BUCKET * depth * len(snapshot.edges)


FETCH_TRACE_NAMES = ("providers.fetch", "lookup.find_providers", "lookup.round", "msg.query")


def _traced(overlay: Overlay, fn) -> list:
    tracer = Tracer(origin="parity", clock=lambda: overlay.now, capacity=1 << 20)
    with use_observer(Observer(tracer=tracer)):
        fn()
    assert tracer.dropped == 0
    records = [r for r in tracer.records() if r.get("name") in FETCH_TRACE_NAMES]
    return deterministic_trace_view(records)


class TestTraceParity:
    def test_fetch_trace_matches_oracle(self, overlay_and_cids):
        overlay, cids = overlay_and_cids
        fetcher = ProviderRecordFetcher(overlay, rng=random.Random(5), timeout=TIMEOUT)
        new = _traced(overlay, lambda: fetcher.fetch_many(cids))
        rng = random.Random(5)
        old = _traced(overlay, lambda: [oracle_fetch(overlay, rng, cid) for cid in cids])
        assert new == old
        assert {record[2] for record in new} == set(FETCH_TRACE_NAMES)


class TestPeerIDHashGuard:
    #: PeerID hashes allowed per returned provider record: one registry
    #: prune, the reachability lookup and a relay set plus its lookup.
    PER_RECORD = 4

    def test_fetch_hashes_scale_with_records_not_messages(self, overlay_and_cids, monkeypatch):
        """The walk loop hashes no PeerID: whatever hashing a fetch does
        is bounded per returned record, however many messages it sent
        (a walk keyed by PeerID hashes each of the ~k peers every
        answer carries), and a fetch that finds no record hashes none."""
        overlay, cids = overlay_and_cids
        fetcher = ProviderRecordFetcher(overlay, rng=random.Random(9), timeout=TIMEOUT)
        original = PeerID.__hash__
        calls = [0]

        def counting_hash(peer):
            calls[0] += 1
            return original(peer)

        monkeypatch.setattr(PeerID, "__hash__", counting_hash)
        observations = fetcher.fetch_many(cids)
        hashed = calls[0]
        calls[0] = 0
        unprovided = fetcher.fetch_many([o.cid for o in observations if not o.records])
        monkeypatch.setattr(PeerID, "__hash__", original)

        records = sum(len(o.records) for o in observations)
        messages = sum(o.walk_messages for o in observations)
        assert records > 0 and messages > records
        assert hashed <= self.PER_RECORD * records
        assert unprovided and sum(o.walk_messages for o in unprovided) > 0
        assert calls[0] == 0
