"""Key-based routing tables against the PeerID tables they replaced.

The oracle below is the earlier implementation: k-buckets and routing
tables holding :class:`PeerID` objects, holder book-keeping keyed by peer
ID, and the overlay maintenance paths on top of them (bucket fill on
join, join-time insertion into neighbours' tables, eviction, aggressive
self-insertion, refresh and departure).  ``ParentOverlay`` swaps exactly
those paths into a live :class:`Overlay` and runs every refresh pass in
full; everything else (registration, churn drivers) is shared.  Driven
from the same seed, the live overlay (skipping certified buckets and
clean tables) and the oracle must agree on every bucket in order, on the
in-degrees, on the shared RNG stream and on what a crawl freezes.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from hypothesis import Phase, given, settings, strategies as st

from repro.attack.orchestrator import ATTACKER_BEHAVIOR
from repro.core.crawler import DEFAULT_TIMEOUT, CrawlTask, freeze_crawl_task
from repro.ids.keys import KEY_BITS, bucket_index, select_closest
from repro.ids.peerid import PeerID
from repro.netsim.churn import ChurnProcess, DailyAddressRotation, PresenceAdvertiser
from repro.netsim.clock import SECONDS_PER_HOUR
from repro.netsim.network import Overlay
from repro.netsim.node import Node
from repro.obs import observer as obs
from repro.world.population import NodeClass, NodeSpec, build_world
from repro.world.profiles import WorldProfile

SERVERS = 80


# ---------------------------------------------------------------------------
# oracle: the PeerID k-buckets and routing table
# ---------------------------------------------------------------------------


@dataclass
class ParentKBucket:
    capacity: int = 20
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
        if peer in self._peers:
            del self._peers[peer]
            self._peers[peer] = None
            return True
        if self.is_full:
            return False
        self._peers[peer] = None
        return True

    def remove(self, peer: PeerID) -> bool:
        if peer in self._peers:
            del self._peers[peer]
            return True
        return False

    def oldest(self) -> Optional[PeerID]:
        return next(iter(self._peers), None)


class ParentRoutingTable:
    def __init__(self, owner: PeerID, bucket_size: int = 20) -> None:
        self.owner = owner
        self.bucket_size = bucket_size
        self._buckets: Dict[int, ParentKBucket] = {}
        self._peer_buckets: Dict[PeerID, int] = {}
        self._sorted_keys: List[int] = []
        self._peer_by_key: Dict[int, PeerID] = {}
        self._key_collision = False

    def __len__(self) -> int:
        return len(self._peer_buckets)

    def __contains__(self, peer: PeerID) -> bool:
        return peer in self._peer_buckets

    def bucket_index_for(self, peer: PeerID) -> int:
        return bucket_index(self.owner.dht_key, peer.dht_key)

    def bucket(self, index: int) -> ParentKBucket:
        if index not in self._buckets:
            self._buckets[index] = ParentKBucket(capacity=self.bucket_size)
        return self._buckets[index]

    def add(self, peer: PeerID) -> bool:
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
        return list(self._peer_buckets)

    def nonempty_buckets(self) -> List[int]:
        return sorted(index for index, bucket in self._buckets.items() if len(bucket) > 0)

    def closest_keys(self, key: int, count: int) -> List[int]:
        if self._key_collision:
            ordered = sorted(self._peer_buckets, key=lambda peer: peer.dht_key ^ key)
            return [peer.dht_key for peer in ordered[:count]]
        return select_closest(self._sorted_keys, key, count)


def _sample_range_info(oracle, prefix, prefix_len, count, rng):
    """The oracle's bucket sampler as it was: peer IDs, not keys."""
    low_index, high_index = oracle.range_bounds(prefix, prefix_len)
    size = high_index - low_index
    if size <= 0:
        return [], False
    if size <= count:
        chosen = range(low_index, high_index)
        consumed_rng = False
    else:
        chosen = rng.sample(range(low_index, high_index), count)
        consumed_rng = True
    keys = oracle._keys
    by_key = oracle._by_key
    return [by_key[keys[index]] for index in chosen], consumed_rng


# ---------------------------------------------------------------------------
# oracle: the overlay maintenance paths over PeerID tables
# ---------------------------------------------------------------------------


class ParentOverlay(Overlay):
    """An overlay whose tables, holders and maintenance run on peer IDs,
    refreshing every table in full."""

    def __init__(self, world) -> None:
        super().__init__(world)
        self.refresh_skip_enabled = False

    def take_offline(self, node: Node) -> None:
        if not node.online:
            return
        node.online = False
        if node.peer is not None:
            self.online_by_peer.pop(node.peer, None)
            if node.is_dht_server:
                self._unregister_server(node)
            else:
                self._online_clients.pop(node.peer, None)
        node.relay = None
        if node.routing_table is not None:
            for peer in node.routing_table.peers():
                holders = self._holders.get(peer)
                if holders is not None:
                    holders.discard(node)
            node.routing_table = None
        obs.inc("netsim.sessions_ended")

    def _fill_routing_table(self, node: Node) -> None:
        table = ParentRoutingTable(node.peer, bucket_size=self.k)
        own = node.peer.dht_key
        empty_streak = 0
        max_depth = self._expected_depth() + 8
        for bucket_idx in range(KEY_BITS):
            shift = KEY_BITS - bucket_idx - 1
            prefix_base = (((own >> shift) ^ 1) << shift)
            peers, _ = _sample_range_info(self.oracle, prefix_base, bucket_idx + 1, self.k, self.rng)
            found = False
            for peer in peers:
                if peer != node.peer and table.add(peer):
                    self._holders.setdefault(peer, set()).add(node)
                    found = True
            if found:
                empty_streak = 0
            else:
                empty_streak += 1
                if bucket_idx > max_depth and empty_streak >= 3:
                    break
        node.routing_table = table

    def _join_dht(self, node: Node) -> None:
        self._fill_routing_table(node)
        for neighbor_peer in self.oracle.closest(node.peer.dht_key, self.k):
            self._try_table_insert(self.online_by_peer.get(neighbor_peer), node.peer)
        contacted = min(len(self.online_by_peer), 24)
        for neighbor_peer in self.rng.sample(list(self.online_by_peer), contacted):
            neighbor = self.online_by_peer[neighbor_peer]
            if neighbor.is_dht_server:
                self._try_table_insert(neighbor, node.peer)

    def _try_table_insert(self, holder, peer, force_prob: float = 0.0) -> bool:
        if (
            holder is None
            or not holder.online
            or holder.routing_table is None
            or peer == holder.peer
        ):
            return False
        table = holder.routing_table
        bucket = table.bucket(table.bucket_index_for(peer))
        if bucket.is_full and peer not in bucket:
            oldest = bucket.oldest()
            if oldest is not None and (
                oldest not in self.online_by_peer or self.rng.random() < force_prob
            ):
                table.remove(oldest)
                holders = self._holders.get(oldest)
                if holders is not None:
                    holders.discard(holder)
        if table.add(peer):
            self._holders.setdefault(peer, set()).add(holder)
            return True
        return False

    def advertise_presence(self, node: Node, attempts: int = 40) -> int:
        if not node.online or node.peer is None:
            return 0
        inserted = 0
        servers = self.online_servers()
        if not servers:
            return 0
        for target in self.rng.sample(servers, min(attempts, len(servers))):
            if self._try_table_insert(target, node.peer, force_prob=0.35):
                inserted += 1
        return inserted

    def refresh_node(self, node: Node) -> None:
        if not node.online or node.routing_table is None:
            return
        table = node.routing_table
        online = self.online_by_peer
        rng = self.rng
        for peer in table.peers():
            if peer not in online:
                if rng.random() < self.stale_detect_prob:
                    table.remove(peer)
                    holders = self._holders.get(peer)
                    if holders is not None:
                        holders.discard(node)
        own = node.peer.dht_key
        depth = min(self._expected_depth() + 4, KEY_BITS)
        for bucket_idx in range(depth):
            bucket = table.bucket(bucket_idx)
            missing = self.k - len(bucket)
            if missing <= 0:
                continue
            shift = KEY_BITS - bucket_idx - 1
            prefix_base = (((own >> shift) ^ 1) << shift)
            peers, _ = _sample_range_info(
                self.oracle, prefix_base, bucket_idx + 1, missing * 2, rng
            )
            for peer in peers:
                if peer != node.peer and peer not in bucket and table.add(peer):
                    self._holders.setdefault(peer, set()).add(node)

    def in_degrees(self) -> Dict[PeerID, int]:
        counts: Dict[PeerID, int] = {}
        for peer, holders in self._holders.items():
            live_holders = sum(1 for holder in holders if holder.online)
            if live_holders:
                counts[peer] = live_holders
        return counts


def parent_freeze_crawl_task(overlay: ParentOverlay, crawl_id: int, *, seed: int) -> CrawlTask:
    """The crawl freeze as it was: interning peer IDs from PeerID tables."""
    index_of: Dict[PeerID, int] = {}
    peers: List[PeerID] = []

    def intern(peer: PeerID) -> int:
        index = index_of.get(peer)
        if index is None:
            index = len(peers)
            index_of[peer] = index
            peers.append(peer)
        return index

    servers: Dict[int, Tuple[bool, float]] = {}
    tables: Dict[int, Tuple[int, ...]] = {}
    stable_pool: List[int] = []
    server_pool: List[int] = []
    for node in overlay.online_servers():
        index = intern(node.peer)
        server_pool.append(index)
        if node.spec.platform is not None:
            stable_pool.append(index)
        servers[index] = (node.reachable, node.response_latency)
        table = node.routing_table
        tables[index] = (
            tuple(intern(peer) for peer in table.peers()) if table is not None else ()
        )
    ips: List[Tuple[str, ...]] = []
    for peer in peers:
        info = overlay.last_info(peer)
        if info is None:
            ips.append(())
        else:
            ips.append(tuple(sorted({addr.ip for addr in info.addrs if not addr.is_circuit})))
    return CrawlTask(
        crawl_id=crawl_id,
        seed=seed,
        started_at=overlay.now,
        timeout=DEFAULT_TIMEOUT,
        bootstrap_size=8,
        k=overlay.k,
        oracle_size=len(overlay.oracle),
        peer_digests=tuple(peer.digest for peer in peers),
        dht_keys=tuple(peer.dht_key for peer in peers),
        ips=tuple(ips),
        servers=servers,
        tables=tables,
        stable_pool=tuple(stable_pool),
        server_pool=tuple(server_pool),
    )


# ---------------------------------------------------------------------------
# driving both overlays
# ---------------------------------------------------------------------------


def _inject(overlay: Overlay, seed: int) -> Node:
    """Late node with a chosen identity (the attack-injection hooks),
    brought online and advertised by hand."""
    world = overlay.world
    block = world.allocator.allocate_block("parity-vps", "NL", is_cloud=True)
    spec = NodeSpec(
        index=max(spec.index for spec in world.specs) + 1,
        node_class=NodeClass.CLOUD_STABLE,
        organisation="parity-vps",
        country="NL",
        blocks=(block,),
        behavior=ATTACKER_BEHAVIOR,
        activity_weight=0.0,
    )
    world.specs.append(spec)
    node = overlay.add_node(spec)
    overlay.adopt_identity(node, PeerID.generate(random.Random(seed)))
    overlay.bring_online(node)
    overlay.advertise_presence(node, attempts=60)
    return node


def _buckets(table, key_of) -> List[Tuple[int, List[int]]]:
    return [(index, [key_of(entry) for entry in table.bucket(index)])
            for index in table.nonempty_buckets()]


def fingerprint(overlay: Overlay, crawl_id: int) -> dict:
    """Everything the table code decides, with peer IDs mapped to keys."""
    parent = isinstance(overlay, ParentOverlay)
    key_of = (lambda peer: peer.dht_key) if parent else (lambda key: key)
    tables = {}
    for node in overlay.online_servers():
        table = node.routing_table
        entries = table.peers() if parent else table.keys()
        tables[node.spec.index] = ([key_of(entry) for entry in entries], _buckets(table, key_of))
    freeze = parent_freeze_crawl_task if parent else freeze_crawl_task
    return {
        "tables": tables,
        "in_degrees": overlay.in_degrees(),
        "rng": overlay.rng.getstate(),
        "task": freeze(overlay, crawl_id, seed=crawl_id),
    }


def drive(overlay_cls, seed: int, probe: Callable[[Overlay], None] = lambda overlay: None) -> List[dict]:
    """Bootstrap, then a day and a half of churn, presence advertising,
    daily address rotation and 6-hourly refreshes, with a late injected
    node that leaves and rejoins; fingerprint (and ``probe``) the overlay
    at each checkpoint."""
    world = build_world(WorldProfile(online_servers=SERVERS, seed=seed))
    overlay = overlay_cls(world)
    overlay.bootstrap()
    overlay.schedule_periodic_refresh()
    ChurnProcess(overlay).start()
    PresenceAdvertiser(overlay).start()
    DailyAddressRotation(overlay).start()
    scheduler = overlay.scheduler
    injected = []
    scheduler.schedule_in(7 * SECONDS_PER_HOUR, lambda: injected.append(_inject(overlay, seed)))
    scheduler.schedule_in(20 * SECONDS_PER_HOUR, lambda: overlay.take_offline(injected[0]))
    scheduler.schedule_in(29 * SECONDS_PER_HOUR, lambda: overlay.bring_online(injected[0]))
    fingerprints = []

    def checkpoint(crawl_id: int) -> None:
        probe(overlay)
        fingerprints.append(fingerprint(overlay, crawl_id))

    checkpoint(0)
    for crawl_id, hours in enumerate((5, 13, 25, 36), start=1):
        scheduler.run_until(hours * SECONDS_PER_HOUR)
        checkpoint(crawl_id)
        overlay.refresh_all()
        checkpoint(crawl_id)
    return fingerprints


class TestTableParity:
    # A seed has no smaller "simpler" form: report the failing one as is.
    @settings(max_examples=3, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(seed=st.integers(min_value=0, max_value=2**20))
    def test_maintenance_matches_peerid_tables(self, seed):
        new = drive(Overlay, seed)
        old = drive(ParentOverlay, seed)
        assert len(new) == len(old)
        for checkpoint, (got, want) in enumerate(zip(new, old)):
            # Names only: a diff of two whole overlays is unreadable.
            mismatched = [name for name in want if got[name] != want[name]]
            assert not mismatched, (checkpoint, mismatched)

    def test_scenario_reaches_stale_clean_and_injected_states(self):
        """The driven scenario reaches the states the parity test pins:
        stale entries, clean tables, certified buckets, and
        the injected identity stored in other nodes' tables."""
        seed = 5
        clean_tables: List[int] = []
        certificates: List[int] = []

        def probe(overlay: Overlay) -> None:
            servers = overlay.online_servers()
            clean_tables.append(sum(not node.stale_entries for node in servers))
            certificates.append(sum(node.certified_buckets.bit_count() for node in servers))

        fingerprints = drive(Overlay, seed, probe)
        injected_key = PeerID.generate(random.Random(seed)).dht_key

        def stale(fp) -> int:
            task = fp["task"]
            online = {task.dht_keys[index] for index in task.servers}
            return sum(
                key not in online for entries, _ in fp["tables"].values() for key in entries
            )

        assert any(stale(fp) for fp in fingerprints)
        assert any(clean_tables) and any(certificates)
        assert any(
            injected_key in entries
            for fp in fingerprints
            for entries, _ in fp["tables"].values()
        )


# ---------------------------------------------------------------------------
# work-count guard: no PeerID in the k-buckets
# ---------------------------------------------------------------------------


class _PeerIDCalls:
    """Counts ``PeerID.__hash__`` and ``PeerID.__eq__`` calls."""

    def __init__(self, monkeypatch) -> None:
        self.count = 0
        original_hash = PeerID.__hash__
        original_eq = PeerID.__eq__

        def counting_hash(peer):
            self.count += 1
            return original_hash(peer)

        def counting_eq(peer, other):
            self.count += 1
            return original_eq(peer, other)

        monkeypatch.setattr(PeerID, "__hash__", counting_hash)
        monkeypatch.setattr(PeerID, "__eq__", counting_eq)

    def take(self) -> int:
        count, self.count = self.count, 0
        return count


def warmed(overlay_cls) -> Overlay:
    world = build_world(WorldProfile(online_servers=SERVERS, seed=77))
    overlay = overlay_cls(world)
    overlay.bootstrap()
    overlay.schedule_periodic_refresh()
    ChurnProcess(overlay).start()
    overlay.scheduler.run_until(10 * SECONDS_PER_HOUR)
    return overlay


#: PeerID hashes/compares one ``bring_online`` may make, whatever the
#: table sizes: identity assignment, registration in the peer-keyed
#: registries and the last-announcement record.
PER_JOIN = 12


class TestPeerIDWorkGuard:
    def test_refresh_and_presence_touch_no_peerid(self, monkeypatch):
        overlay = warmed(Overlay)
        servers = overlay.online_servers()
        for node in servers[:6]:
            overlay.take_offline(node)  # stale entries for the refresh to find
        presence = [n for n in overlay.online_servers() if n.spec.platform is not None][:3]
        assert presence
        state = overlay.rng.getstate()
        calls = _PeerIDCalls(monkeypatch)
        overlay.refresh_all()
        for node in presence:
            overlay.advertise_presence(node, attempts=80)
        assert calls.take() == 0
        assert overlay.rng.getstate() != state

    def test_bring_online_is_constant_per_join(self, monkeypatch):
        for overlay_cls, bounded in ((Overlay, True), (ParentOverlay, False)):
            overlay = warmed(overlay_cls)
            leavers = overlay.online_servers()[:10]
            for node in leavers:
                overlay.take_offline(node)
            calls = _PeerIDCalls(monkeypatch)
            per_join = []
            for node in leavers:
                overlay.bring_online(node)
                per_join.append(calls.take())
            monkeypatch.undo()
            # The guard bites: the PeerID tables pay per stored entry.
            assert (max(per_join) <= PER_JOIN) is bounded, per_join
