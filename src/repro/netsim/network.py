"""The simulated IPFS overlay.

The :class:`Overlay` owns every runtime node, the online registry, the
keyspace oracle, the provider-record registry and the routing-table
book-keeping (including *stale entries*: peers that went offline but are
still referenced in other peers' k-buckets, which is why DHT crawls
discover more peers than are crawlable — paper §3).

Hot-path note: the overlay maintains *incremental* indexes alongside the
``online_by_peer`` registry — the online DHT servers, the NAT clients and
the relay-capable servers, each in registration order.  Every index is a
strict subsequence of ``online_by_peer``'s insertion order, so list-valued
queries (``online_servers``, ``pick_relay``) return exactly what a filter
over the full registry would, without the O(N) scan — and, crucially, the
RNG draws made against those lists are bit-identical to the scan-based
implementation.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, insort
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.ids.cid import CID
from repro.ids.keys import KEY_BITS
from repro.ids.multiaddr import Multiaddr
from repro.ids.peerid import PeerID
from repro.kademlia.messages import PeerInfo
from repro.kademlia.providers import DEFAULT_RECORD_TTL, ProviderRecord
from repro.kademlia.routing_table import RoutingTable
from repro.netsim.clock import EventScheduler, SECONDS_PER_HOUR
from repro.netsim.node import Node
from repro.netsim.oracle import KeyspaceOracle
from repro.obs import observer as obs
from repro.world.population import NodeClass, NodeSpec, World


class ProviderRegistry:
    """Network-wide provider-record state.

    In the real network each record lives on the ~20 resolvers closest to
    the CID.  Storing 20 physical copies per record is pure memory overhead
    for the analyses, so the registry keeps one logical copy and answers
    "is this node currently a resolver for that CID?" via the keyspace
    oracle at query time (see DESIGN.md, fast-path substitutions).

    Pruning is lazy and per-CID: ``_oldest`` tracks the earliest
    ``published_at`` per CID so ``get`` can skip the expiry sweep entirely
    while nothing can have expired yet.
    """

    def __init__(self, ttl: float = DEFAULT_RECORD_TTL, max_per_cid: int = 200) -> None:
        self.ttl = ttl
        self.max_per_cid = max_per_cid
        self._records: Dict[CID, Dict[PeerID, ProviderRecord]] = {}
        #: earliest ``published_at`` per CID — lets ``get`` skip the prune
        #: entirely while nothing can have expired yet.
        self._oldest: Dict[CID, float] = {}

    def add(self, record: ProviderRecord) -> None:
        by_provider = self._records.setdefault(record.cid, {})
        by_provider[record.provider] = record
        oldest = self._oldest.get(record.cid)
        if oldest is None or record.published_at < oldest:
            self._oldest[record.cid] = record.published_at
        if len(by_provider) > self.max_per_cid:
            victim = min(by_provider.values(), key=lambda rec: rec.published_at)
            del by_provider[victim.provider]
            # The eviction may have removed the record behind ``_oldest``;
            # a stale floor would force a futile full prune on every
            # subsequent ``get``, so recompute it from the survivors.
            self._oldest[record.cid] = min(
                rec.published_at for rec in by_provider.values()
            )

    def _prune(self, cid: CID, now: float) -> None:
        by_provider = self._records.get(cid)
        if not by_provider:
            return
        alive = {
            provider: record
            for provider, record in by_provider.items()
            if now - record.published_at < self.ttl
        }
        if alive:
            self._records[cid] = alive
            self._oldest[cid] = min(record.published_at for record in alive.values())
        else:
            del self._records[cid]
            self._oldest.pop(cid, None)

    def get(self, cid: CID, now: float) -> List[ProviderRecord]:
        by_provider = self._records.get(cid)
        if not by_provider:
            return []
        if now - self._oldest.get(cid, now) >= self.ttl:
            self._prune(cid, now)
            by_provider = self._records.get(cid, {})
        return list(by_provider.values())

    def has_records(self, cid: CID, now: float) -> bool:
        by_provider = self._records.get(cid)
        if not by_provider:
            return False
        if now - self._oldest.get(cid, now) >= self.ttl:
            self._prune(cid, now)
            by_provider = self._records.get(cid)
        return bool(by_provider)

    def cids(self) -> List[CID]:
        return list(self._records)

    def __len__(self) -> int:
        return sum(len(by_provider) for by_provider in self._records.values())


class Overlay:
    """The global network state and its mechanics."""

    def __init__(
        self,
        world: World,
        scheduler: Optional[EventScheduler] = None,
        rng: Optional[random.Random] = None,
        k: int = 20,
        refresh_interval_hours: float = 6.0,
        stale_detect_prob: float = 0.85,
    ) -> None:
        self.world = world
        self.scheduler = scheduler or EventScheduler()
        self.rng = rng or random.Random(world.profile.seed + 1)
        self.k = k
        self.refresh_interval_hours = refresh_interval_hours
        self.stale_detect_prob = stale_detect_prob

        self.nodes: List[Node] = [Node(spec, self) for spec in world.specs]
        self.online_by_peer: Dict[PeerID, Node] = {}
        self.oracle = KeyspaceOracle()
        self.providers = ProviderRegistry()
        #: DHT key -> nodes whose routing table currently references it.
        self._holders: Dict[int, Set[Node]] = {}
        #: DHT key -> peer ID of every server that ever registered: the
        #: only place a key enters a routing table, so every table entry
        #: (stale ones included) resolves here.
        self._peer_of_key: Dict[int, PeerID] = {}
        #: last announced addresses per peer ID (stale peers keep theirs).
        self._last_infos: Dict[PeerID, PeerInfo] = {}
        #: persistent peer IDs per spec index (survive sessions w/o regen).
        self._persistent_peer: Dict[int, PeerID] = {}
        self._persistent_ips: Dict[int, List[int]] = {}
        #: whether a spec offers the circuit-relay service (stable trait).
        self._relay_capable: Dict[int, bool] = {}

        # -- incremental indexes (registration order) ----------------------
        #: online DHT servers (by DHT key, which the oracle keeps unique
        #: among them — the lookup walks dial by key) / NAT clients, each
        #: a subsequence of ``online_by_peer`` insertion order.
        self._online_servers: Dict[int, Node] = {}
        self._online_clients: Dict[PeerID, Node] = {}
        #: monotonic per-session sequence number of every online server —
        #: the sort key that keeps ``_relay_known`` in registration order.
        self._server_seq: Dict[PeerID, int] = {}
        self._session_counter = 0
        #: online servers known relay-capable, sorted by session sequence.
        self._relay_known: List[Tuple[int, Node]] = []
        #: online servers whose relay capability has not been sampled yet
        #: (capability RNG is drawn lazily at the next ``pick_relay``, in
        #: registration order — exactly when and where the scan-based
        #: implementation drew it).
        self._relay_unsampled: Dict[PeerID, Tuple[int, Node]] = {}
        #: static membership index (specs never change class at runtime).
        self._nodes_by_class: Dict[NodeClass, List[Node]] = {}
        for node in self.nodes:
            self._nodes_by_class.setdefault(node.node_class, []).append(node)

        # -- refresh-skip bookkeeping --------------------------------------
        #: maintenance passes are skipped for nodes whose last refresh was
        #: provably a no-op (zero RNG draws, zero table changes) and whose
        #: observable inputs have not changed since; see ``refresh_node``.
        self.refresh_skip_enabled = True
        self._refresh_clean: Set[Node] = set()
        #: (prefix_len -> prefix_base -> clean nodes whose under-full
        #: buckets cover that subtree): a server joining inside a watched
        #: range invalidates the watchers.
        self._watch_index: Dict[int, Dict[int, Set[Node]]] = {}
        self._node_watches: Dict[Node, List[Tuple[int, int]]] = {}
        self._refresh_depth = self._expected_depth()

    # ------------------------------------------------------------------
    # clock helpers
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.scheduler.clock.now

    def nodes_of_class(self, node_class: NodeClass) -> List[Node]:
        return list(self._nodes_by_class.get(node_class, ()))

    def online_servers(self) -> List[Node]:
        return list(self._online_servers.values())

    def online_nat_clients(self) -> List[Node]:
        return list(self._online_clients.values())

    # ------------------------------------------------------------------
    # late node injection (adversarial scenarios)
    # ------------------------------------------------------------------

    def add_node(self, spec: NodeSpec) -> Node:
        """Register a node created after construction (attack injection).

        The node joins every static index but starts offline; callers
        bring it online through the normal session mechanics.  Spec
        indexes must stay unique — the persistent identity and relay
        capability maps key on them.
        """
        if any(existing.spec.index == spec.index for existing in self.nodes):
            raise ValueError(f"spec index {spec.index} already registered")
        node = Node(spec, self)
        self.nodes.append(node)
        self._nodes_by_class.setdefault(node.node_class, []).append(node)
        return node

    def adopt_identity(self, node: Node, peer: PeerID) -> None:
        """Pin the peer ID ``node`` will use for its next sessions.

        This is the hook for adversaries that *choose* their identities
        (ground sybil IDs, churn-bomb fresh IDs) instead of drawing them
        from the overlay RNG: the pinned ID is installed as the node's
        persistent identity, so a subsequent ``bring_online`` adopts it
        without consuming any shared randomness.
        """
        if node.online:
            raise ValueError("cannot adopt an identity while the node is online")
        self._persistent_peer[node.spec.index] = peer

    # ------------------------------------------------------------------
    # join / leave mechanics
    # ------------------------------------------------------------------

    def _assign_identity(self, node: Node, rotate_ip: bool, regen_peer: bool) -> None:
        spec = node.spec
        if regen_peer or spec.index not in self._persistent_peer:
            self._persistent_peer[spec.index] = PeerID.generate(self.rng)
        node.peer = self._persistent_peer[spec.index]
        if rotate_ip or spec.index not in self._persistent_ips:
            allocator = self.world.allocator
            ips = []
            for position in range(spec.num_addrs):
                block = spec.blocks[position % len(spec.blocks)]
                try:
                    ips.append(allocator.next_address(block))
                except RuntimeError:
                    ips.append(allocator.random_address(block, self.rng))
            self._persistent_ips[spec.index] = ips
        node.ips = list(self._persistent_ips[spec.index])
        node.invalidate_addr_cache()

    def _register_server(self, node: Node) -> None:
        """Index an online DHT server (registration order) and join the
        keyspace oracle."""
        peer = node.peer
        key = peer.dht_key
        seq = self._session_counter
        self._session_counter += 1
        self._server_seq[peer] = seq
        self._online_servers[key] = node
        self._peer_of_key[key] = peer
        capable = self._relay_capable.get(node.spec.index)
        if capable is None:
            self._relay_unsampled[peer] = (seq, node)
        elif capable:
            # ``seq`` is the largest so far: appending keeps the sort.
            self._relay_known.append((seq, node))
        self.oracle.add(peer)
        self._note_oracle_change(added_key=key)

    def _unregister_server(self, node: Node) -> None:
        self.oracle.remove(node.peer)
        seq = self._server_seq.pop(node.peer, None)
        self._online_servers.pop(node.peer.dht_key, None)
        self._relay_unsampled.pop(node.peer, None)
        if seq is not None and self._relay_capable.get(node.spec.index):
            position = bisect_left(self._relay_known, (seq,))
            if (
                position < len(self._relay_known)
                and self._relay_known[position][0] == seq
            ):
                del self._relay_known[position]
        self._note_oracle_change()

    def bring_online(
        self, node: Node, rotate_ip: bool = False, regen_peer: bool = False
    ) -> None:
        """Start a session for ``node``: identity, registration, DHT join."""
        if node.online:
            return
        self._assign_identity(node, rotate_ip, regen_peer)
        node.sample_session_traits(self.rng)
        node.online = True
        node.session_started_at = self.now
        node.sessions_seen += 1
        if node.peer in self.online_by_peer:
            # Peer-ID collision from a returning identity raced by a ghost;
            # regenerate to keep the registry one-to-one.
            self._assign_identity(node, rotate_ip, regen_peer=True)
        self.online_by_peer[node.peer] = node
        if not node.is_dht_server:
            self._online_clients[node.peer] = node
            node.relay = self.pick_relay(exclude=node)
            if node.relay is not None and obs.get_tracer().enabled:
                self._trace_relay(node, node.relay)
        else:
            self._register_server(node)
        self._last_infos[node.peer] = node.peer_info()
        if node.is_dht_server:
            self._join_dht(node)
        obs.inc("netsim.sessions_started")

    def rotate_addresses(self, node: Node) -> None:
        """Mid-session DHCP re-lease: the node's addresses change while it
        stays online with the same peer ID."""
        if not node.online or node.peer is None:
            return
        allocator = self.world.allocator
        spec = node.spec
        ips = []
        for position in range(spec.num_addrs):
            block = spec.blocks[position % len(spec.blocks)]
            try:
                ips.append(allocator.next_address(block))
            except RuntimeError:
                ips.append(allocator.random_address(block, self.rng))
        self._persistent_ips[spec.index] = ips
        node.ips = list(ips)
        node.invalidate_addr_cache()
        self._last_infos[node.peer] = node.peer_info()

    def take_offline(self, node: Node) -> None:
        """End the session: unregister; stale table entries linger."""
        if not node.online:
            return
        node.online = False
        if node.peer is not None:
            self.online_by_peer.pop(node.peer, None)
            if node.is_dht_server:
                self._unregister_server(node)
            else:
                self._online_clients.pop(node.peer, None)
            # Everyone referencing the departed peer now has a stale table
            # entry: their next maintenance pass is no longer a no-op.
            holders = self._holders.get(node.peer.dht_key)
            if holders:
                for holder in list(holders):
                    self._mark_refresh_dirty(holder)
        node.relay = None
        # Routing-table state of the departed node is dropped; peers that
        # reference it keep a stale entry until their next refresh.
        if node.routing_table is not None:
            all_holders = self._holders
            for key in node.routing_table.keys():
                holders = all_holders.get(key)
                if holders is not None:
                    holders.discard(node)
            node.routing_table = None
        self._mark_refresh_dirty(node)
        obs.inc("netsim.sessions_ended")

    # ------------------------------------------------------------------
    # DHT join, refresh, stale handling
    # ------------------------------------------------------------------

    def _expected_depth(self) -> int:
        size = max(len(self.oracle), 2)
        return int(math.log2(size)) + 1

    def _fill_routing_table(self, node: Node) -> None:
        """Populate the joiner's k-buckets.

        Fast path equivalent of the self-lookup walk a joining node
        performs: each bucket is filled with up to ``k`` random online
        servers from that bucket's subtree (see DESIGN.md).
        """
        own = node.peer.dht_key
        table = RoutingTable(own, bucket_size=self.k)
        empty_streak = 0
        max_depth = self._expected_depth() + 8
        for bucket_idx in range(KEY_BITS):
            shift = KEY_BITS - bucket_idx - 1
            prefix_base = (((own >> shift) ^ 1) << shift)
            keys = self.oracle.sample_range(prefix_base, bucket_idx + 1, self.k, self.rng)
            if self._store_keys(node, table, bucket_idx, keys):
                empty_streak = 0
            else:
                empty_streak += 1
                if bucket_idx > max_depth and empty_streak >= 3:
                    break
        node.routing_table = table

    def _store_keys(
        self, node: Node, table: RoutingTable, bucket_idx: int, keys: Sequence[int]
    ) -> bool:
        """Top up ``node``'s bucket ``bucket_idx`` from ``keys`` (all of its
        subtree) and record ``node`` as the holder of each key stored;
        returns whether any key was stored."""
        stored = table.top_up(bucket_idx, keys)
        holders = self._holders
        for key in stored:
            key_holders = holders.get(key)
            if key_holders is None:
                holders[key] = {node}
            else:
                key_holders.add(node)
        return bool(stored)

    def _join_dht(self, node: Node) -> None:
        self._fill_routing_table(node)
        # The join walk makes the newcomer known: the k closest peers store
        # it in their (near, sparse) buckets, and a handful of random peers
        # contacted along the way may opportunistically add it.
        key = node.peer.dht_key
        servers = self._online_servers
        for neighbor_key in self.oracle.closest_keys(key, self.k):
            self._try_table_insert(servers[neighbor_key], key)
        online = self.online_by_peer
        # Sampling the registry's nodes draws exactly what sampling its
        # peer IDs would: ``sample`` only looks at the population size.
        for neighbor in self.rng.sample(list(online.values()), min(len(online), 24)):
            if neighbor.is_dht_server:
                self._try_table_insert(neighbor, key)

    def _try_table_insert(self, holder: Node, key: int, force_prob: float = 0.0) -> bool:
        """Attempt to place the server ``key`` into ``holder``'s table.

        Classic Kademlia only evicts dead entries; ``force_prob`` models
        modified, aggressively connected clients that stay at the fresh
        end of buckets and eventually displace the incumbent.
        """
        table = holder.routing_table
        if not holder.online or table is None:
            return False
        owner = table.owner_key
        if key == owner:
            return False
        index = KEY_BITS - (owner ^ key).bit_length()
        bucket = table.bucket(index)
        if key in bucket:
            bucket.add(key)  # seen again: move to the most-recently-seen end
            return True
        if bucket.is_full:
            # Kademlia evicts an entry only if it is dead; check the oldest.
            # Table entries are all servers: dead means "no online server
            # holds the key".
            oldest = bucket.oldest()
            if oldest in self._online_servers and self.rng.random() >= force_prob:
                return False
            table.remove(oldest)
            holders = self._holders.get(oldest)
            if holders is not None:
                holders.discard(holder)
        self._store_keys(holder, table, index, (key,))
        self._mark_refresh_dirty(holder)
        return True

    def advertise_presence(self, node: Node, attempts: int = 40) -> int:
        """Aggressive self-insertion used by modified clients (e.g. the
        Filebase nodes the paper finds at the top of the in-degree
        distribution, §4).  A modified client keeps its connections warm,
        so it occasionally displaces the least-recently seen incumbent."""
        if not node.online or node.peer is None:
            return 0
        servers = self.online_servers()
        if not servers:
            return 0
        key = node.peer.dht_key
        inserted = 0
        for target in self.rng.sample(servers, min(attempts, len(servers))):
            if self._try_table_insert(target, key, force_prob=0.35):
                inserted += 1
        return inserted

    # -- refresh-skip bookkeeping --------------------------------------

    def _mark_refresh_dirty(self, node: Node) -> None:
        """Forget that ``node``'s next maintenance pass would be a no-op."""
        if node not in self._refresh_clean:
            return
        self._refresh_clean.discard(node)
        for prefix_len, base in self._node_watches.pop(node, ()):
            by_base = self._watch_index.get(prefix_len)
            if by_base is None:
                continue
            watchers = by_base.get(base)
            if watchers is None:
                continue
            watchers.discard(node)
            if not watchers:
                del by_base[base]
                if not by_base:
                    del self._watch_index[prefix_len]

    def _note_oracle_change(self, added_key: Optional[int] = None) -> None:
        """React to oracle membership changes.

        A change of the expected trie depth alters which buckets a refresh
        pass inspects, so every no-op certificate is voided.  A *join*
        additionally invalidates the clean nodes whose under-full buckets
        cover the newcomer's subtree (their next top-up would store it).
        Departures need no extra handling: a clean node's under-full
        buckets contain *every* server of their subtree, so a departure
        from such a range is always a departure of a held peer — covered
        by the holder invalidation in :meth:`take_offline`.
        """
        depth = self._expected_depth()
        if depth != self._refresh_depth:
            self._refresh_depth = depth
            if self._refresh_clean:
                self._refresh_clean.clear()
                self._node_watches.clear()
                self._watch_index.clear()
        if added_key is not None and self._watch_index:
            for prefix_len, by_base in list(self._watch_index.items()):
                shift = KEY_BITS - prefix_len
                base = (added_key >> shift) << shift
                watchers = by_base.get(base)
                if watchers:
                    for watcher in list(watchers):
                        self._mark_refresh_dirty(watcher)

    def refresh_node(self, node: Node) -> None:
        """One maintenance pass: evict dead entries, top up buckets.

        The pass also determines whether it was a *no-op* — no RNG drawn,
        no table change.  If so, the node is marked clean and its
        under-full bucket ranges are registered as watches; until churn
        touches the node's table, its depth assumptions or a watched
        range, ``refresh_all`` may skip it without perturbing either the
        network state or the shared RNG stream.
        """
        if not node.online or node.routing_table is None:
            return
        self._mark_refresh_dirty(node)
        table = node.routing_table
        servers = self._online_servers
        holders = self._holders
        rng = self.rng
        clean = True
        for key in table.keys():
            if key not in servers:
                clean = False
                if rng.random() < self.stale_detect_prob:
                    table.remove(key)
                    key_holders = holders.get(key)
                    if key_holders is not None:
                        key_holders.discard(node)
        own = table.owner_key
        watches: List[Tuple[int, int]] = []
        depth = min(self._expected_depth() + 4, KEY_BITS)
        k = self.k
        for bucket_idx in range(depth):
            bucket = table.bucket(bucket_idx)
            missing = k - len(bucket)
            if missing <= 0:
                continue
            shift = KEY_BITS - bucket_idx - 1
            prefix_base = (((own >> shift) ^ 1) << shift)
            keys, consumed_rng = self.oracle.sample_range_info(
                prefix_base, bucket_idx + 1, missing * 2, rng
            )
            if consumed_rng:
                clean = False
            if self._store_keys(node, table, bucket_idx, keys):
                clean = False
            if len(bucket) < k:
                watches.append((bucket_idx + 1, prefix_base))
        if clean and self.refresh_skip_enabled:
            self._refresh_clean.add(node)
            self._node_watches[node] = watches
            for prefix_len, base in watches:
                self._watch_index.setdefault(prefix_len, {}).setdefault(
                    base, set()
                ).add(node)

    def refresh_all(self) -> None:
        """A network-wide maintenance pass (run periodically by scenarios).

        Nodes whose previous pass was certified a no-op (see
        :meth:`refresh_node`) are skipped; skipping them changes neither
        the network state nor the RNG stream, so the simulation stays
        bit-identical to an unconditional full pass.
        """
        clean = self._refresh_clean if self.refresh_skip_enabled else ()
        refreshed = skipped = 0
        for node in self.online_servers():
            if node in clean:
                skipped += 1
                continue
            self.refresh_node(node)
            refreshed += 1
        obs.inc("netsim.refresh_passes")
        obs.inc("netsim.refresh_nodes", refreshed)
        obs.inc("netsim.refresh_skips", skipped)
        obs.set_gauge("netsim.online_servers", refreshed + skipped)

    def schedule_periodic_refresh(self) -> None:
        interval = self.refresh_interval_hours * SECONDS_PER_HOUR

        def tick() -> None:
            self.refresh_all()
            self.scheduler.schedule_in(interval, tick)

        self.scheduler.schedule_in(interval, tick)

    # ------------------------------------------------------------------
    # relays (circuit relay protocol, §2/§6)
    # ------------------------------------------------------------------

    #: Probability a node of a class offers the circuit-relay service.
    #: Stable home servers often enable it; ephemeral nodes and gateway
    #: pools rarely do.
    RELAY_CAPABILITY = {
        NodeClass.CLOUD_STABLE: 0.55,
        NodeClass.RESIDENTIAL_STABLE: 0.95,
        NodeClass.RESIDENTIAL_EPHEMERAL: 0.30,
        NodeClass.HYBRID: 0.80,
        NodeClass.PLATFORM: 0.90,
        NodeClass.GATEWAY: 0.20,
        NodeClass.NAT_CLIENT: 0.0,
    }

    def _is_relay_capable(self, node: Node) -> bool:
        if node.spec.index not in self._relay_capable:
            probability = self.RELAY_CAPABILITY[node.node_class]
            self._relay_capable[node.spec.index] = self.rng.random() < probability
        return self._relay_capable[node.spec.index]

    def _drain_relay_unsampled(self, exclude: Optional[Node]) -> None:
        """Sample relay capability for pending servers, in registration
        order — the draw order of the scan-based implementation.  The
        excluded node is left pending: the old scan short-circuited on it
        before sampling."""
        remaining: Dict[PeerID, Tuple[int, Node]] = {}
        for peer, entry in self._relay_unsampled.items():
            seq, node = entry
            if node is exclude:
                remaining[peer] = entry
                continue
            if self._is_relay_capable(node):
                insort(self._relay_known, entry)
        self._relay_unsampled = remaining

    def _relay_pool(self) -> List[Node]:
        """The current relay candidates, in registration order (no RNG is
        drawn for servers whose capability is already sampled)."""
        if self._relay_unsampled:
            self._drain_relay_unsampled(exclude=None)
        return [node for _, node in self._relay_known]

    def pick_relay(self, exclude: Optional[Node] = None) -> Optional[Node]:
        """A NAT-ed peer connects to a random relay-capable DHT server."""
        obs.inc("netsim.relay_picks")
        if self._relay_unsampled:
            self._drain_relay_unsampled(exclude)
        known = self._relay_known
        if not known:
            return None
        if (
            exclude is not None
            and exclude.online
            and exclude.peer is not None
            and self._relay_capable.get(exclude.spec.index)
            and exclude.peer in self._server_seq
        ):
            excluded_seq = self._server_seq[exclude.peer]
            pool = [node for seq, node in known if seq != excluded_seq]
            if not pool:
                return None
            return self.rng.choice(pool)
        return self.rng.choice(known)[1]

    def _trace_relay(self, node: Node, relay: Node) -> None:
        """Emit the relay-assignment event (caller guards on ``enabled``).

        The attrs restate the protocol law the auditor checks: relayed
        connectivity only exists between a NAT'd client and a
        relay-capable DHT server (paper §4).
        """
        obs.trace_event(
            "relay.assign",
            client_nat=not node.is_dht_server,
            relay_server=relay.is_dht_server,
            relay_online=relay.online,
        )

    def ensure_relay(self, node: Node) -> Optional[Node]:
        """NAT clients re-select their relay when it disappears."""
        if node.relay is None or not node.relay.online:
            node.relay = self.pick_relay(exclude=node)
            if node.peer is not None and node.relay is not None:
                self._last_infos[node.peer] = node.peer_info()
                if obs.get_tracer().enabled:
                    self._trace_relay(node, node.relay)
        return node.relay

    # ------------------------------------------------------------------
    # queries (used by the measurement tooling)
    # ------------------------------------------------------------------

    def last_info(self, peer: PeerID) -> Optional[PeerInfo]:
        """The last-announced :class:`PeerInfo` for ``peer``, if any
        (stale peers keep their final announcement)."""
        return self._last_infos.get(peer)

    def dial(self, peer: PeerID, timeout: float = 180.0) -> Optional[Node]:
        """Attempt to connect to a peer; None models a failed/timed-out dial."""
        return self._dial_key(peer.dht_key, timeout)

    def _trace_message(self, kind: str, node: Optional[Node]) -> None:
        """Emit the per-message trace event (caller guards on ``enabled``).

        ``sent``/``recv`` are simulated timestamps: a reply arrives one
        responder latency after the request leaves; a failed dial is
        observed as an instantaneous timeout at the querier.
        """
        now = self.now
        if node is None:
            obs.trace_event("msg.query", kind=kind, ok=False, sent=now, recv=now)
        else:
            obs.trace_event(
                "msg.query", kind=kind, ok=True, sent=now, recv=now + node.response_latency
            )

    def _dial_key(self, key: int, timeout: float) -> Optional[Node]:
        """:meth:`dial` by DHT key: the online DHT server holding ``key``,
        if it answers within ``timeout`` (stale keys dial nobody)."""
        node = self._online_servers.get(key)
        if node is None or not node.reachable or node.response_latency > timeout:
            return None
        return node

    def find_node_query(self, timeout: float = 180.0):
        """A :func:`repro.kademlia.lookup` FIND_NODE callable over this
        overlay: dials by key and answers from the responder's sorted
        routing-table keys (stale entries included — they are what the
        DHT still hands out)."""
        dial = self._dial_key
        k = self.k

        def query(key: int, target_key: int):
            node = dial(key, timeout)
            if obs.get_tracer().enabled:
                self._trace_message("find_node", node)
            if node is None:
                return None
            table = node.routing_table
            return table.closest_keys(target_key, k) if table is not None else []

        return query

    def get_providers_query(self, timeout: float = 180.0):
        """A :func:`repro.kademlia.lookup` GET_PROVIDERS callable: closer
        peers as in :meth:`find_node_query`, plus the CID's records when
        the responder is one of its resolvers (the ``k`` closest online
        servers).  The resolver key set is built on a walk's first answer
        and kept while the CID and the oracle membership stay the same."""
        dial = self._dial_key
        k = self.k
        oracle = self.oracle
        #: (cid, oracle generation, resolver keys) of the walk in progress.
        resolvers = (None, -1, frozenset())

        def query(key: int, cid: CID):
            nonlocal resolvers
            node = dial(key, timeout)
            if obs.get_tracer().enabled:
                self._trace_message("get_providers", node)
            if node is None:
                return None
            target_key = cid.dht_key
            resolver_cid, generation, members = resolvers
            if resolver_cid is not cid or generation != oracle.generation:
                members = frozenset(oracle.closest_keys(target_key, k))
                resolvers = (cid, oracle.generation, members)
            records = self.providers.get(cid, self.now) if key in members else []
            table = node.routing_table
            closer = table.closest_keys(target_key, k) if table is not None else []
            return records, closer

        return query

    def provider_records_at(self, node: Node, cid: CID) -> List[ProviderRecord]:
        """Records ``node`` would return for ``cid`` — only resolvers
        (the k closest servers to the CID) hold them."""
        if node.peer is None or node.peer not in self.resolvers_for(cid):
            return []
        return self.providers.get(cid, self.now)

    def resolvers_for(self, cid: CID) -> List[PeerID]:
        """The CID's resolvers: the ``k`` online servers closest to it."""
        return self.oracle.closest(cid.dht_key, self.k)

    # ------------------------------------------------------------------
    # in-degree (public surface over the holder book-keeping)
    # ------------------------------------------------------------------

    def peer_of(self, key: int) -> PeerID:
        """The peer ID behind a routing-table entry's DHT key (stale
        entries resolve too: a key stays known after its server left)."""
        return self._peer_of_key[key]

    def in_degree(self, peer: PeerID) -> int:
        """How many online nodes currently reference ``peer`` in their
        routing table (the paper's §4 in-degree estimate)."""
        holders = self._holders.get(peer.dht_key)
        if not holders:
            return 0
        return sum(1 for holder in holders if holder.online)

    def in_degrees(self) -> Dict[PeerID, int]:
        """In-degree for every peer with at least one live holder."""
        peer_of_key = self._peer_of_key
        counts: Dict[PeerID, int] = {}
        for key, holders in self._holders.items():
            live_holders = sum(1 for holder in holders if holder.online)
            if live_holders:
                counts[peer_of_key[key]] = live_holders
        return counts

    # ------------------------------------------------------------------
    # provide / content plumbing
    # ------------------------------------------------------------------

    def publish_provider_record(self, node: Node, cid: CID) -> Optional[ProviderRecord]:
        """Execute the effect of a Provide(): store a provider record
        mapping the CID to the node's current multiaddresses."""
        if not node.online or node.peer is None:
            return None
        if not node.is_dht_server:
            self.ensure_relay(node)
        addrs = tuple(node.multiaddrs())
        if not addrs:
            return None
        record = ProviderRecord(cid=cid, provider=node.peer, addrs=addrs, published_at=self.now)
        self.providers.add(record)
        node.provided_cids.add(cid)
        return record

    def is_provider_reachable(self, record: ProviderRecord) -> bool:
        """The §6 reachability verification: can the provider be reached at
        record-collection time (directly, or through its relay)?"""
        node = self.online_by_peer.get(record.provider)
        if node is None:
            return False
        if node.is_dht_server:
            return node.reachable
        # NAT-ed: reachable while its advertised relay is still up.
        relays = {addr.relay for addr in record.addrs if addr.relay is not None}
        return any(relay in self.online_by_peer for relay in relays)

    # ------------------------------------------------------------------
    # bootstrap
    # ------------------------------------------------------------------

    def bootstrap(self) -> None:
        """Bring the steady-state population online at t=0.

        Each spec starts online with probability equal to its class
        uptime, so crawl #1 already sees a typical snapshot.
        """
        starters = [
            node for node in self.nodes if self.rng.random() < node.spec.behavior.uptime
        ]
        # Join servers in random order; tables fill against the oracle as
        # it grows, then a global refresh evens out early joiners.
        self.rng.shuffle(starters)
        for node in starters:
            if node.is_dht_server:
                self.bring_online(node)
        for node in starters:
            if not node.is_dht_server:
                self.bring_online(node)
        self.refresh_all()
