"""The calibrated traffic engine.

Generates the network's content activity — downloads, publishes, platform
re-provides, Hydra amplification — and feeds the two capture instruments
(the Hydra-booster DHT log and the Bitswap monitor log) plus the
provider-record registry.

Two request-generation models share the engine:

* **Closed-loop** (the default, and the calibration behind the golden
  figures): every online node draws Poisson request/publish counts per
  tick from its class rate — ``run_tick``'s historical behaviour,
  bit-identical to all previous releases.
* **Open-loop** (:mod:`repro.workload.openloop`, enabled through
  ``ScenarioConfig.workload_spec``): an attached session-based driver
  generates the user request stream — ON/OFF sessions, Zipf CID
  popularity, diurnal rates — and feeds it through
  :meth:`TrafficEngine.open_download` / :meth:`TrafficEngine.publish`.
  Indexer-fleet and join/maintenance traffic stay closed-loop in the
  same :meth:`TrafficEngine.run_tick` loop: infrastructure load is not
  part of the user workload model.

Capture sampling: a DHT walk touches ~50 of ~25 000 servers, so the
monitoring Hydra sees each message with probability ``heads/servers``
(§3 estimates 4 % total capture).  Rather than routing every walk hop
through the simulator, the engine draws the *captured* messages directly
from that geometry — an importance-sampling shortcut that leaves every
per-message share unchanged (see DESIGN.md).  Exact walks remain in use
for every measurement operation (crawls, provider fetches, probes).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.content.catalog import ContentCatalog, ContentItem
from repro.ids.cid import CID
from repro.kademlia.messages import MessageType
from repro.monitors.bitswap_monitor import BitswapMonitor
from repro.monitors.hydra import HydraBooster
from repro.netsim.network import Overlay
from repro.netsim.node import Node, OrderedCIDSet
from repro.netsim.sampling import poisson
from repro.world.population import NodeClass


@dataclass
class WorkloadConfig:
    """Rates (per online node per hour) and protocol constants.

    Defaults are calibrated against the paper's §5 traffic shares; the
    ablation benches sweep individual knobs.
    """

    # Content-request rate by node class.  The gateway rate is the *fleet*
    # rate at reference scale (2 500 servers) and is scaled by network
    # size: gateways serve the web-user population, not themselves.
    request_rates: Dict[NodeClass, float] = field(
        default_factory=lambda: {
            NodeClass.NAT_CLIENT: 0.90,
            NodeClass.RESIDENTIAL_EPHEMERAL: 1.00,
            NodeClass.RESIDENTIAL_STABLE: 0.55,
            NodeClass.CLOUD_STABLE: 0.22,
            NodeClass.HYBRID: 0.25,
            NodeClass.PLATFORM: 0.10,
            NodeClass.GATEWAY: 1.0,  # per node at reference scale
        }
    )
    #: Fleet-wide request rates (per hour, reference scale) of the
    #: automated resolver platforms — no Bitswap side, almost every
    #: request walks the DHT.
    indexer_rates: Dict[str, float] = field(
        default_factory=lambda: {"aws-mystery": 330.0, "cid-scraper": 260.0}
    )
    #: Per-operator multipliers on the gateway rate; ipfs-bank is the
    #: Bitswap-dominating gateway platform of Fig. 13.
    gateway_rate_multipliers: Dict[str, float] = field(
        default_factory=lambda: {"ipfs-bank": 6.0, "cloudflare": 2.0}
    )
    # Fresh-content publish rate by node class.
    publish_rates: Dict[NodeClass, float] = field(
        default_factory=lambda: {
            NodeClass.NAT_CLIENT: 0.100,
            NodeClass.RESIDENTIAL_EPHEMERAL: 0.080,
            NodeClass.RESIDENTIAL_STABLE: 0.090,
            NodeClass.CLOUD_STABLE: 0.020,
            NodeClass.HYBRID: 0.050,
            NodeClass.PLATFORM: 0.0,   # platforms re-provide their sets
            NodeClass.GATEWAY: 0.0,    # gateways only re-provide downloads
        }
    )
    #: Probability a downloader becomes a provider for what it fetched
    #: (§2 auto-scaling default; completing the re-provide walk is less
    #: likely for short-lived clients, all but certain for gateways).
    reprovide_probs: Dict[NodeClass, float] = field(
        default_factory=lambda: {
            NodeClass.NAT_CLIENT: 0.60,
            NodeClass.RESIDENTIAL_EPHEMERAL: 0.50,
            NodeClass.RESIDENTIAL_STABLE: 0.55,
            NodeClass.CLOUD_STABLE: 0.08,
            NodeClass.HYBRID: 0.40,
            NodeClass.PLATFORM: 0.50,
            # Gateways serve from their HTTP cache and rarely re-announce.
            NodeClass.GATEWAY: 0.15,
        }
    )
    #: Probability the 1-hop Bitswap broadcast resolves the request, per
    #: node class.  Gateways keep hundreds of connections and fixed links
    #: to the industrial providers, so they almost never need the DHT (§5).
    bitswap_hit_probs: Dict[NodeClass, float] = field(
        default_factory=lambda: {
            NodeClass.NAT_CLIENT: 0.42,
            NodeClass.RESIDENTIAL_EPHEMERAL: 0.42,
            NodeClass.RESIDENTIAL_STABLE: 0.40,
            NodeClass.CLOUD_STABLE: 0.45,
            NodeClass.HYBRID: 0.42,
            NodeClass.PLATFORM: 0.70,
            NodeClass.GATEWAY: 0.93,
        }
    )
    #: Extra hit probability for gateways fetching platform-pinned content
    #: (their fixed Bitswap links to pinata/nft.storage etc.).
    gateway_platform_hit_prob: float = 0.985
    #: Share of requests targeting content that does not exist (anymore).
    missing_content_prob: float = 0.06
    #: Peers contacted by a FindProviders walk (the paper's ≈50).
    download_walk_contacts: int = 50
    #: Walk plus PutProvider fan-out for a Provide operation.
    advert_walk_contacts: int = 34
    #: FIND_NODE messages captured per join/maintenance walk.
    other_walk_contacts: int = 15
    #: Proactive lookups the Protocol-Labs Hydra fleet launches per cache
    #: miss it witnesses (the §5 amplification / DoS vector).
    hydra_amplification_walks: float = 2.5
    #: Probability a user's DHT walk is witnessed by the PL hydra fleet.
    hydra_fleet_visibility: float = 0.9
    #: The fleet's provider-record cache TTL (misses trigger lookups).
    hydra_cache_ttl: float = 6 * 3600.0
    #: Size of each storage platform's pinned set at reference scale
    #: (scaled by network size and by the platform's pinned_set_scale).
    platform_set_size: int = 11000
    #: How many distinct platform nodes provide each pinned item.
    platform_replicas: int = 4
    #: Per-node cap on remembered provided CIDs (drives daily re-provides).
    max_provided_cids: int = 40
    #: How many of its provided CIDs a node re-announces per day (real
    #: IPFS re-provides its whole provider store every 12-24 h, so the
    #: default covers the full capped set).
    daily_reprovide_sample: int = 40
    #: Probability a freshly published user item is *also* pinned at a
    #: storage platform (pinata et al. ingest user uploads) — one of the
    #: §6 mechanisms pulling content into the cloud.
    user_pin_prob: float = 0.35
    #: Probability a platform-pinned item has a user co-provider (the
    #: original uploader — an NFT creator's own node, say) that keeps
    #: re-providing it.
    platform_coprovider_prob: float = 0.85
    #: Class mix of those co-providers.
    coprovider_class_weights: Dict[NodeClass, float] = field(
        default_factory=lambda: {
            NodeClass.NAT_CLIENT: 0.50,
            NodeClass.RESIDENTIAL_EPHEMERAL: 0.12,
            NodeClass.RESIDENTIAL_STABLE: 0.26,
            NodeClass.CLOUD_STABLE: 0.12,
        }
    )
    #: Per-item popularity damping for platform content: the pinned sets
    #: are long-tail (billions of rarely-requested NFT assets).
    platform_weight_scale: float = 0.35
    #: "Other" (join/maintenance) walks per online server per hour.
    other_rate: float = 0.45


class TrafficEngine:
    """Drives daily content activity over an overlay."""

    def __init__(
        self,
        overlay: Overlay,
        catalog: ContentCatalog,
        hydra: HydraBooster,
        bitswap_monitor: BitswapMonitor,
        config: Optional[WorkloadConfig] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.overlay = overlay
        self.catalog = catalog
        self.hydra = hydra
        self.monitor = bitswap_monitor
        self.config = config or WorkloadConfig()
        self.rng = rng or random.Random(overlay.world.profile.seed + 4)
        self._pl_hydra_nodes: List[Node] = overlay.nodes_of_platform("hydra")
        #: the PL hydra fleet's provider-record cache: CID -> last refresh.
        self._amp_cache: Dict[CID, float] = {}
        #: user uploads ingested by pinning platforms: node -> CIDs.
        self._platform_pins: Dict[Node, OrderedCIDSet] = {}
        self._indexer_fleet_sizes: Dict[str, int] = {}
        for platform in self.config.indexer_rates:
            fleet = len(overlay.nodes_of_platform(platform))
            if fleet:
                self._indexer_fleet_sizes[platform] = fleet
        self.stats = {
            "downloads": 0,
            "publishes": 0,
            "bitswap_hits": 0,
            "dht_walks": 0,
            "amplified_walks": 0,
        }
        #: optional open-loop session driver (see
        #: :mod:`repro.workload.openloop`); ``None`` keeps the legacy
        #: closed-loop model and zero extra RNG draws.
        self.open_loop = None

    def attach_open_loop(self, driver) -> None:
        """Install an open-loop session driver; it takes over the user
        request/publish stream from the next ``run_tick`` on."""
        self.open_loop = driver

    # ------------------------------------------------------------------
    # capture helpers
    # ------------------------------------------------------------------

    def _log_dht(
        self,
        node: Node,
        message_type: MessageType,
        cid: Optional[CID],
        walk_messages: int,
        via_relay=None,
        rng: Optional[random.Random] = None,
        target_key: Optional[int] = None,
    ) -> int:
        """Log the captured subset of a walk's messages at the Hydra.

        One capture draw per walk, then one ``record`` per captured
        message; nothing else is looked up per message.  Honest traffic
        draws on the engine RNG; attack walks pass their own ``rng`` (and
        a Sybil scout its ``target_key``).  Returns the messages logged.
        """
        if rng is None:
            rng = self.rng
        captured = self.hydra.capture_count(
            walk_messages, len(self.overlay.oracle) or 1, rng
        )
        sender = node.peer
        if captured <= 0 or sender is None or not node.ips:
            return 0
        now = self.overlay.now
        record = self.hydra.record
        choice = rng.choice
        # Pre-formatted per-node address strings; ``choice`` draws on
        # indexes only, so this is bit-identical to formatting per draw.
        # Multihomed nodes originate requests from any of their announced
        # interfaces.
        ip_strs = node.ip_strs()
        for _ in range(captured):
            record(now, sender, choice(ip_strs), message_type, cid, target_key, via_relay)
        return captured

    # ------------------------------------------------------------------
    # the three activity types
    # ------------------------------------------------------------------

    def download(self, node: Node) -> None:
        """One content retrieval: Bitswap broadcast, then DHT on miss."""
        config = self.config
        self.stats["downloads"] += 1
        missing_prob = config.missing_content_prob
        if node.node_class is NodeClass.GATEWAY:
            # Gateway URLs mostly reference content that exists; dead-CID
            # requests are a fringe of their HTTP traffic.
            missing_prob *= 0.3
        missing = self.rng.random() < missing_prob
        item = None if missing else self.catalog.sample_request(self.rng)
        self._resolve(node, item)

    def open_download(self, node: Node, item) -> None:
        """One open-loop retrieval: the CID was pre-chosen by the session
        driver's popularity model (``None`` models a dead/unknown CID), so
        no catalog-sampling randomness is drawn here — the resolution
        path (Bitswap broadcast, DHT walk on miss, re-provide) is shared
        with :meth:`download` draw-for-draw."""
        self.stats["downloads"] += 1
        self._resolve(node, item)

    def _resolve(self, node: Node, item) -> None:
        """Resolve one request for ``item`` (``None``: missing content)."""
        config = self.config
        cid = CID.generate(self.rng) if item is None else item.cid
        is_indexer = node.spec.platform in config.indexer_rates

        if is_indexer:
            # Automated resolvers query the DHT directly, never Bitswap,
            # and do not become providers.
            self.stats["dht_walks"] += 1
            self._log_dht(node, MessageType.GET_PROVIDERS, cid, config.download_walk_contacts)
            self._hydra_amplification(cid)
            return

        self.monitor.observe_broadcast(self.overlay.now, node, cid)

        hit_prob = config.bitswap_hit_probs[node.node_class]
        if node.node_class is NodeClass.GATEWAY and item is not None and isinstance(
            item.publisher, str
        ):
            hit_prob = config.gateway_platform_hit_prob
        if item is not None and self.rng.random() < hit_prob:
            self.stats["bitswap_hits"] += 1
            self._maybe_reprovide(node, cid)
            return

        # DHT walk (FindProviders).
        self.stats["dht_walks"] += 1
        self._log_dht(node, MessageType.GET_PROVIDERS, cid, config.download_walk_contacts)
        self._hydra_amplification(cid)

        if item is not None and self.overlay.providers.has_records(cid, self.overlay.now):
            self._maybe_reprovide(node, cid)

    def _fleet_lookups(
        self, cid: CID, rng: random.Random, visibility: Optional[float] = None
    ) -> Iterator[Node]:
        """The online PL hydra heads that look ``cid`` up, one per walk.

        A request the fleet witnesses (probability ``visibility``; an
        attacker aiming at the fleet passes ``None``) and misses in its
        provider-record cache launches ``hydra_amplification_walks``
        lookups on average, each from a random head.  A generator, so the
        caller's own draws for a walk can come before the next head's.
        """
        config = self.config
        fleet = self._pl_hydra_nodes
        if not fleet or (visibility is not None and rng.random() >= visibility):
            return
        now = self.overlay.now
        last = self._amp_cache.get(cid)
        if last is not None and now - last < config.hydra_cache_ttl:
            return  # fleet cache hit: no proactive lookup
        self._amp_cache[cid] = now
        walks = int(config.hydra_amplification_walks)
        if rng.random() < config.hydra_amplification_walks - walks:
            walks += 1
        for _ in range(walks):
            hydra_node = rng.choice(fleet)
            if hydra_node.online:
                self.stats["amplified_walks"] += 1
                yield hydra_node

    def _hydra_amplification(self, cid: CID) -> None:
        """Protocol-Labs hydra heads proactively look up cache misses;
        each head's walk is logged before the next head is chosen."""
        contacts = self.config.download_walk_contacts
        for hydra_node in self._fleet_lookups(
            cid, self.rng, self.config.hydra_fleet_visibility
        ):
            self._log_dht(hydra_node, MessageType.GET_PROVIDERS, cid, contacts)

    def induced_amplification(self, cid: CID, rng: random.Random) -> List[Node]:
        """Fleet lookups triggered by a request aimed *at* the fleet.

        The adversarial variant of :meth:`_hydra_amplification`: an
        attacker sends its cache-missing request straight to the PL
        hydra heads (the §5 amplification vector), so no visibility draw
        applies, and all randomness comes from the caller's attack RNG —
        the honest engine stream is untouched.  Every head is chosen
        before any is logged.  Returns the online fleet nodes that
        launched a walk; the caller logs their traffic and tags them as
        induced actors in the ground truth.
        """
        return list(self._fleet_lookups(cid, rng))

    def _maybe_reprovide(self, node: Node, cid: CID) -> None:
        if self.rng.random() >= self.config.reprovide_probs[node.node_class]:
            return
        self.publish(node, cid=cid, fresh=False)

    def publish(self, node: Node, cid: Optional[CID] = None, fresh: bool = True) -> None:
        """One Provide(): store the record, log the advertisement walk."""
        if not node.online:
            return
        if cid is None:
            item = self.catalog.mint_user_item(self.overlay_clock_day, node.spec.index)
            cid = item.cid
            if fresh and self.rng.random() < self.config.user_pin_prob:
                self._pin_at_platform(cid)
        record = self.overlay.publish_provider_record(node, cid)
        if record is None:
            return
        node.provided_cids.trim(self.config.max_provided_cids)
        self.stats["publishes"] += 1
        via_relay = None
        if not node.is_dht_server and node.relay is not None:
            via_relay = node.relay.peer
        self._log_dht(
            node, MessageType.ADD_PROVIDER, cid, self.config.advert_walk_contacts, via_relay
        )

    def _pin_at_platform(self, cid: CID) -> None:
        """Ingest a user upload at a random pinning/storage platform."""
        candidates = self._pin_candidates()
        if not candidates:
            return
        pinner = self.rng.choice(candidates)
        self._platform_pins.setdefault(pinner, OrderedCIDSet()).add(cid)
        self.overlay.publish_provider_record(pinner, cid)

    def _pin_candidates(self) -> List[Node]:
        """Online pinning/storage platform nodes, in spec order."""
        return [
            node
            for node in self.overlay.nodes_of_class(NodeClass.PLATFORM)
            if node.online
            and node.spec.platform is not None
            and node.spec.platform not in self.config.indexer_rates
            and node.spec.platform != "hydra"
        ]

    def _platform_nodes(self, name: str) -> List[Node]:
        """A platform's online nodes (any class), in spec order."""
        return [node for node in self.overlay.nodes_of_platform(name) if node.online]

    def other_walk(self, node: Node) -> None:
        """Join/maintenance FIND_NODE traffic (the §5 'other' 3 %)."""
        if node.peer is None or not node.ips:
            return
        self._log_dht(
            node, MessageType.FIND_NODE, None, self.config.other_walk_contacts
        )

    # ------------------------------------------------------------------
    # daily driver
    # ------------------------------------------------------------------

    def seed_platform_content(self) -> None:
        """Mint and provide each storage platform's pinned set (day 0)."""
        config = self.config
        rng = self.rng
        publish = self.overlay.publish_provider_record
        scale = len(self.overlay.oracle) / 2500.0
        coprovider_pools = {
            cls: self.overlay.nodes_of_class(cls) for cls in config.coprovider_class_weights
        }
        classes = list(config.coprovider_class_weights)
        weights = [config.coprovider_class_weights[cls] for cls in classes]
        for platform in self.overlay.world.profile.platforms:
            if platform.role not in ("storage", "pinning"):
                continue
            size = max(100, int(config.platform_set_size * scale * platform.pinned_set_scale))
            items = self.catalog.mint_platform_set(
                platform.name, size, weight_scale=config.platform_weight_scale
            )
            online_nodes = self._platform_nodes(platform.name)
            if not online_nodes:
                continue
            replicas = min(config.platform_replicas, len(online_nodes))
            for item in items:
                cid = item.cid
                for node in rng.sample(online_nodes, replicas):
                    publish(node, cid)
                # The original uploader often keeps providing the item
                # alongside the pinning service.
                if rng.random() < config.platform_coprovider_prob:
                    pool = coprovider_pools[rng.choices(classes, weights=weights)[0]]
                    if pool:
                        uploader = rng.choice(pool)
                        uploader.provided_cids.add(cid)
                        if uploader.online:
                            publish(uploader, cid)

    def platform_reprovide_pass(self) -> None:
        """Daily re-announcement of every pinned CID by storage platforms.

        Records are refreshed exactly; the Hydra log receives the
        capture-sampled share of the advertisement walks.
        """
        rng = self.rng
        publish = self.overlay.publish_provider_record
        log_dht = self._log_dht
        contacts = self.config.advert_walk_contacts
        for platform in self.overlay.world.profile.platforms:
            if platform.role not in ("storage", "pinning"):
                continue
            items = self.catalog.platform_items(platform.name)
            if not items:
                continue
            nodes = self._platform_nodes(platform.name)
            if not nodes:
                continue
            for item in items:
                node = rng.choice(nodes)
                publish(node, item.cid)
                log_dht(node, MessageType.ADD_PROVIDER, item.cid, contacts)
        # Pinned user uploads are re-announced by their pinning node.
        day = self.overlay_clock_day
        for node, cids in self._platform_pins.items():
            if not node.online:
                continue
            for cid in list(cids):
                item = self.catalog.by_cid.get(cid)
                if item is not None and not item.alive_on(day):
                    cids.discard(cid)
                    continue
                publish(node, cid)
                log_dht(node, MessageType.ADD_PROVIDER, cid, contacts)

    def user_reprovide_pass(self) -> None:
        """Daily re-announcement of previously provided content.

        Real IPFS nodes re-provide everything in their provider store
        every 12-24 h; this is what keeps user content resolvable beyond
        the 24 h record TTL and a large source of advertisement traffic.
        """
        config = self.config
        day = self.overlay_clock_day
        items = self.catalog.by_cid
        for node in list(self.overlay.online_by_peer.values()):
            if node.node_class in (NodeClass.PLATFORM, NodeClass.GATEWAY):
                continue  # platforms have their own pass; gateways cache
            if not node.provided_cids:
                continue
            cids = list(node.provided_cids)
            if len(cids) > config.daily_reprovide_sample:
                cids = self.rng.sample(cids, config.daily_reprovide_sample)
            for cid in cids:
                item = items.get(cid)
                if item is not None and not item.alive_on(day):
                    node.provided_cids.discard(cid)
                    continue
                self.publish(node, cid=cid, fresh=False)

    @property
    def overlay_clock_day(self) -> int:
        return self.overlay.scheduler.clock.day

    def run_tick(self, hours: float) -> None:
        """Generate ``hours`` worth of traffic from the current online set.

        An attached session driver runs first and owns the user
        request/publish stream; the indexer fleets and the join /
        maintenance walks are infrastructure, not users, so they keep
        their closed-loop Poisson rates either way.
        """
        open_loop = self.open_loop
        if open_loop is not None:
            open_loop.run_tick(self, hours)
        config = self.config
        rng = self.rng
        online = list(self.overlay.online_by_peer.values())
        # Gateways serve the web-user population: their volume grows with
        # the network, not with the (fixed, 119-node) gateway fleet.
        gateway_scale = max(len(self.overlay.oracle), 1) / 2500.0
        for node in online:
            weight = node.spec.activity_weight
            platform = node.spec.platform or ""
            if platform in config.indexer_rates:
                fleet = self._indexer_fleet_sizes.get(platform, 1)
                rate = config.indexer_rates[platform] / fleet * gateway_scale * hours
            elif open_loop is not None:
                continue
            else:
                rate = config.request_rates[node.node_class] * weight * hours
                if node.node_class is NodeClass.GATEWAY:
                    rate *= gateway_scale * config.gateway_rate_multipliers.get(
                        platform, 1.0
                    )
            for _ in range(poisson(rate, rng)):
                self.download(node)
            if open_loop is None:
                rate = config.publish_rates[node.node_class] * weight * hours
                for _ in range(poisson(rate, rng)):
                    self.publish(node)
        # Join / maintenance traffic.
        servers = [node for node in online if node.is_dht_server]
        if servers:
            walks = poisson(config.other_rate * len(servers) * hours, rng)
            for _ in range(walks):
                self.other_walk(rng.choice(servers))


# Not a second engine.  Its only reason is that the campaign benchmark's
# layer probes name this attribute; it goes when the ROADMAP's timing-surface
# item moves the probe list into ``repro.obs``.
VectorizedTrafficEngine = TrafficEngine

