"""A live IPFS node in the simulation.

A :class:`Node` is the runtime incarnation of a :class:`NodeSpec`
(the physical participant).  Across its lifetime a node may go on- and
offline many times, rotate its IP addresses and even regenerate its peer
ID — the spec stays, the identifiers change.  This is the behaviour the
paper's counting-methodology analysis (§3) hinges on.
"""

from __future__ import annotations

from itertools import islice
from typing import List, Optional, Tuple, TYPE_CHECKING

from repro.ids.multiaddr import Multiaddr
from repro.ids.peerid import PeerID
from repro.kademlia.messages import PeerInfo
from repro.kademlia.routing_table import RoutingTable
from repro.world.population import NodeClass, NodeSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netsim.network import Overlay

#: Default libp2p swarm port.
DEFAULT_PORT = 4001

#: Dial-success probability per node class: the share of crawl attempts a
#: node of this class answers (connection limits, firewalls, slow links).
#: Calibrated so ≈70 % of discovered peers are crawlable (paper §3).
REACHABILITY = {
    NodeClass.CLOUD_STABLE: 0.78,
    NodeClass.RESIDENTIAL_STABLE: 0.66,
    NodeClass.RESIDENTIAL_EPHEMERAL: 0.42,
    NodeClass.HYBRID: 0.85,
    NodeClass.PLATFORM: 0.98,
    NodeClass.GATEWAY: 0.95,
    NodeClass.NAT_CLIENT: 0.0,  # never directly dialable
}

#: Median response latency (seconds) and lognormal sigma per class, for
#: the crawl-timeout ablation.  Residential links are slow and jittery.
LATENCY_PROFILE = {
    NodeClass.CLOUD_STABLE: (0.15, 0.6),
    NodeClass.RESIDENTIAL_STABLE: (1.5, 1.4),
    NodeClass.RESIDENTIAL_EPHEMERAL: (6.0, 1.8),
    NodeClass.HYBRID: (0.3, 0.8),
    NodeClass.PLATFORM: (0.08, 0.3),
    NodeClass.GATEWAY: (0.12, 0.4),
    NodeClass.NAT_CLIENT: (3.0, 1.5),
}


class OrderedCIDSet:
    """A CID set with deterministic (insertion-order) iteration.

    ``hash(bytes)`` is salted per process, so iterating or ``pop()``-ing
    a plain ``set`` of CIDs makes everything downstream — eviction, the
    reprovide passes and hence the whole campaign — depend on
    ``PYTHONHASHSEED``.  Backing the set with a dict keeps membership
    O(1) while fixing iteration to insertion order, and gives eviction a
    meaningful FIFO semantics (the oldest record expires first).
    """

    __slots__ = ("_items",)

    def __init__(self) -> None:
        self._items: dict = {}

    def add(self, cid) -> None:
        self._items[cid] = None

    def discard(self, cid) -> None:
        self._items.pop(cid, None)

    def trim(self, keep: int) -> None:
        """Drop the oldest CIDs until at most ``keep`` remain, in one pass
        over the front (the survivors keep their order).

        Deleting from the front one CID at a time would make every
        ``next(iter(...))`` skip the slots already freed there: quadratic
        in the number dropped.  When most CIDs go, the survivors are
        copied into a fresh, compact dict instead.
        """
        items = self._items
        excess = len(items) - keep
        if excess <= 0:
            return
        if excess >= len(items) - excess:
            self._items = dict.fromkeys(islice(items, excess, None))
        else:
            for cid in list(islice(items, excess)):
                del items[cid]

    def __contains__(self, cid) -> bool:
        return cid in self._items

    def __iter__(self):
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)


class Node:
    """Runtime state of one participant."""

    __slots__ = (
        "spec",
        "node_class",
        "is_dht_server",
        "overlay",
        "peer",
        "ips",
        "port",
        "online",
        "routing_table",
        "certified_buckets",
        "stale_entries",
        "relay",
        "reachable",
        "response_latency",
        "session_started_at",
        "sessions_seen",
        "provided_cids",
        "bitswap_neighbors_weight",
        "_addrs_cache",
        "_circuit_via",
        "_ip_strs_cache",
    )

    def __init__(self, spec: NodeSpec, overlay: "Overlay") -> None:
        self.spec = spec
        # A spec never changes class, so both are plain per-node reads.
        self.node_class: NodeClass = spec.node_class
        #: whether this node joins the DHT as a server (not a NAT client).
        self.is_dht_server: bool = spec.node_class.is_dht_server
        self.overlay = overlay
        self.peer: Optional[PeerID] = None
        self.ips: List[int] = []
        self.port = DEFAULT_PORT
        self.online = False
        self.routing_table: Optional[RoutingTable] = None
        #: bit ``i`` set: a maintenance visit to k-bucket ``i`` is
        #: certified a no-op (see :meth:`Overlay.refresh_node`).
        self.certified_buckets = 0
        #: how many routing-table keys name no online DHT server.
        self.stale_entries = 0
        self.relay: Optional["Node"] = None  # for NAT clients
        self.reachable = False
        self.response_latency = 0.0
        self.session_started_at = 0.0
        self.sessions_seen = 0
        self.provided_cids = OrderedCIDSet()
        # Relative likelihood of holding a Bitswap connection to any given
        # peer; gateways/platforms keep hundreds of connections.
        self.bitswap_neighbors_weight = 1.0
        #: the announced addresses, built once per address epoch (see
        #: :meth:`addr_tuple`).
        self._addrs_cache: Optional[Tuple[Multiaddr, ...]] = None
        #: what a NAT client's cached circuit address was built from.
        self._circuit_via: Optional[tuple] = None
        self._ip_strs_cache: Optional[List[str]] = None

    # -- identity -----------------------------------------------------------

    def invalidate_addr_cache(self) -> None:
        """End the address epoch: drop the memoized addresses (peer ID or
        IPs changed)."""
        self._addrs_cache = None
        self._ip_strs_cache = None

    def sample_session_traits(self, rng) -> None:
        """Draw this session's reachability and latency."""
        self.reachable = rng.random() < REACHABILITY[self.node_class]
        median, sigma = LATENCY_PROFILE[self.node_class]
        self.response_latency = median * pow(2.718281828, rng.gauss(0.0, sigma))

    # -- addressing -----------------------------------------------------------

    def multiaddrs(self) -> List[Multiaddr]:
        """The addresses this node currently announces.

        NAT clients announce circuit addresses through their relay; public
        nodes announce one direct address per IP.
        """
        return list(self.addr_tuple())

    def addr_tuple(self) -> Tuple[Multiaddr, ...]:
        """:meth:`multiaddrs` as a shared tuple, built once per address epoch.

        A public node's epoch ends when :meth:`invalidate_addr_cache`
        runs; the overlay calls it whenever it assigns a peer ID or IPs.
        A NAT client's circuit address embeds its relay's *current*
        address, which can change behind its back (relay DHCP re-lease,
        relay swap, relay rejoining under a new peer ID), so it is
        rebuilt whenever what it is built from differs.
        """
        if self.peer is None:
            return ()
        if self.node_class is NodeClass.NAT_CLIENT:
            relay = self.relay
            if relay is None or relay.peer is None:
                return ()
            via = (relay.primary_ip_str, relay.port, relay.peer, self.peer)
            cached = self._addrs_cache
            if cached is None or via != self._circuit_via:
                cached = self._addrs_cache = (Multiaddr.circuit(*via),)
                self._circuit_via = via
            return cached
        cached = self._addrs_cache
        if cached is None:
            port, peer = self.port, self.peer
            cached = self._addrs_cache = tuple(
                Multiaddr.direct(ip, port, peer) for ip in self.ip_strs()
            )
        return cached

    def ip_strs(self) -> List[str]:
        """Dotted-quad strings for ``ips``, memoized per address set.

        The Hydra/Bitswap capture paths format a sender address per
        logged message; caching the formatted list (invalidated together
        with the multiaddr cache) removes that per-message cost.  RNG
        note: ``rng.choice(node.ip_strs())`` draws on indexes only, so it
        is bit-identical to ``format_ip(rng.choice(node.ips))``.
        """
        cached = self._ip_strs_cache
        if cached is None:
            from repro.world.ipspace import format_ip

            cached = [format_ip(ip) for ip in self.ips]
            self._ip_strs_cache = cached
        return cached

    @property
    def primary_ip_str(self) -> str:
        if not self.ips:
            raise ValueError("node has no address")
        return self.ip_strs()[0]

    def peer_info(self) -> PeerInfo:
        if self.peer is None:
            raise ValueError("node has no peer ID (offline?)")
        return PeerInfo(peer=self.peer, addrs=self.addr_tuple())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "online" if self.online else "offline"
        return f"<Node #{self.spec.index} {self.spec.node_class.value} {state}>"
