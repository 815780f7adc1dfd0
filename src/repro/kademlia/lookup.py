"""Iterative Kademlia lookups.

``GetClosestPeers(key)`` traverses the DHT and returns the k closest peers
to the target key.  In each step, the querying node contacts the closest
nodes to the key it knows of; each returns the k closest peers in its own
routing table.  The process repeats until the client does not find any
more peers closer to the key (paper §2).

``FindProviders(cid)`` uses an identical walk but also queries encountered
nodes for provider records, terminating when either 20 providers have been
found or all resolvers have been asked.  The paper's §3 modification —
terminate *only* when all resolvers have been queried, to retrieve *all*
provider records — is exposed via ``exhaustive=True``.

Lookups are transport-agnostic: the caller supplies query callables, which
the simulator (or a test double) implements.  A callable returning ``None``
models an unreachable peer.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.ids.cid import CID
from repro.ids.peerid import PeerID
from repro.kademlia.messages import PeerInfo
from repro.kademlia.providers import ProviderRecord
from repro.obs import observer as obs

#: Kademlia replication parameter: number of closest peers returned,
#: and number of resolvers holding each provider record.
DEFAULT_K = 20

#: Lookup concurrency (peers queried per round).
DEFAULT_ALPHA = 3

FindNodeQuery = Callable[[PeerID, int], Optional[Sequence[PeerInfo]]]
GetProvidersQuery = Callable[
    [PeerID, CID], Optional[Tuple[Sequence[ProviderRecord], Sequence[PeerInfo]]]
]


@dataclass
class LookupResult:
    """Outcome of a ``GetClosestPeers`` walk.

    :ivar closest: up to ``k`` reachable peers closest to the target.
    :ivar contacted: peers successfully queried, in query order.
    :ivar failed: peers that did not respond.
    :ivar messages: number of requests sent (the traffic the walk created).
    """

    closest: List[PeerInfo] = field(default_factory=list)
    contacted: List[PeerID] = field(default_factory=list)
    failed: Set[PeerID] = field(default_factory=set)
    messages: int = 0


@dataclass
class ProviderLookupResult(LookupResult):
    """Outcome of a ``FindProviders`` walk: walk stats plus the records."""

    providers: List[ProviderRecord] = field(default_factory=list)
    resolvers_queried: List[PeerID] = field(default_factory=list)


class _Walk:
    """Shared machinery of the iterative walks.

    The frontier is an *incremental* sorted structure: each absorbed peer
    has its XOR distance to the target computed exactly once and is
    inserted into a distance-ordered list, instead of re-sorting every
    known peer on every round.  Ties on distance are impossible for
    distinct DHT keys, and equal-distance duplicates are broken by
    absorption order via a per-peer sequence number — exactly the order a
    stable full sort over the insertion-ordered pool would produce.
    """

    def __init__(self, target_key: int, start: Sequence[PeerInfo], k: int, alpha: int) -> None:
        self.target_key = target_key
        self.k = k
        self.alpha = alpha
        self.known: Dict[PeerID, PeerInfo] = {}
        self.queried: Set[PeerID] = set()
        self.failed: Set[PeerID] = set()
        self.contacted: List[PeerID] = []
        self.messages = 0
        #: (distance, seq, info) for every known, live-so-far peer, in
        #: ascending distance order; ``seq`` is unique so ``info`` never
        #: gets compared.
        self._frontier: List[Tuple[int, int, PeerInfo]] = []
        #: peer -> its frontier item, for removal on failure.
        self._entries: Dict[PeerID, Tuple[int, int, PeerInfo]] = {}
        self._seq = 0
        #: Smallest XOR distance over every peer *ever* absorbed — unlike
        #: the frontier head it never moves away from the target when the
        #: closest peer fails, making it the monotone progress measure
        #: the trace auditor checks per round.
        self.best_distance: Optional[int] = None
        self.absorb(start)

    def _distance(self, peer: PeerID) -> int:
        return peer.dht_key ^ self.target_key

    def candidates(self) -> List[PeerInfo]:
        """Known, live-so-far peers ordered by distance to the target."""
        return [info for _, _, info in self._frontier]

    def next_batch(self) -> List[PeerInfo]:
        """Up to ``alpha`` unqueried peers among the ``k`` closest known.

        Empty when the ``k`` closest known live peers have all been
        queried — the walk's termination condition.
        """
        queried = self.queried
        batch = []
        for _, _, info in self._frontier[: self.k]:
            if info.peer not in queried:
                batch.append(info)
                if len(batch) >= self.alpha:
                    break
        return batch

    def absorb(self, closer_peers: Sequence[PeerInfo]) -> None:
        known = self.known
        entries = self._entries
        frontier = self._frontier
        target_key = self.target_key
        seq = self._seq
        best = self.best_distance
        for info in closer_peers:
            peer = info.peer
            if peer in known:
                continue
            known[peer] = info
            distance = peer.dht_key ^ target_key
            item = (distance, seq, info)
            seq += 1
            entries[peer] = item
            insort(frontier, item)
            if best is None or distance < best:
                best = distance
        self._seq = seq
        self.best_distance = best

    def mark_failed(self, peer: PeerID) -> None:
        """Record a non-responding peer and drop it from the frontier."""
        self.failed.add(peer)
        item = self._entries.pop(peer, None)
        if item is None:
            return
        # ``(distance, seq)`` is unique, so bisect lands exactly on the
        # item without ever comparing the PeerInfo payloads.
        position = bisect_left(self._frontier, item)
        if position < len(self._frontier) and self._frontier[position] is item:
            del self._frontier[position]

    def closest_live(self) -> List[PeerInfo]:
        """The ``k`` closest peers that answered a query."""
        queried = self.queried
        live = []
        for _, _, info in self._frontier:
            if info.peer in queried:
                live.append(info)
                if len(live) >= self.k:
                    break
        return live


def iterative_find_node(
    target_key: int,
    start: Sequence[PeerInfo],
    query: FindNodeQuery,
    k: int = DEFAULT_K,
    alpha: int = DEFAULT_ALPHA,
    max_queries: int = 500,
) -> LookupResult:
    """Run a ``GetClosestPeers(target_key)`` walk.

    :param target_key: DHT key being walked towards.
    :param start: initial candidates (typically from the local table).
    :param query: ``(peer, target_key) -> closer peers or None``.
    :param max_queries: safety valve against pathological topologies.
    """
    walk = _Walk(target_key, start, k, alpha)
    tracer = obs.get_tracer()
    rounds = 0
    with tracer.span("lookup.find_node") as lookup_span:
        while walk.messages < max_queries:
            batch = walk.next_batch()
            if not batch:
                break
            if tracer.enabled:
                tracer.event(
                    "lookup.round",
                    round=rounds,
                    batch=len(batch),
                    frontier=len(walk._frontier),
                    failed=len(walk.failed),
                    best=walk.best_distance,
                )
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
    obs.inc("lookup.find_node_walks")
    obs.inc("lookup.messages", walk.messages)
    obs.inc("lookup.failed_peers", len(walk.failed))
    obs.observe("lookup.walk_messages", walk.messages)
    return LookupResult(
        closest=walk.closest_live(),
        contacted=walk.contacted,
        failed=walk.failed,
        messages=walk.messages,
    )


def iterative_find_providers(
    cid: CID,
    start: Sequence[PeerInfo],
    query: GetProvidersQuery,
    k: int = DEFAULT_K,
    alpha: int = DEFAULT_ALPHA,
    max_providers: int = DEFAULT_K,
    exhaustive: bool = False,
    max_queries: int = 500,
) -> ProviderLookupResult:
    """Run a ``FindProviders(cid)`` walk.

    The default termination matches stock go-ipfs: stop when
    ``max_providers`` provider records were found or all resolvers were
    asked.  With ``exhaustive=True`` the walk only terminates when all
    resolvers (the ``k`` closest peers to the CID) have been queried —
    the paper's §3 modification for complete provider-record collection.
    """
    target_key = cid.dht_key
    walk = _Walk(target_key, start, k, alpha)
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
            if tracer.enabled:
                tracer.event(
                    "lookup.round",
                    round=rounds,
                    batch=len(batch),
                    frontier=len(walk._frontier),
                    failed=len(walk.failed),
                    best=walk.best_distance,
                )
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
    obs.inc("lookup.find_providers_walks")
    obs.inc("lookup.messages", walk.messages)
    obs.inc("lookup.failed_peers", len(walk.failed))
    obs.inc("lookup.provider_records", len(providers))
    obs.observe("lookup.walk_messages", walk.messages)
    return ProviderLookupResult(
        closest=walk.closest_live(),
        contacted=walk.contacted,
        failed=walk.failed,
        messages=walk.messages,
        providers=list(providers.values()),
        resolvers_queried=[info.peer for info in walk.closest_live()],
    )
