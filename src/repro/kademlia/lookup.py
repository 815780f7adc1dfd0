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
models an unreachable peer.  Peers travel as their DHT keys: a key names
one peer (keys are SHA-256 digests), so the walk needs no peer objects,
and a caller that wants them maps keys back through its own index.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.ids.cid import CID
from repro.kademlia.providers import ProviderRecord
from repro.obs import observer as obs

#: Kademlia replication parameter: number of closest peers returned,
#: and number of resolvers holding each provider record.
DEFAULT_K = 20

#: Lookup concurrency (peers queried per round).
DEFAULT_ALPHA = 3

#: ``(peer key, target key) -> closer peer keys``, or ``None`` when the
#: peer does not answer.
FindNodeQuery = Callable[[int, int], Optional[Sequence[int]]]
#: ``(peer key, cid) -> (provider records, closer peer keys)`` or ``None``.
GetProvidersQuery = Callable[
    [int, CID], Optional[Tuple[Sequence[ProviderRecord], Sequence[int]]]
]


@dataclass
class LookupResult:
    """Outcome of a ``GetClosestPeers`` walk; peers are DHT keys.

    :ivar closest: up to ``k`` reachable peers closest to the target.
    :ivar contacted: peers successfully queried, in query order.
    :ivar failed: peers that did not respond.
    :ivar messages: number of requests sent (the traffic the walk created).
    """

    closest: List[int] = field(default_factory=list)
    contacted: List[int] = field(default_factory=list)
    failed: Set[int] = field(default_factory=set)
    messages: int = 0


@dataclass
class ProviderLookupResult(LookupResult):
    """Outcome of a ``FindProviders`` walk: walk stats plus the records."""

    providers: List[ProviderRecord] = field(default_factory=list)
    resolvers_queried: List[int] = field(default_factory=list)


class _Walk:
    """Shared machinery of the iterative walks.

    The frontier is the ascending list of XOR distances to the target of
    every known, live-so-far peer.  XOR with the target is a bijection,
    so a distance names its peer (``distance ^ target`` is the key) and
    the list needs no payload or tie-breaker; each absorbed key is
    XOR-ed once and bisected in, instead of re-sorting every known peer
    on every round.
    """

    def __init__(self, target_key: int, start: Sequence[int], k: int, alpha: int) -> None:
        self.target_key = target_key
        self.k = k
        self.alpha = alpha
        self.known: Set[int] = set()
        self.queried: Set[int] = set()
        self.failed: Set[int] = set()
        self.contacted: List[int] = []
        self.messages = 0
        self._frontier: List[int] = []
        #: Smallest XOR distance over every peer *ever* absorbed — unlike
        #: the frontier head it never moves away from the target when the
        #: closest peer fails, making it the monotone progress measure
        #: the trace auditor checks per round.
        self.best_distance: Optional[int] = None
        self.absorb(start)

    def next_batch(self) -> List[int]:
        """Up to ``alpha`` unqueried peers among the ``k`` closest known.

        Empty when the ``k`` closest known live peers have all been
        queried — the walk's termination condition.
        """
        queried = self.queried
        target_key = self.target_key
        batch = []
        for distance in self._frontier[: self.k]:
            key = distance ^ target_key
            if key not in queried:
                batch.append(key)
                if len(batch) >= self.alpha:
                    break
        return batch

    def absorb(self, closer_peers: Sequence[int]) -> None:
        known = self.known
        frontier = self._frontier
        target_key = self.target_key
        best = self.best_distance
        for key in closer_peers:
            if key in known:
                continue
            known.add(key)
            distance = key ^ target_key
            insort(frontier, distance)
            if best is None or distance < best:
                best = distance
        self.best_distance = best

    def mark_failed(self, key: int) -> None:
        """Record a non-responding peer and drop it from the frontier."""
        self.failed.add(key)
        distance = key ^ self.target_key
        position = bisect_left(self._frontier, distance)
        if position < len(self._frontier) and self._frontier[position] == distance:
            del self._frontier[position]

    def closest_live(self) -> List[int]:
        """The ``k`` closest peers that answered a query."""
        queried = self.queried
        target_key = self.target_key
        live = []
        for distance in self._frontier:
            key = distance ^ target_key
            if key in queried:
                live.append(key)
                if len(live) >= self.k:
                    break
        return live


def iterative_find_node(
    target_key: int,
    start: Sequence[int],
    query: FindNodeQuery,
    k: int = DEFAULT_K,
    alpha: int = DEFAULT_ALPHA,
    max_queries: int = 500,
) -> LookupResult:
    """Run a ``GetClosestPeers(target_key)`` walk.

    :param target_key: DHT key being walked towards.
    :param start: keys of the initial candidates (typically from the
        local table).
    :param query: ``(peer key, target_key) -> closer peer keys or None``.
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
            for key in batch:
                if walk.messages >= max_queries:
                    break
                walk.queried.add(key)
                walk.messages += 1
                response = query(key, target_key)
                if response is None:
                    walk.mark_failed(key)
                    continue
                walk.contacted.append(key)
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
    start: Sequence[int],
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
    #: first record per provider, keyed by the provider's DHT key.
    providers: Dict[int, ProviderRecord] = {}
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
            for key in batch:
                if walk.messages >= max_queries:
                    break
                walk.queried.add(key)
                walk.messages += 1
                response = query(key, cid)
                if response is None:
                    walk.mark_failed(key)
                    continue
                walk.contacted.append(key)
                records, closer_peers = response
                for record in records:
                    providers.setdefault(record.provider.dht_key, record)
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
    closest = walk.closest_live()
    return ProviderLookupResult(
        closest=closest,
        contacted=walk.contacted,
        failed=walk.failed,
        messages=walk.messages,
        providers=list(providers.values()),
        resolvers_queried=list(closest),
    )
