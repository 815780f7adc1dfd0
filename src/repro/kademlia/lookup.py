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


def _walk(
    span_name: str,
    target,
    target_key: int,
    start: Sequence[int],
    query: Callable,
    k: int,
    alpha: int,
    max_queries: int,
    providers: Optional[Dict[int, ProviderRecord]] = None,
    max_providers: Optional[int] = None,
) -> Tuple[List[int], List[int], Set[int], int]:
    """The iterative walk behind both lookups, in one loop.

    Each round queries up to ``alpha`` unqueried peers among the ``k``
    closest known live ones; the walk ends when there are none (or after
    ``max_queries`` requests).  The frontier is the ascending list of XOR
    distances to ``target_key`` of every known, live-so-far peer.  XOR
    with the target is a bijection, so a distance names its peer
    (``distance ^ target_key`` is the key) and the list needs no payload
    or tie-breaker; each new key is XOR-ed once and bisected in.  The
    order of a response's keys is therefore irrelevant.  The queried set
    holds distances too, so a round's scan of the frontier XORs nothing.

    ``query(key, target)`` answers with closer peer keys or, when
    ``providers`` is given (GET_PROVIDERS), with ``(records, closer
    keys)``; the first record per provider key lands in ``providers`` and
    the walk stops once it holds ``max_providers`` (``None``: never).

    :returns: ``(closest live keys, contacted, failed, messages)``.
    """
    known = set(start)
    frontier = sorted(key ^ target_key for key in known)
    #: Smallest XOR distance over every peer *ever* absorbed — unlike the
    #: frontier head it never moves away from the target when the closest
    #: peer fails, making it the monotone progress measure the trace
    #: auditor checks per round.
    best = frontier[0] if frontier else None
    queried: Set[int] = set()
    failed: Set[int] = set()
    contacted: List[int] = []
    messages = 0
    rounds = 0
    tracer = obs.get_tracer()
    traced = tracer.enabled
    with tracer.span(span_name) as lookup_span:
        while messages < max_queries:
            if max_providers is not None and len(providers) >= max_providers:
                break
            batch = []
            for distance in frontier[:k]:
                if distance not in queried:
                    batch.append(distance)
                    if len(batch) >= alpha:
                        break
            if not batch:
                break
            if traced:
                tracer.event(
                    "lookup.round",
                    round=rounds,
                    batch=len(batch),
                    frontier=len(frontier),
                    failed=len(failed),
                    best=best,
                )
            rounds += 1
            for distance in batch:
                if messages >= max_queries:
                    break
                queried.add(distance)
                messages += 1
                key = distance ^ target_key
                response = query(key, target)
                if response is None:
                    failed.add(key)
                    del frontier[bisect_left(frontier, distance)]
                    continue
                contacted.append(key)
                if providers is not None:
                    records, response = response
                    for record in records:
                        providers.setdefault(record.provider.dht_key, record)
                # Most answers late in a walk name only known peers; the
                # C-level superset test skips those without a Python loop.
                if not known.issuperset(response):
                    for closer in response:
                        if closer not in known:
                            known.add(closer)
                            distance = closer ^ target_key
                            insort(frontier, distance)
                            if best is None or distance < best:
                                best = distance
                if max_providers is not None and len(providers) >= max_providers:
                    break
        if traced:
            if max_providers is not None and len(providers) >= max_providers:
                reason = "providers_found"
            elif messages >= max_queries:
                reason = "max_queries"
            else:
                reason = "frontier_exhausted"
            if providers is None:
                lookup_span.note(
                    reason=reason, rounds=rounds, messages=messages, failed=len(failed)
                )
            else:
                lookup_span.note(
                    reason=reason,
                    rounds=rounds,
                    messages=messages,
                    failed=len(failed),
                    providers=len(providers),
                )
    closest = []
    for distance in frontier:
        if distance in queried:
            closest.append(distance ^ target_key)
            if len(closest) >= k:
                break
    return closest, contacted, failed, messages


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
    closest, contacted, failed, messages = _walk(
        "lookup.find_node", target_key, target_key, start, query, k, alpha, max_queries
    )
    obs.inc("lookup.find_node_walks")
    obs.inc("lookup.messages", messages)
    obs.inc("lookup.failed_peers", len(failed))
    obs.observe("lookup.walk_messages", messages)
    return LookupResult(closest=closest, contacted=contacted, failed=failed, messages=messages)


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
    #: first record per provider, keyed by the provider's DHT key.
    providers: Dict[int, ProviderRecord] = {}
    closest, contacted, failed, messages = _walk(
        "lookup.find_providers",
        cid,
        cid.dht_key,
        start,
        query,
        k,
        alpha,
        max_queries,
        providers,
        None if exhaustive else max_providers,
    )
    obs.inc("lookup.find_providers_walks")
    obs.inc("lookup.messages", messages)
    obs.inc("lookup.failed_peers", len(failed))
    obs.inc("lookup.provider_records", len(providers))
    obs.observe("lookup.walk_messages", messages)
    return ProviderLookupResult(
        closest=closest,
        contacted=contacted,
        failed=failed,
        messages=messages,
        providers=list(providers.values()),
        resolvers_queried=list(closest),
    )
