"""Combined indexer + DHT resolution, with latency accounting.

§9: "cloud-based resolution is always faster than decentralised lookup…
we strongly advise keeping the DHT as a fallback resolution mechanism to
maintain the decentralization of the network."  The combined resolver
makes the trade-off measurable: latency, success rate and — under
censorship — availability, per strategy.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import List, Optional

from repro.ids.cid import CID
from repro.indexer.service import IndexerService
from repro.kademlia.lookup import iterative_find_providers
from repro.kademlia.providers import ProviderRecord
from repro.netsim.network import Overlay

#: Modelled per-hop latency of a DHT walk step (connect + query).
DHT_HOP_SECONDS = 0.25


class ResolutionStrategy(enum.Enum):
    DHT_ONLY = "dht-only"
    INDEXER_ONLY = "indexer-only"
    INDEXER_WITH_DHT_FALLBACK = "indexer+dht-fallback"


@dataclass
class ResolutionOutcome:
    """One resolution attempt."""

    cid: CID
    strategy: ResolutionStrategy
    records: List[ProviderRecord]
    latency_seconds: float
    used_fallback: bool = False

    @property
    def resolved(self) -> bool:
        return bool(self.records)


class CombinedResolver:
    """Resolves CIDs via the indexer, the DHT, or indexer-with-fallback."""

    def __init__(
        self,
        overlay: Overlay,
        indexer: IndexerService,
        rng: Optional[random.Random] = None,
        bootstrap_size: int = 8,
    ) -> None:
        self.overlay = overlay
        self.indexer = indexer
        self.rng = rng or random.Random(0x1D1)
        self.bootstrap_size = bootstrap_size

    def _dht_resolve(self, cid: CID):
        servers = self.overlay.online_servers()
        start = [
            node.peer.dht_key
            for node in self.rng.sample(servers, min(self.bootstrap_size, len(servers)))
        ]
        result = iterative_find_providers(
            cid, start, self.overlay.get_providers_query(timeout=60.0)
        )
        # Walk latency: alpha=3 concurrent queries per round.
        rounds = max(1, (result.messages + 2) // 3)
        return list(result.providers), rounds * DHT_HOP_SECONDS

    def resolve(self, cid: CID, strategy: ResolutionStrategy) -> ResolutionOutcome:
        if strategy is ResolutionStrategy.DHT_ONLY:
            records, latency = self._dht_resolve(cid)
            return ResolutionOutcome(cid, strategy, records, latency)
        if strategy is ResolutionStrategy.INDEXER_ONLY:
            records = self.indexer.resolve(cid)
            return ResolutionOutcome(cid, strategy, records, self.indexer.rtt_seconds)
        # Indexer with DHT fallback: try the fast path, walk on failure.
        records = self.indexer.resolve(cid)
        latency = self.indexer.rtt_seconds
        used_fallback = False
        if not records:
            dht_records, dht_latency = self._dht_resolve(cid)
            records = dht_records
            latency += dht_latency
            used_fallback = True
        return ResolutionOutcome(cid, strategy, records, latency, used_fallback)

    def batch(self, cids, strategy: ResolutionStrategy) -> List[ResolutionOutcome]:
        return [self.resolve(cid, strategy) for cid in cids]


def availability(outcomes: List[ResolutionOutcome]) -> float:
    """Fraction of attempts that found at least one provider."""
    if not outcomes:
        return 0.0
    return sum(1 for outcome in outcomes if outcome.resolved) / len(outcomes)


def mean_latency(outcomes: List[ResolutionOutcome]) -> float:
    if not outcomes:
        return 0.0
    return sum(outcome.latency_seconds for outcome in outcomes) / len(outcomes)
