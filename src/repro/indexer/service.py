"""The indexer service: a cloud-hosted, single-operator resolution API.

Providers announce their content to the indexer (the interplanetary
network indexer ingests storage-deal and advertisement feeds); clients
resolve a CID with one round trip instead of a multi-hop DHT walk.
Because one entity operates it, it can also *refuse* to resolve content
— the §9 censorship concern this module makes measurable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.ids.cid import CID
from repro.kademlia.providers import ProviderRecord
from repro.netsim.network import Overlay


@dataclass
class IndexerStats:
    queries: int = 0
    hits: int = 0
    blocked: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.queries if self.queries else 0.0


class IndexerService:
    """A centralized index over the network's provider records.

    :ivar coverage: fraction of advertisements the indexer ingests
        (large operators feed it directly; fringe publishers may not).
    :ivar rtt_seconds: single round-trip latency of an indexer query.
    """

    def __init__(
        self,
        overlay: Overlay,
        coverage: float = 0.95,
        rtt_seconds: float = 0.08,
        rng: Optional[random.Random] = None,
    ) -> None:
        if not 0.0 <= coverage <= 1.0:
            raise ValueError("coverage must be a probability")
        self.overlay = overlay
        self.coverage = coverage
        self.rtt_seconds = rtt_seconds
        self.rng = rng or random.Random(0x1D0)
        self.stats = IndexerStats()
        self._blocklist: Set[CID] = set()
        #: CIDs the ingest pipeline missed (sampled lazily, persistent).
        self._missed: Dict[CID, bool] = {}

    # -- operator controls ----------------------------------------------------

    def block(self, cid: CID) -> None:
        """Censor a CID: the operator refuses to resolve it (§9)."""
        self._blocklist.add(cid)

    def unblock(self, cid: CID) -> None:
        self._blocklist.discard(cid)

    # -- resolution -------------------------------------------------------------

    def _ingested(self, cid: CID) -> bool:
        if cid not in self._missed:
            self._missed[cid] = self.rng.random() < self.coverage
        return self._missed[cid]

    def resolve(self, cid: CID) -> List[ProviderRecord]:
        """One-shot resolution against the index.

        Returns the records the index knows about; empty for blocked,
        non-ingested or genuinely unprovided content.
        """
        self.stats.queries += 1
        if cid in self._blocklist:
            self.stats.blocked += 1
            return []
        if not self._ingested(cid):
            return []
        records = self.overlay.providers.get(cid, self.overlay.now)
        if records:
            self.stats.hits += 1
        return list(records)
