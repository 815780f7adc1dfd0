"""Exhaustive provider-record collection (the paper's §3 modification).

Stock ``FindProviders(c)`` terminates when 20 providers are found or all
resolvers were asked.  The paper modifies the walk to terminate *only*
when all resolvers of ``c`` have been queried, retrieving every provider
record, and verifies each provider's reachability at collection time
(unreachable ones are ignored in the §6 analyses).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.ids.cid import CID
from repro.kademlia.lookup import iterative_find_providers
from repro.kademlia.providers import ProviderRecord
from repro.netsim.network import Overlay
from repro.obs import observer as obs


@dataclass
class ProviderObservation:
    """All provider records collected for one CID, with reachability."""

    cid: CID
    collected_at: float
    records: Tuple[ProviderRecord, ...]
    reachable: Tuple[ProviderRecord, ...]
    resolvers_queried: int
    walk_messages: int


class ProviderRecordFetcher:
    """Runs exhaustive FindProviders walks against the live overlay."""

    def __init__(
        self,
        overlay: Overlay,
        rng: Optional[random.Random] = None,
        bootstrap_size: int = 8,
        timeout: float = 60.0,
        exhaustive: bool = True,
    ) -> None:
        self.overlay = overlay
        self.rng = rng or random.Random(overlay.world.profile.seed + 6)
        self.bootstrap_size = bootstrap_size
        self.timeout = timeout
        self.exhaustive = exhaustive
        self.observations: List[ProviderObservation] = []

    def _start_peers(self) -> List[int]:
        """DHT keys of a random sample of online servers (the walk's seed)."""
        servers = self.overlay.online_servers()
        if not servers:
            return []
        sample = self.rng.sample(servers, min(self.bootstrap_size, len(servers)))
        return [node.peer.dht_key for node in sample]

    def fetch(self, cid: CID) -> ProviderObservation:
        """Collect all provider records for ``cid`` and verify reachability."""
        tracer = obs.get_tracer()
        # The fetch span wraps the lookup, so the walk's span (and its
        # per-round/message events) nests under it as one causal tree.
        with tracer.span("providers.fetch") as fetch_span:
            result = iterative_find_providers(
                cid,
                start=self._start_peers(),
                query=self.overlay.get_providers_query(self.timeout),
                exhaustive=self.exhaustive,
            )
            records = tuple(result.providers)
            reachable = tuple(
                record for record in records if self.overlay.is_provider_reachable(record)
            )
            if tracer.enabled:
                fetch_span.note(
                    records=len(records),
                    reachable=len(reachable),
                    messages=result.messages,
                )
        observation = ProviderObservation(
            cid=cid,
            collected_at=self.overlay.now,
            records=records,
            reachable=reachable,
            resolvers_queried=len(result.resolvers_queried),
            walk_messages=result.messages,
        )
        self.observations.append(observation)
        obs.inc("providers.fetches")
        obs.inc("providers.walk_messages", result.messages)
        obs.inc("providers.records", len(records))
        obs.inc("providers.reachable_records", len(reachable))
        return observation

    def fetch_many(self, cids: Sequence[CID]) -> List[ProviderObservation]:
        """The daily collection pass over a sampled CID set."""
        return [self.fetch(cid) for cid in cids]
