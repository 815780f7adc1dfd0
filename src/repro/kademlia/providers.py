"""Provider-record storage.

A provider record is a mapping of CID to multiaddresses that embeds the
provider's connectivity information and peer ID (paper §6).  DHT servers
close to a CID store these records; records expire (go-ipfs uses a 24 h
TTL with 12 h re-provides) so stale providers eventually disappear.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

from repro.ids.cid import CID
from repro.ids.multiaddr import Multiaddr
from repro.ids.peerid import PeerID

#: Seconds before a provider record expires (go-ipfs default: 24 h).
DEFAULT_RECORD_TTL = 24 * 3600.0


class _RecordFields(NamedTuple):
    cid: CID
    provider: PeerID
    addrs: Tuple[Multiaddr, ...]
    published_at: float


class ProviderRecord(_RecordFields):
    """One advertised provider for one CID (an immutable tuple: one is
    built per provide)."""

    __slots__ = ()

    @property
    def is_relayed(self) -> bool:
        """Whether the provider is reachable only through a relay (NAT-ed)."""
        return bool(self.addrs) and all(addr.is_circuit for addr in self.addrs)


class ProviderStore:
    """Per-node store of provider records with TTL-based expiry."""

    def __init__(self, ttl: float = DEFAULT_RECORD_TTL) -> None:
        self.ttl = ttl
        self._records: Dict[CID, Dict[PeerID, ProviderRecord]] = {}

    def add(self, record: ProviderRecord) -> None:
        """Store or refresh a record (a re-provide replaces the old one)."""
        self._records.setdefault(record.cid, {})[record.provider] = record

    def get(self, cid: CID, now: float) -> List[ProviderRecord]:
        """Unexpired records for ``cid``; expired ones are pruned in place."""
        by_provider = self._records.get(cid)
        if not by_provider:
            return []
        alive = {}
        for provider, record in by_provider.items():
            if now - record.published_at < self.ttl:
                alive[provider] = record
        if alive:
            self._records[cid] = alive
        else:
            del self._records[cid]
        return list(alive.values())

    def cids(self) -> List[CID]:
        """All CIDs with at least one (possibly expired) record."""
        return list(self._records)

    def prune(self, now: float) -> int:
        """Drop every expired record; returns how many were removed."""
        removed = 0
        for cid in list(self._records):
            by_provider = self._records[cid]
            alive = {
                provider: record
                for provider, record in by_provider.items()
                if now - record.published_at < self.ttl
            }
            removed += len(by_provider) - len(alive)
            if alive:
                self._records[cid] = alive
            else:
                del self._records[cid]
        return removed

    def __len__(self) -> int:
        return sum(len(by_provider) for by_provider in self._records.values())
