"""The Etherscan-style ENS extraction pipeline (paper §3).

Starting from a compiled set of resolver contracts, traverse the full
history of their event logs, filter for ``setContenthash`` calls, keep
records whose contenthash uses the ``ipfs-ns`` codec, and decode the CIDs
for subsequent provider resolution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.ens.chain import Chain
from repro.ens.contracts import Contenthash
from repro.ids.cid import CID


@dataclass
class ENSContenthashRecord:
    """One extracted ipfs-ns record."""

    node: str
    resolver: str
    block_number: int
    cid_string: str
    cid: Optional[CID]  # None when the CID string does not decode


@dataclass
class ENSScrapeResult:
    events_scanned: int = 0
    contenthash_events: int = 0
    records: List[ENSContenthashRecord] = field(default_factory=list)

    def cids(self) -> List[CID]:
        return [record.cid for record in self.records if record.cid is not None]


class ENSContenthashScraper:
    """Walks resolver event logs and extracts ipfs-ns contenthashes."""

    def __init__(self, chain: Chain, resolver_addresses: Sequence[str]) -> None:
        if not resolver_addresses:
            raise ValueError("need at least one resolver contract to scrape")
        self.chain = chain
        self.resolver_addresses = list(resolver_addresses)

    def scrape(self) -> ENSScrapeResult:
        """Extract the latest ipfs-ns contenthash per node."""
        result = ENSScrapeResult()
        latest: Dict[str, ENSContenthashRecord] = {}
        for address in self.resolver_addresses:
            for log in self.chain.iter_all_logs(address):
                result.events_scanned += 1
                if log.event != "ContenthashChanged":
                    continue
                result.contenthash_events += 1
                try:
                    contenthash = Contenthash.decode(str(log.data["hash"]))
                except (KeyError, ValueError):
                    continue
                if contenthash.codec != "ipfs-ns":
                    continue
                node = log.topics[0]
                latest[node] = ENSContenthashRecord(
                    node=node,
                    resolver=address,
                    block_number=log.block_number,
                    cid_string=contenthash.value,
                    cid=_decode_cid(contenthash.value),
                )
        result.records = list(latest.values())
        return result


def _decode_cid(text: str) -> Optional[CID]:
    """The :class:`CID` a contenthash names, or ``None`` when
    :meth:`CID.from_base32` rejects the text (e.g. a non-raw codec)."""
    try:
        return CID.from_base32(text)
    except ValueError:
        return None
