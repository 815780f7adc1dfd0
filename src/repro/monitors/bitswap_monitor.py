"""The Bitswap monitor.

A modified IPFS node with unbounded connection capacity that logs all
incoming Bitswap traffic to disk (paper §3).  The monitor sees the 1-hop
discovery broadcasts of every peer it is connected to — a large portion
of the network, but not everyone, and only the locally broadcast requests
(not unicast responses).

Connectivity is modelled per participant: stable, well-connected nodes
(gateways, platforms, cloud servers) are almost always connected to the
monitor; the churning fringe less so.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Set, Tuple

from repro.ids.cid import CID
from repro.ids.peerid import PeerID
from repro.netsim.node import Node
from repro.obs import observer as obs
from repro.world.population import NodeClass

if TYPE_CHECKING:  # pragma: no cover - the store imports us for the codec
    from repro.core.traffic import LogSummary
    from repro.store.backend import StorageBackend
    from repro.store.eventlog import EventLog

#: Probability that a node of a class holds a connection to the monitor.
CONNECTION_PROBABILITY = {
    NodeClass.PLATFORM: 0.98,
    NodeClass.GATEWAY: 0.97,
    NodeClass.CLOUD_STABLE: 0.85,
    NodeClass.HYBRID: 0.85,
    NodeClass.RESIDENTIAL_STABLE: 0.70,
    NodeClass.RESIDENTIAL_EPHEMERAL: 0.50,
    NodeClass.NAT_CLIENT: 0.40,
}


class _EntryFields(NamedTuple):
    timestamp: float
    sender: PeerID
    sender_ip: str
    cid: CID


class BitswapLogEntry(_EntryFields):
    """One logged incoming want broadcast (an immutable tuple)."""

    __slots__ = ()


class BitswapMonitor:
    """Logs want-have broadcasts from connected peers."""

    def __init__(
        self,
        rng: Optional[random.Random] = None,
        store: Optional["StorageBackend"] = None,
    ) -> None:
        # Imported here: repro.store's codecs need this module, and so
        # does repro.core.traffic, so module-level imports would be
        # circular.
        from repro.core.traffic import LogSummary
        from repro.store import BITSWAP_CODEC, EventLog, open_store

        if isinstance(store, str):
            store = open_store(store)
        self.rng = rng or random.Random(0xB17)
        self.log: "EventLog" = EventLog(BITSWAP_CODEC, store)
        #: the §5 fold of every entry :meth:`observe_broadcast` appended;
        #: it covers the whole log only when the store started out empty.
        self.summary: "LogSummary" = LogSummary()
        self._connected_specs: Dict[int, bool] = {}
        #: CID digest -> (CID, timestamp it was last logged at) for every
        #: CID logged since :meth:`forget_before` last pruned: the live
        #: sample's source, so taking it reads nothing back from the log.
        self._recent: Dict[bytes, Tuple[CID, float]] = {}
        self._since = float("-inf")

    def is_connected(self, node: Node) -> bool:
        """Whether the monitor holds a Bitswap connection to this peer.

        The decision is persistent per physical participant: stable nodes
        that connected once stay connected (the monitor never prunes).
        """
        spec_index = node.spec.index
        if spec_index not in self._connected_specs:
            probability = CONNECTION_PROBABILITY[node.node_class]
            self._connected_specs[spec_index] = self.rng.random() < probability
        return self._connected_specs[spec_index]

    def observe_broadcast(self, timestamp: float, node: Node, cid: CID) -> bool:
        """Log the broadcast if the sender is connected to us."""
        logged = self.is_connected(node) and node.peer is not None and bool(node.ips)
        if logged:
            sender, sender_ip = node.peer, node.primary_ip_str
            # All fields given: skip the keyword-capable constructor.
            self.log.append(tuple.__new__(BitswapLogEntry, (timestamp, sender, sender_ip, cid)))
            self._recent[cid.digest] = (cid, timestamp)
            self.summary.add(None, sender, sender_ip, cid, timestamp)
        obs.observe_bitswap(timestamp, node, cid, logged)
        return logged

    # -- derived datasets -------------------------------------------------------

    def cids_on_day(self, day: int) -> Set[CID]:
        """All distinct CIDs requested on a given simulated day."""
        from repro.netsim.clock import SECONDS_PER_DAY

        low = day * SECONDS_PER_DAY
        high = low + SECONDS_PER_DAY
        return {entry.cid for entry in self.log.window(low, high)}

    def cids_in_window(self, start: float, end: float) -> Set[CID]:
        """Distinct CIDs requested in a time window (newest log suffix)."""
        return {entry.cid for entry in self.log.window(start, end)}

    def forget_before(self, since: float) -> None:
        """Drop the CIDs last logged before ``since`` from the recent index.

        ``since`` never moves back (the log is time-ordered); an earlier
        value than the previous call's raises ``ValueError``.
        """
        if since < self._since:
            raise ValueError(f"since moved back: {since} < {self._since}")
        self._since = since
        self._recent = {
            digest: entry for digest, entry in self._recent.items() if entry[1] >= since
        }

    def sampled_cids_since(
        self, since: float, sample_size: int, rng: Optional[random.Random] = None
    ) -> List[CID]:
        """Deduplicated random sample of the CIDs logged at or after ``since``.

        Read from the recent index after :meth:`forget_before`: the
        digest-sorted list, or ``rng.sample`` of it, that sampling the
        log's window ``[since, end)`` gives for any ``end`` past the
        newest logged timestamp.
        """
        self.forget_before(since)
        recent = self._recent
        digests = sorted(recent)
        if len(digests) > sample_size:
            digests = (rng or self.rng).sample(digests, sample_size)
        return [recent[digest][0] for digest in digests]

    def daily_sampled_cids(
        self, day: int, sample_size: int, rng: Optional[random.Random] = None
    ) -> List[CID]:
        """The paper's daily dataset: dedupe the day's requested CIDs and
        draw a fixed-size random sample (200 k at paper scale)."""
        rng = rng or self.rng
        cids = sorted(self.cids_on_day(day), key=lambda cid: cid.digest)
        if len(cids) <= sample_size:
            return cids
        return rng.sample(cids, sample_size)

    def __len__(self) -> int:
        return len(self.log)
