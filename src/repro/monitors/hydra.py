"""The (modified) Hydra-booster DHT monitor.

The paper runs a Hydra-booster with 20 virtual peer IDs co-located on one
VM and modified to write all incoming DHT requests to disk: timestamp,
sender peer ID and IP, request type, target key, and the proxy DHT server
when the sender used NAT traversal (§3).  The authors estimate the node
captures ≈4 % of all IPFS DHT traffic because an average query contacts
~50 nodes out of ~25 000 servers: ``50 × 20 / 25 000 = 4 %``.

The simulated Hydra uses exactly that geometry: its virtual heads sit
uniformly in the keyspace, so each message of a DHT walk reaches a head
with probability ``heads / servers``; the workload engine asks
:meth:`capture_count` how many messages of a walk land in the log.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional

from repro.ids.cid import CID
from repro.ids.peerid import PeerID
from repro.kademlia.messages import MessageEnvelope, MessageType, TrafficClass
from repro.netsim.sampling import poisson
from repro.obs import observer as obs

if TYPE_CHECKING:  # pragma: no cover - the store imports us for the codec
    from repro.core.traffic import LogSummary
    from repro.store.backend import StorageBackend
    from repro.store.eventlog import EventLog


class HydraBooster:
    """A multi-headed DHT server that logs every incoming request.

    The log lives in an :class:`~repro.store.eventlog.EventLog`; pass a
    ``store`` backend or spec string (e.g. ``"sqlite:out/hydra.sqlite"``,
    see :func:`repro.store.open_store`) to spill it to disk instead of RAM.
    """

    def __init__(
        self,
        num_heads: int = 20,
        rng: Optional[random.Random] = None,
        cache_ttl: float = 24 * 3600.0,
        store: Optional["StorageBackend"] = None,
    ) -> None:
        # Imported here: repro.store's codecs need the monitor modules,
        # and so does repro.core.traffic, so module-level imports would
        # be circular.
        from repro.core.traffic import LogSummary
        from repro.store import HYDRA_CODEC, EventLog, open_store

        if isinstance(store, str):
            store = open_store(store)
        if num_heads < 1:
            raise ValueError("a Hydra needs at least one head")
        self.rng = rng or random.Random(0x47D2A)
        self.heads: List[PeerID] = [PeerID.generate(self.rng) for _ in range(num_heads)]
        self.log: "EventLog" = EventLog(HYDRA_CODEC, store)
        #: the §5 fold of every entry :meth:`record` appended; it covers
        #: the whole log only when the store started out empty.
        self.summary: "LogSummary" = LogSummary()
        self.cache_ttl = cache_ttl
        #: provider-record cache: CID -> last refresh time.  A miss is what
        #: triggers the proactive lookups of Protocol Labs' hydra fleet.
        self._cache: Dict[CID, float] = {}

    @property
    def num_heads(self) -> int:
        return len(self.heads)

    # -- capture geometry ----------------------------------------------------

    def capture_probability(self, network_servers: int) -> float:
        """Per-message probability of hitting one of our heads."""
        if network_servers <= 0:
            return 0.0
        return min(1.0, self.num_heads / network_servers)

    def capture_count(
        self, walk_messages: int, network_servers: int, rng: random.Random
    ) -> int:
        """How many of a walk's messages land in our log.

        Exact binomial for short walks; for the common small-probability
        case a Poisson draw with the same mean is indistinguishable and
        much cheaper (the engine calls this for every walk, so the
        geometry of :meth:`capture_probability` is inlined here).
        """
        if network_servers <= 0 or walk_messages <= 0:
            return 0
        probability = len(self.heads) / network_servers
        if probability < 0.2:
            return min(walk_messages, poisson(probability * walk_messages, rng))
        if probability > 1.0:
            probability = 1.0
        count = 0
        for _ in range(walk_messages):
            if rng.random() < probability:
                count += 1
        return count

    # -- logging ---------------------------------------------------------------

    def record(
        self,
        timestamp: float,
        sender: PeerID,
        sender_ip: str,
        message_type: MessageType,
        target_cid: Optional[CID] = None,
        target_key: Optional[int] = None,
        via_relay: Optional[PeerID] = None,
    ) -> MessageEnvelope:
        """Log one captured message: one envelope, one append, one fold
        and one observer dispatch (this runs once per captured message)."""
        if target_key is None and target_cid is not None:
            target_key = target_cid.dht_key
        # All fields given: skip the keyword-capable constructor.
        envelope = tuple.__new__(
            MessageEnvelope,
            (timestamp, sender, sender_ip, message_type, target_key, target_cid, via_relay),
        )
        self.log.append(envelope)
        self.summary.add(message_type.traffic_class, sender, sender_ip, target_cid, timestamp)
        obs.observe_hydra(envelope)
        return envelope

    # -- hydra cache behaviour ---------------------------------------------------

    def cache_lookup(self, cid: CID, now: float) -> bool:
        """True on cache hit; a miss marks the CID as being fetched."""
        last = self._cache.get(cid)
        if last is not None and now - last < self.cache_ttl:
            obs.inc("hydra.cache_hits")
            return True
        obs.inc("hydra.cache_misses")
        self._cache[cid] = now
        return False

    # -- analysis helpers -----------------------------------------------------------

    def entries(self, traffic_class: Optional[TrafficClass] = None) -> List[MessageEnvelope]:
        if traffic_class is None:
            return list(self.log)
        return [entry for entry in self.log if entry.traffic_class is traffic_class]

    def __len__(self) -> int:
        return len(self.log)
