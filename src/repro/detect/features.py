"""Streaming per-peer windowed features over the monitor logs.

The extractor is single-pass: each Hydra/Bitswap entry updates one
accumulator keyed by ``(window, sender)``; nothing is buffered beyond
the per-peer sets, so it scales to disk-backed logs streamed through
:class:`~repro.store.eventlog.EventLog`.

Feature notes:

* *Targets* are DHT keys (a CID's key, or a FIND_NODE's raw key).  The
  capture model logs several messages per walk for the *same* target, so
  ``distinct_targets / messages`` naturally sits near the inverse of the
  per-walk capture mean for bulk-but-honest advertisers — much lower for
  record spammers hammering a fixed CID set.
* ``top_bucket_*`` measure target concentration inside one
  ``focus_bits``-bit keyspace bucket.  Many *distinct* keys inside one
  narrow bucket is the Sybil-reconnaissance fingerprint: honest repeated
  lookups of a hot CID concentrate too, but on a single key.
* ``unseen_targets`` counts distinct targets whose globally-first log
  appearance came from this peer in this window — ≈1 for the
  amplification attacker's always-fresh CIDs, low for indexers and the
  hydra fleet, whose targets exist in the catalog and have usually been
  advertised (and hence logged) before.
* ``first_seen`` marks the peer's first appearance across both logs —
  the churn-bomb's one-shot identities are first-seen, FIND_NODE-only
  and Bitswap-silent, en masse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.ids.keys import KEY_BITS
from repro.ids.peerid import PeerID
from repro.kademlia.messages import MessageEnvelope, MessageType
from repro.monitors.bitswap_monitor import BitswapLogEntry

DEFAULT_WINDOW_SECONDS = 21_600.0  # one campaign tick at 4 ticks/day
DEFAULT_FOCUS_BITS = 12


@dataclass
class PeerWindowFeatures:
    """One peer's behaviour inside one time window, as a monitor sees it."""

    window_start: float
    window_end: float
    peer: PeerID
    messages: int = 0
    get_providers: int = 0
    add_provider: int = 0
    find_node: int = 0
    targeted: int = 0
    distinct_targets: int = 0
    unseen_targets: int = 0
    top_bucket_count: int = 0
    top_bucket_distinct: int = 0
    first_ts: float = 0.0
    last_ts: float = 0.0
    first_seen: bool = False
    bitswap_broadcasts: int = 0
    bitswap_distinct_cids: int = 0

    @property
    def top_bucket_share(self) -> float:
        """Fraction of targeted messages aimed into the hottest bucket."""
        return self.top_bucket_count / self.targeted if self.targeted else 0.0

    @property
    def distinct_ratio(self) -> float:
        """Distinct targets per targeted message (fan-out vs. repetition)."""
        return self.distinct_targets / self.targeted if self.targeted else 0.0

    @property
    def unseen_ratio(self) -> float:
        """Share of this peer's distinct targets that were globally new."""
        return self.unseen_targets / self.distinct_targets if self.distinct_targets else 0.0

    @property
    def span(self) -> float:
        """Active time span inside the window (inter-arrival summary)."""
        return self.last_ts - self.first_ts


@dataclass
class _Acc:
    first_ts: float
    last_ts: float
    messages: int = 0
    get_providers: int = 0
    add_provider: int = 0
    find_node: int = 0
    targeted: int = 0
    targets: Set[int] = field(default_factory=set)
    unseen: Set[int] = field(default_factory=set)
    bucket_counts: Dict[int, int] = field(default_factory=dict)
    bucket_targets: Dict[int, Set[int]] = field(default_factory=dict)
    bitswap_broadcasts: int = 0
    bitswap_cids: Set[int] = field(default_factory=set)


class FeatureExtractor:
    """Single-pass feature accumulation over the two monitor logs.

    Feed entries in log order (both logs are append-ordered by
    timestamp); ``unseen_targets`` depends on global first-appearance
    order within the Hydra stream.
    """

    def __init__(
        self,
        window_seconds: float = DEFAULT_WINDOW_SECONDS,
        focus_bits: int = DEFAULT_FOCUS_BITS,
    ) -> None:
        self.window_seconds = window_seconds
        self.focus_bits = focus_bits
        self._accs: Dict[Tuple[int, PeerID], _Acc] = {}
        self._seen_targets: Set[int] = set()

    def _acc(self, timestamp: float, peer: PeerID) -> _Acc:
        window = int(timestamp // self.window_seconds)
        acc = self._accs.get((window, peer))
        if acc is None:
            acc = _Acc(first_ts=timestamp, last_ts=timestamp)
            self._accs[(window, peer)] = acc
        else:
            acc.last_ts = max(acc.last_ts, timestamp)
        return acc

    def add_hydra(self, entry: MessageEnvelope) -> None:
        acc = self._acc(entry.timestamp, entry.sender)
        acc.messages += 1
        if entry.message_type is MessageType.GET_PROVIDERS:
            acc.get_providers += 1
        elif entry.message_type is MessageType.ADD_PROVIDER:
            acc.add_provider += 1
        elif entry.message_type is MessageType.FIND_NODE:
            acc.find_node += 1
        target = entry.target_key
        if target is None and entry.target_cid is not None:
            target = entry.target_cid.dht_key
        if target is None:
            return
        acc.targeted += 1
        if target not in self._seen_targets:
            self._seen_targets.add(target)
            acc.unseen.add(target)
        acc.targets.add(target)
        bucket = target >> (KEY_BITS - self.focus_bits)
        acc.bucket_counts[bucket] = acc.bucket_counts.get(bucket, 0) + 1
        acc.bucket_targets.setdefault(bucket, set()).add(target)

    def add_bitswap(self, entry: BitswapLogEntry) -> None:
        acc = self._acc(entry.timestamp, entry.sender)
        acc.bitswap_broadcasts += 1
        acc.bitswap_cids.add(entry.cid.dht_key)

    def extract(
        self,
        hydra_entries: Iterable[MessageEnvelope],
        bitswap_entries: Iterable[BitswapLogEntry] = (),
    ) -> List[PeerWindowFeatures]:
        for entry in hydra_entries:
            self.add_hydra(entry)
        for entry in bitswap_entries:
            self.add_bitswap(entry)
        return self.finalize()

    def finalize(self) -> List[PeerWindowFeatures]:
        """Materialize features, sorted by (window, peer key).

        ``first_seen`` is resolved here from each peer's earliest window
        across both streams, so the hydra/bitswap feed order between the
        two ``add_*`` methods does not matter.
        """
        first_window: Dict[PeerID, int] = {}
        for window, peer in self._accs:
            if peer not in first_window or window < first_window[peer]:
                first_window[peer] = window
        features = []
        for (window, peer), acc in self._accs.items():
            if acc.bucket_counts:
                top_bucket, top_count = max(
                    acc.bucket_counts.items(), key=lambda kv: (kv[1], -kv[0])
                )
                top_distinct = len(acc.bucket_targets[top_bucket])
            else:
                top_count = top_distinct = 0
            features.append(
                PeerWindowFeatures(
                    window_start=window * self.window_seconds,
                    window_end=(window + 1) * self.window_seconds,
                    peer=peer,
                    messages=acc.messages,
                    get_providers=acc.get_providers,
                    add_provider=acc.add_provider,
                    find_node=acc.find_node,
                    targeted=acc.targeted,
                    distinct_targets=len(acc.targets),
                    unseen_targets=len(acc.unseen),
                    top_bucket_count=top_count,
                    top_bucket_distinct=top_distinct,
                    first_ts=acc.first_ts,
                    last_ts=acc.last_ts,
                    first_seen=first_window[peer] == window,
                    bitswap_broadcasts=acc.bitswap_broadcasts,
                    bitswap_distinct_cids=len(acc.bitswap_cids),
                )
            )
        features.sort(key=lambda f: (f.window_start, f.peer.dht_key))
        return features
