"""Traffic analyses (paper §5, Figs. 9-13).

Operates on the Hydra-booster DHT log and the Bitswap monitor log:
traffic classification, identifier lifetimes, centralization Pareto
charts, cloud shares by count and by volume, and platform attribution
through reverse DNS.

Every aggregate is derived from one :class:`LogSummary` per log.  The
monitors fold each entry into their own summary as they append it
(:meth:`LogSummary.add`), so the §5 reports read no log records at all.
:func:`summarize` is the same fold run over a stored log: the fallback
for a monitor opened over a store that already held records, and the
parity oracle for the incremental fold.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Set, Tuple, Union

from repro.core.pareto import pareto_curve, top_share
from repro.ids.cid import CID
from repro.ids.peerid import PeerID
from repro.kademlia.messages import MessageEnvelope, TrafficClass
from repro.monitors.bitswap_monitor import BitswapLogEntry
from repro.netsim.clock import SECONDS_PER_DAY
from repro.world.clouddb import CloudIPDatabase
from repro.world.rdns import ReverseDNS

#: (traffic class, sender, sender IP); the class is ``None`` for Bitswap
#: entries, which carry none.
SenderKey = Tuple[Optional[TrafficClass], PeerID, str]

#: Traffic class by fold code: ``TrafficClass.X.code`` indexes it, and
#: the last code stands for a Bitswap entry's missing class.
_CLASS_OF_CODE: Tuple[Optional[TrafficClass], ...] = (*TrafficClass, None)
_NO_CLASS = len(TrafficClass)


# ---------------------------------------------------------------------------
# The fold
# ---------------------------------------------------------------------------


class LogSummary:
    """What the §5 figures need from one DHT or Bitswap log.

    The monitors fold every entry in as they log it, so :meth:`add` keys
    its dicts on values that hash in C: the class's int code, the
    sender's digest bytes (their hash is cached), the IP string and the
    CID's digest.  ``PeerID``, ``CID`` and the enums hash in Python.  The
    first-seen ``PeerID`` and ``CID`` objects are kept so that the public
    views (:attr:`counts`, :attr:`days_by_cid`, :attr:`days_by_ip`,
    :attr:`days_by_peer`) read as if the dicts were keyed on them.

    Every dict keeps the log's first-seen order, and so does every
    aggregate derived from it: the Pareto curves and the reports' top-N
    lists break ties in that order.  The days an identifier was seen on
    (Fig. 9) are a bit set: bit ``d`` is set when it was seen on day
    ``d``.  An int costs a fraction of a ``set`` per identifier, and a
    campaign keeps its summaries for as long as it keeps its result.
    """

    def __init__(self) -> None:
        #: message count per (class code, sender digest, IP).
        self._counts: Dict[Tuple[int, bytes, str], int] = {}
        #: sender digest → the first ``PeerID`` seen with it.
        self._peers: Dict[bytes, PeerID] = {}
        self._peer_days: Dict[bytes, int] = {}
        self._ip_days: Dict[str, int] = {}
        #: the first ``CID`` seen per digest, in ``_cid_days`` order (CIDs
        #: are the most numerous identifier: a list costs 8 B a CID).
        self._cids: List[CID] = []
        self._cid_days: Dict[bytes, int] = {}
        self.total = 0
        self.first_timestamp: Optional[float] = None
        self.last_timestamp: Optional[float] = None

    def add(
        self,
        traffic_class: Optional[TrafficClass],
        sender: PeerID,
        sender_ip: str,
        cid: Optional[CID],
        timestamp: float,
    ) -> None:
        """Fold one log entry in (the monitors call this as they append)."""
        digest = sender.digest
        key = (_NO_CLASS if traffic_class is None else traffic_class.code, digest, sender_ip)
        counts = self._counts
        counts[key] = counts.get(key, 0) + 1
        day_bit = 1 << int(timestamp // SECONDS_PER_DAY)
        # Most entries repeat a day already set: those skip the write.
        if cid is not None:
            cid_digest = cid.digest
            days = self._cid_days.get(cid_digest)
            if days is None:
                self._cids.append(cid)
                self._cid_days[cid_digest] = day_bit
            elif not days & day_bit:
                self._cid_days[cid_digest] = days | day_bit
        days = self._ip_days.get(sender_ip)
        if days is None or not days & day_bit:
            self._ip_days[sender_ip] = (days or 0) | day_bit
        days = self._peer_days.get(digest)
        if days is None:
            self._peers[digest] = sender
            self._peer_days[digest] = day_bit
        elif not days & day_bit:
            self._peer_days[digest] = days | day_bit
        self.total += 1
        if self.first_timestamp is None:
            self.first_timestamp = timestamp
        self.last_timestamp = timestamp

    # -- public views, built on each read (the reports below read the
    # -- fold's own dicts instead) -------------------------------------

    @property
    def counts(self) -> Dict[SenderKey, int]:
        """Message count per (class, sender, IP), in first-seen order."""
        peers = self._peers
        return {
            (_CLASS_OF_CODE[code], peers[digest], ip): count
            for (code, digest, ip), count in self._counts.items()
        }

    @property
    def days_by_cid(self) -> Dict[CID, int]:
        return dict(zip(self._cids, self._cid_days.values()))

    @property
    def days_by_ip(self) -> Dict[str, int]:
        return dict(self._ip_days)

    @property
    def days_by_peer(self) -> Dict[PeerID, int]:
        return dict(zip(self._peers.values(), self._peer_days.values()))

    def __eq__(self, other: object) -> bool:
        """Equal public views (in any order, as dicts compare)."""
        if not isinstance(other, LogSummary):
            return NotImplemented
        return all(
            getattr(self, view) == getattr(other, view)
            for view in (
                "counts",
                "days_by_cid",
                "days_by_ip",
                "days_by_peer",
                "total",
                "first_timestamp",
                "last_timestamp",
            )
        )

    def has_cid(self, cid: CID) -> bool:
        """Whether an entry for ``cid`` (by digest) was folded in."""
        return cid.digest in self._cid_days

    @property
    def unique_cids(self) -> int:
        return len(self._cid_days)

    @property
    def unique_ips(self) -> int:
        return len(self._ip_days)

    @property
    def unique_peers(self) -> int:
        return len(self._peer_days)

    # -- §5 headline: message-class split -------------------------------

    @property
    def class_shares(self) -> Dict[str, float]:
        """Download / advertisement / other shares of a DHT log."""
        tallies = self._tally(itemgetter(0))
        tallies.pop(_NO_CLASS, None)
        return {
            _CLASS_OF_CODE[code].value: count / self.total
            for code, count in tallies.items()
        }

    # -- Figs. 10-11: volumes behind the Pareto charts ------------------

    def _tally(
        self,
        key: Callable[[Tuple[int, bytes, str]], Hashable],
        traffic_class: Optional[TrafficClass] = None,
    ) -> Dict[Hashable, int]:
        """Message counts regrouped by ``key`` of the fold's (class code,
        sender digest, IP) keys, in first-seen order, optionally for one
        traffic class only."""
        code = None if traffic_class is None else traffic_class.code
        tallies: Dict[Hashable, int] = {}
        for fold_key, count in self._counts.items():
            if code is None or fold_key[0] == code:
                label = key(fold_key)
                tallies[label] = tallies.get(label, 0) + count
        return tallies

    def peer_volumes(
        self, traffic_class: Optional[TrafficClass] = None
    ) -> Dict[PeerID, int]:
        peers = self._peers
        return {
            peers[digest]: count
            for digest, count in self._tally(itemgetter(1), traffic_class).items()
        }

    def ip_volumes(self, traffic_class: Optional[TrafficClass] = None) -> Dict[str, int]:
        return self._tally(itemgetter(2), traffic_class)

    # -- Fig. 9: identifier lifetimes -----------------------------------

    def days_seen_histogram(self, identifier: str) -> Dict[int, int]:
        """days-seen → number of identifiers (x-axis of Fig. 9).

        ``identifier`` is one of ``"cid"``, ``"ip"``, ``"peerid"``.
        """
        days_by_id = {
            "cid": self._cid_days,
            "ip": self._ip_days,
            "peerid": self._peer_days,
        }.get(identifier)
        if days_by_id is None:
            raise ValueError(f"unknown identifier kind: {identifier}")
        return dict(Counter(days.bit_count() for days in days_by_id.values()))

    def ip_days_cloud_share(self, cloud_db: CloudIPDatabase) -> Dict[int, float]:
        """Cloud share among IPs seen exactly N days — the Fig. 9 overlay
        showing that long-lived IPs skew cloud."""
        totals: Counter = Counter()
        cloud: Counter = Counter()
        for ip, days in self._ip_days.items():
            bucket = days.bit_count()
            totals[bucket] += 1
            if cloud_db.is_cloud(ip):
                cloud[bucket] += 1
        return {bucket: cloud[bucket] / totals[bucket] for bucket in totals}

    # -- Fig. 12: cloud per traffic type --------------------------------

    def cloud_report(
        self, cloud_db: CloudIPDatabase, traffic_class: Optional[TrafficClass] = None
    ) -> CloudTrafficReport:
        """Cloud and per-provider shares of the (optionally filtered) log."""
        volume_by_ip = self.ip_volumes(traffic_class)
        provider_by_ip = {ip: cloud_db.lookup(ip) or "non-cloud" for ip in volume_by_ip}
        return _report_from_ip_volumes(volume_by_ip, provider_by_ip)

    # -- Fig. 13: platform attribution ----------------------------------

    def platform_shares(
        self,
        rdns: ReverseDNS,
        hydra_peers: Set[PeerID],
        traffic_class: Optional[TrafficClass] = None,
    ) -> Dict[str, float]:
        """Share of (class-filtered) traffic per platform."""
        peers = self._peers
        pairs = self._tally(itemgetter(1, 2), traffic_class)
        tallies: Counter = Counter()
        for (digest, ip), count in pairs.items():
            tallies[attribute_platform(ip, peers[digest], rdns, hydra_peers)] += count
        total = sum(tallies.values())
        return {label: count / total for label, count in tallies.items()}


def summarize(log: Iterable[Union[MessageEnvelope, BitswapLogEntry]]) -> LogSummary:
    """One pass over a (possibly disk-backed) Hydra or Bitswap log:
    :meth:`LogSummary.add` for every entry, in log order."""
    summary = LogSummary()
    add = summary.add
    for entry in log:
        if isinstance(entry, MessageEnvelope):
            add(
                entry.traffic_class,
                entry.sender,
                entry.sender_ip,
                entry.target_cid,
                entry.timestamp,
            )
        else:
            add(None, entry.sender, entry.sender_ip, entry.cid, entry.timestamp)
    return summary


# ---------------------------------------------------------------------------
# Figs. 10-11: centralization Pareto charts
# ---------------------------------------------------------------------------


@dataclass
class ParetoReport:
    """One curve of Fig. 10/11 plus its headline aggregates."""

    curve: List[Tuple[float, float]]
    top5_share: float
    #: share of total volume from the highlighted subgroup (gateways in
    #: Fig. 10, cloud IPs in Fig. 11).
    subgroup_share: float


def peerid_pareto(
    volumes: Dict[PeerID, float], gateway_peers: Set[PeerID]
) -> ParetoReport:
    total = sum(volumes.values())
    gateway_volume = sum(v for peer, v in volumes.items() if peer in gateway_peers)
    return ParetoReport(
        curve=pareto_curve(volumes),
        top5_share=top_share(volumes, 0.05),
        subgroup_share=gateway_volume / total if total else 0.0,
    )


def ip_pareto(volumes: Dict[str, float], cloud_db: CloudIPDatabase) -> ParetoReport:
    total = sum(volumes.values())
    cloud_volume = sum(v for ip, v in volumes.items() if cloud_db.is_cloud(ip))
    return ParetoReport(
        curve=pareto_curve(volumes),
        top5_share=top_share(volumes, 0.05),
        subgroup_share=cloud_volume / total if total else 0.0,
    )


# ---------------------------------------------------------------------------
# Fig. 12: cloud per traffic type, by IP count and by volume
# ---------------------------------------------------------------------------


@dataclass
class CloudTrafficReport:
    """The two panels of Fig. 12 for one traffic subset."""

    cloud_share_by_ip_count: float
    cloud_share_by_volume: float
    provider_shares_by_ip_count: Dict[str, float] = field(default_factory=dict)
    provider_shares_by_volume: Dict[str, float] = field(default_factory=dict)


def _report_from_ip_volumes(
    volume_by_ip: Dict[str, float], provider_by_ip: Dict[str, str]
) -> CloudTrafficReport:
    total_ips = len(volume_by_ip)
    total_volume = sum(volume_by_ip.values())
    if total_ips == 0:
        return CloudTrafficReport(0.0, 0.0)
    by_count: Counter = Counter(provider_by_ip[ip] for ip in volume_by_ip)
    by_volume: Counter = Counter()
    for ip, volume in volume_by_ip.items():
        by_volume[provider_by_ip[ip]] += volume
    return CloudTrafficReport(
        cloud_share_by_ip_count=1.0 - by_count["non-cloud"] / total_ips,
        cloud_share_by_volume=1.0 - by_volume["non-cloud"] / total_volume,
        provider_shares_by_ip_count={
            provider: count / total_ips for provider, count in by_count.items()
        },
        provider_shares_by_volume={
            provider: volume / total_volume for provider, volume in by_volume.items()
        },
    )


# ---------------------------------------------------------------------------
# Fig. 13: platform attribution via reverse DNS
# ---------------------------------------------------------------------------

#: rDNS suffix → platform label, in match order.
PLATFORM_SUFFIXES: Tuple[Tuple[str, str], ...] = (
    ("web3.storage", "web3-storage"),
    ("nft.storage", "nft-storage"),
    ("pinata.cloud", "pinata"),
    ("filebase.com", "filebase"),
    ("ipfs-bank.io", "ipfs-bank"),
    ("amazonaws.com", "amazon-aws-other"),
)


def attribute_platform(
    ip: str,
    sender: Optional[PeerID],
    rdns: ReverseDNS,
    hydra_peers: Set[PeerID],
) -> str:
    """The paper's §5 attribution: Hydra peer IDs first, then reverse DNS."""
    if sender is not None and sender in hydra_peers:
        return "hydra"
    hostname = rdns.lookup(ip)
    if hostname is None:
        return "other"
    for suffix, label in PLATFORM_SUFFIXES:
        if hostname.endswith(suffix):
            return label
    return "other"
