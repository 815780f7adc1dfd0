"""The §5 summaries the monitors fold as they log.

``HydraBooster.record`` and ``BitswapMonitor.observe_broadcast`` fold
every entry they append into the monitor's ``summary``, and
``CampaignResult.hydra_summary`` / ``bitswap_summary`` hand that fold to
the reports.  These tests pin the fold to one pass over the stored log
(``traffic.summarize``), view by view and in dict order, on every
storage backend at one and two workers; check that a monitor opened over
a store that already holds records falls back to that pass; compare
``full_report`` with the output of the parent's log pass and summary,
vendored below, on small copies of the three campaign-benchmark shapes;
and guard the capture path against Python-level hashing.  The other work
guard (``full_report`` reads no monitor record) is in
test_store_campaign.py.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Dict, Optional

import pytest

from repro.core.traffic import (
    LogSummary,
    _report_from_ip_volumes,
    attribute_platform,
    summarize,
)
from repro.ids.cid import CID
from repro.ids.peerid import PeerID
from repro.kademlia.messages import MessageEnvelope, MessageType, TrafficClass
from repro.monitors.bitswap_monitor import BitswapMonitor
from repro.monitors.hydra import HydraBooster
from repro.netsim.clock import SECONDS_PER_DAY
from repro.obs.observer import NULL_OBSERVER, Observer, use_observer
from repro.obs.stream import StreamAnalytics
from repro.scenario.config import ScenarioConfig
from repro.scenario.report import full_report
from repro.scenario.run import run_campaign
from repro.store import SqliteBackend
from repro.world.population import NodeClass
from repro.world.profiles import WorldProfile


def small_config(storage: str = "memory", workers: int = 1, **overrides) -> ScenarioConfig:
    # A warmup day puts entries on two sim days, so the day bit sets
    # carry more than one bit.
    base = dict(
        profile=WorldProfile(online_servers=100, seed=5),
        warmup_days=1,
        days=1,
        daily_cid_sample=20,
        provider_fetch_days=1,
        gateway_probes_per_endpoint=1,
        seed=5,
        storage=storage,
        workers=workers,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


#: What a summary shows its readers; the fold's own dicts are keyed on
#: other values, so the comparison goes through these.
PUBLIC_VIEWS = (
    "counts",
    "days_by_cid",
    "days_by_ip",
    "days_by_peer",
    "total",
    "first_timestamp",
    "last_timestamp",
    "class_shares",
)


def assert_same_summary(folded: LogSummary, oracle) -> None:
    """Every public view equal, dicts item by item in order."""
    views = [(name, getattr(folded, name), getattr(oracle, name)) for name in PUBLIC_VIEWS]
    for traffic_class in (None, *TrafficClass):
        for reader in ("peer_volumes", "ip_volumes"):
            views.append(
                (
                    f"{reader}({traffic_class})",
                    getattr(folded, reader)(traffic_class),
                    getattr(oracle, reader)(traffic_class),
                )
            )
    for name, got, want in views:
        if isinstance(want, dict):
            assert list(got.items()) == list(want.items()), name
        else:
            assert got == want, name


# ---------------------------------------------------------------------------
# the fold equals one pass over the stored log
# ---------------------------------------------------------------------------

STORAGES = ("memory", "jsonl", "sqlite")


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", STORAGES)
def test_folded_summaries_equal_a_pass_over_the_stored_log(kind, workers, tmp_path):
    storage = "memory" if kind == "memory" else f"{kind}:{tmp_path / 'logs'}"
    result = run_campaign(small_config(storage, workers))
    assert not result.exec_errors
    if kind != "memory":
        # Only the campaign process writes the logs: one file per log at
        # any worker count.
        files = sorted(path.name for path in (tmp_path / "logs").iterdir())
        assert [name for name in files if not name.endswith(("-wal", "-shm"))] == [
            f"bitswap.{kind}",
            f"hydra.{kind}",
        ]
    for monitor, summary in (
        (result.hydra, result.hydra_summary),
        (result.bitswap_monitor, result.bitswap_summary),
    ):
        assert summary is monitor.summary  # the fold, not a rescan
        assert summary.total == len(monitor.log) > 0
        assert_same_summary(summary, summarize(monitor.log))
    days = result.hydra_summary.days_by_peer.values()
    assert any(bits.bit_count() > 1 for bits in days)


def test_fold_sees_each_entry_as_it_is_logged():
    hydra = HydraBooster(num_heads=2)
    monitor = BitswapMonitor()
    peer, other = hydra.heads  # any two peer IDs will do
    hydra.record(10.0, peer, "10.0.0.1", MessageType.FIND_NODE, target_key=7)
    hydra.record(SECONDS_PER_DAY + 1.0, other, "10.0.0.2", MessageType.PING)
    hydra.record(SECONDS_PER_DAY + 2.0, peer, "10.0.0.1", MessageType.FIND_NODE)
    assert hydra.summary.total == 3
    assert hydra.summary.first_timestamp == 10.0
    assert hydra.summary.last_timestamp == SECONDS_PER_DAY + 2.0
    assert hydra.summary.days_by_peer == {peer: 0b11, other: 0b10}
    assert_same_summary(hydra.summary, summarize(hydra.log))
    assert monitor.summary == LogSummary()


# ---------------------------------------------------------------------------
# fallback: a monitor opened over a store that already holds records
# ---------------------------------------------------------------------------


def test_reopened_monitor_falls_back_to_a_pass_over_the_log(tmp_path):
    result = run_campaign(small_config(f"sqlite:{tmp_path / 'logs'}", warmup_days=0))
    expected_hydra = summarize(result.hydra.log)
    expected_bitswap = summarize(result.bitswap_monitor.log)
    result.hydra.log.close()
    result.bitswap_monitor.log.close()

    hydra = HydraBooster(store=SqliteBackend(tmp_path / "logs" / "hydra.sqlite"))
    bitswap = BitswapMonitor(store=SqliteBackend(tmp_path / "logs" / "bitswap.sqlite"))
    assert hydra.summary.total == 0 < len(hydra.log)
    reopened = replace(result, hydra=hydra, bitswap_monitor=bitswap)
    assert reopened.hydra_summary is not hydra.summary
    assert_same_summary(reopened.hydra_summary, expected_hydra)
    assert_same_summary(reopened.bitswap_summary, expected_bitswap)

    # Appending through the monitor does not make the fold whole.
    envelope = next(iter(hydra.log))
    hydra.record(envelope.timestamp, envelope.sender, envelope.sender_ip, envelope.message_type)
    assert hydra.summary.total == 1
    grown = replace(result, hydra=hydra, bitswap_monitor=bitswap)
    assert grown.hydra_summary.total == expected_hydra.total + 1
    assert_same_summary(grown.hydra_summary, summarize(hydra.log))
    hydra.log.close()
    bitswap.log.close()


# ---------------------------------------------------------------------------
# full_report equals the parent's output on the benchmark shapes
# ---------------------------------------------------------------------------


@dataclass
class ParentLogSummary:
    """The summary the reports read before the fold was keyed on digests
    (vendored): dicts keyed on the ``PeerID`` / ``CID`` / enum objects."""

    counts: Dict[tuple, int] = field(default_factory=dict)
    days_by_cid: Dict[CID, int] = field(default_factory=dict)
    days_by_ip: Dict[str, int] = field(default_factory=dict)
    days_by_peer: Dict[PeerID, int] = field(default_factory=dict)
    total: int = 0
    first_timestamp: Optional[float] = None
    last_timestamp: Optional[float] = None

    @property
    def class_shares(self):
        tallies = self._tally(lambda traffic_class, sender, ip: traffic_class)
        tallies.pop(None, None)
        return {
            traffic_class.value: count / self.total
            for traffic_class, count in tallies.items()
        }

    def _tally(self, key, traffic_class=None):
        tallies = {}
        for (entry_class, sender, ip), count in self.counts.items():
            if traffic_class is None or entry_class is traffic_class:
                label = key(entry_class, sender, ip)
                tallies[label] = tallies.get(label, 0) + count
        return tallies

    def peer_volumes(self, traffic_class=None):
        return self._tally(lambda _, sender, ip: sender, traffic_class)

    def ip_volumes(self, traffic_class=None):
        return self._tally(lambda _, sender, ip: ip, traffic_class)

    def days_seen_histogram(self, identifier):
        days_by_id = {
            "cid": self.days_by_cid,
            "ip": self.days_by_ip,
            "peerid": self.days_by_peer,
        }.get(identifier)
        if days_by_id is None:
            raise ValueError(f"unknown identifier kind: {identifier}")
        return dict(Counter(days.bit_count() for days in days_by_id.values()))

    def ip_days_cloud_share(self, cloud_db):
        totals: Counter = Counter()
        cloud: Counter = Counter()
        for ip, days in self.days_by_ip.items():
            bucket = days.bit_count()
            totals[bucket] += 1
            if cloud_db.is_cloud(ip):
                cloud[bucket] += 1
        return {bucket: cloud[bucket] / totals[bucket] for bucket in totals}

    def cloud_report(self, cloud_db, traffic_class=None):
        volume_by_ip = self.ip_volumes(traffic_class)
        provider_by_ip = {ip: cloud_db.lookup(ip) or "non-cloud" for ip in volume_by_ip}
        return _report_from_ip_volumes(volume_by_ip, provider_by_ip)

    def platform_shares(self, rdns, hydra_peers, traffic_class=None):
        pairs = self._tally(lambda _, sender, ip: (sender, ip), traffic_class)
        tallies: Counter = Counter()
        for (sender, ip), count in pairs.items():
            tallies[attribute_platform(ip, sender, rdns, hydra_peers)] += count
        total = sum(tallies.values())
        return {label: count / total for label, count in tallies.items()}


def parent_summarize(log) -> ParentLogSummary:
    """The log pass the reports ran before the monitors folded (vendored)."""
    counts = {}
    days_by_cid = {}
    days_by_ip = {}
    days_by_peer = {}
    total = 0
    first_timestamp = last_timestamp = None
    for entry in log:
        if isinstance(entry, MessageEnvelope):
            traffic_class, cid = entry.traffic_class, entry.target_cid
        else:
            traffic_class, cid = None, entry.cid
        key = (traffic_class, entry.sender, entry.sender_ip)
        counts[key] = counts.get(key, 0) + 1
        day_bit = 1 << int(entry.timestamp // SECONDS_PER_DAY)
        if cid is not None:
            days_by_cid[cid] = days_by_cid.get(cid, 0) | day_bit
        days_by_ip[entry.sender_ip] = days_by_ip.get(entry.sender_ip, 0) | day_bit
        days_by_peer[entry.sender] = days_by_peer.get(entry.sender, 0) | day_bit
        total += 1
        if first_timestamp is None:
            first_timestamp = entry.timestamp
        last_timestamp = entry.timestamp
    return ParentLogSummary(
        counts, days_by_cid, days_by_ip, days_by_peer, total, first_timestamp, last_timestamp
    )


def _profile(seed: int, servers: int) -> WorldProfile:
    return WorldProfile(online_servers=servers, seed=seed)


#: 150-server copies of the campaign benchmark's three workload shapes.
BENCHMARK_SHAPES = {
    "traffic": lambda seed, storage: ScenarioConfig(
        profile=_profile(seed, 150), warmup_days=0, days=1, seed=seed, storage=storage
    ),
    "horizon": lambda seed, storage: replace(
        ScenarioConfig.paper_horizon(150),
        profile=_profile(seed, 150),
        days=7,
        seed=seed,
        storage=storage,
    ),
    "openloop-sqlite": lambda seed, storage: ScenarioConfig(
        profile=_profile(seed, 150),
        warmup_days=0,
        days=1,
        hydra_heads=2,
        seed=seed,
        storage=storage,
        workload_spec="zipf:users=2e3",
    ),
}


@pytest.mark.parametrize("shape", sorted(BENCHMARK_SHAPES))
def test_full_report_equals_the_parent_log_pass(shape, tmp_path):
    storage = f"sqlite:{tmp_path / 'logs'}" if shape.endswith("sqlite") else "memory"
    result = run_campaign(BENCHMARK_SHAPES[shape](2023, storage))
    folded = full_report(result, resilience_reps=1)
    assert result.hydra_summary is result.hydra.summary
    assert result.bitswap_summary is result.bitswap_monitor.summary

    parent = replace(result)  # a fresh result: no cached summaries
    parent.__dict__["hydra_summary"] = parent_summarize(result.hydra.log)
    parent.__dict__["bitswap_summary"] = parent_summarize(result.bitswap_monitor.log)
    assert folded == full_report(parent, resilience_reps=1)
    assert_same_summary(result.hydra_summary, parent.hydra_summary)
    assert_same_summary(result.bitswap_summary, parent.bitswap_summary)


# ---------------------------------------------------------------------------
# work guard: the capture path hashes no identity in Python
# ---------------------------------------------------------------------------


class _FakeNode:
    """What ``BitswapMonitor.observe_broadcast`` reads of a node."""

    def __init__(self, peer: PeerID, ip: str, index: int) -> None:
        self.peer = peer
        self.ips = (ip,)
        self.primary_ip_str = ip
        self.node_class = NodeClass.PLATFORM
        self.spec = type("Spec", (), {"index": index})()


#: Every identity type whose ``__hash__`` runs in Python.
HASHED_TYPES = (PeerID, CID, TrafficClass, MessageType)


@pytest.mark.parametrize("streaming", [False, True])
def test_capture_path_makes_no_python_level_hash(streaming, monkeypatch):
    """``HydraBooster.record`` and ``BitswapMonitor.observe_broadcast``
    build a tuple record, append it, fold it in on keys that hash in C
    and hand it to the observer: not one ``PeerID``, ``CID`` or enum
    ``__hash__`` per entry, with the live stream off or on."""
    rng = random.Random(11)
    peers = [PeerID.generate(rng) for _ in range(4)]
    cids = [CID.generate(rng) for _ in range(4)]
    nodes = [_FakeNode(peer, f"10.0.0.{i}", i) for i, peer in enumerate(peers)]
    hydra = HydraBooster(num_heads=1)
    bitswap = BitswapMonitor(rng=random.Random(3))
    bitswap._connected_specs = {node.spec.index: True for node in nodes}
    calls: Counter = Counter()

    def counting(cls):
        original = cls.__hash__

        def counting_hash(self):
            calls[cls.__name__] += 1
            return original(self)

        return counting_hash

    stream = StreamAnalytics(hydra=hydra.summary, bitswap=bitswap.summary)
    observer = Observer(stream=stream) if streaming else NULL_OBSERVER
    for cls in HASHED_TYPES:
        monkeypatch.setattr(cls, "__hash__", counting(cls))
    steps = 0
    with use_observer(observer):
        for day in range(2):
            for i, message_type in enumerate(MessageType):
                for j in range(len(peers)):
                    timestamp = day * SECONDS_PER_DAY + 10.0 * (i + j)
                    hydra.record(
                        timestamp, peers[j], f"10.0.0.{j}", message_type, target_cid=cids[i]
                    )
                    bitswap.observe_broadcast(timestamp, nodes[j], cids[(i + j) % 4])
                    steps += 1
    assert calls == Counter()
    monkeypatch.undo()
    assert hydra.summary.total == bitswap.summary.total == steps
    assert_same_summary(hydra.summary, parent_summarize(hydra.log))
    assert_same_summary(bitswap.summary, parent_summarize(bitswap.log))
