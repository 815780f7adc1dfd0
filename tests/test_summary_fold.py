"""The §5 summaries the monitors fold as they log.

``HydraBooster.record`` and ``BitswapMonitor.observe_broadcast`` fold
every entry they append into the monitor's ``summary``, and
``CampaignResult.hydra_summary`` / ``bitswap_summary`` hand that fold to
the reports.  These tests pin the fold to one pass over the stored log
(``traffic.summarize``), field by field and in dict order, on every
storage backend at one and two workers; check that a monitor opened over
a store that already holds records falls back to that pass; and compare
``full_report`` with the output of the parent's log pass, vendored below,
on small copies of the three campaign-benchmark shapes.  The work guard
(``full_report`` reads no monitor record) is in test_store_campaign.py.
"""

from __future__ import annotations

from dataclasses import fields, replace

import pytest

from repro.core.traffic import LogSummary, summarize
from repro.kademlia.messages import MessageEnvelope, MessageType
from repro.monitors.bitswap_monitor import BitswapMonitor
from repro.monitors.hydra import HydraBooster
from repro.netsim.clock import SECONDS_PER_DAY
from repro.scenario.config import ScenarioConfig
from repro.scenario.report import full_report
from repro.scenario.run import run_campaign
from repro.store import SqliteBackend
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


def assert_same_summary(folded: LogSummary, oracle: LogSummary) -> None:
    for field in fields(LogSummary):
        got, want = getattr(folded, field.name), getattr(oracle, field.name)
        if isinstance(want, dict):
            assert list(got.items()) == list(want.items()), field.name
        else:
            assert got == want, field.name


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


def parent_summarize(log) -> LogSummary:
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
    return LogSummary(
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
