"""Parallel execution changes wall-clock, never the science.

The contract under test: with a fixed ``ScenarioConfig.seed``, a
campaign run with ``workers=1`` and one run with ``workers=4`` produce
bit-identical crawl datasets, identical A-N / G-IP cloud shares and
identical traffic summaries — because every crawl derives its own seed
(:func:`repro.exec.seeds.derive_seed`) instead of sharing RNG state, and
the crawl itself is a pure function of a frozen, picklable task.
"""

import os
import pickle
import random

import pytest

from repro.core.counting import CountingMethod
from repro.core.crawler import (
    CrawlDataset,
    DHTCrawler,
    execute_crawl_task,
    freeze_crawl_task,
)
from repro.exec.engine import ExecError, ParallelExecutor, run_tasks
from repro.exec.seeds import derive_rng, derive_seed
from repro.scenario.config import ScenarioConfig
from repro.scenario.run import run_campaign
from repro.world.profiles import WorldProfile


def parity_config(workers: int, engine: str = "auto") -> ScenarioConfig:
    return ScenarioConfig(
        profile=WorldProfile(online_servers=150, seed=77),
        days=1,
        warmup_days=0,
        daily_cid_sample=40,
        provider_fetch_days=1,
        gateway_probes_per_endpoint=2,
        seed=77,
        workers=workers,
        engine=engine,
    )


@pytest.fixture(scope="module")
def serial_and_parallel():
    return run_campaign(parity_config(1)), run_campaign(parity_config(4))


@pytest.fixture(scope="module")
def cross_engine_pair():
    """Both axes flipped at once: scalar engine fanned out over 4 workers
    vs the SoA engine run serially.  Parity here implies parity along
    either single axis (workers or engine) as well."""
    pytest.importorskip("numpy")
    return (
        run_campaign(parity_config(4, engine="scalar")),
        run_campaign(parity_config(1, engine="soa")),
    )


def snapshot_fingerprint(snapshot):
    return (
        snapshot.crawl_id,
        snapshot.started_at,
        snapshot.duration,
        snapshot.requests_sent,
        [(obs.peer, obs.ips, obs.crawlable) for obs in snapshot.observations.values()],
        snapshot.edges,
    )


class TestCampaignParity:
    def test_no_exec_errors(self, serial_and_parallel):
        serial, parallel = serial_and_parallel
        assert serial.exec_errors == []
        assert parallel.exec_errors == []

    def test_crawl_datasets_bit_identical(self, serial_and_parallel):
        serial, parallel = serial_and_parallel
        assert len(serial.crawls) == len(parallel.crawls)
        for ours, theirs in zip(serial.crawls.snapshots, parallel.crawls.snapshots):
            assert snapshot_fingerprint(ours) == snapshot_fingerprint(theirs)

    def test_cloud_shares_identical(self, serial_and_parallel):
        from repro.core import cloud as cloud_analysis

        serial, parallel = serial_and_parallel
        for method in (CountingMethod.A_N, CountingMethod.G_IP):
            assert cloud_analysis.cloud_status_shares(
                serial.crawl_rows, serial.world.cloud_db, method
            ) == cloud_analysis.cloud_status_shares(
                parallel.crawl_rows, parallel.world.cloud_db, method
            )

    def test_traffic_summaries_identical(self, serial_and_parallel):
        serial, parallel = serial_and_parallel
        assert len(serial.hydra.log) == len(parallel.hydra.log)
        assert serial.hydra_summary.class_shares == parallel.hydra_summary.class_shares
        assert [e.sender for e in serial.hydra.log[:200]] == [
            e.sender for e in parallel.hydra.log[:200]
        ]

    def test_campaign_summaries_identical(self, serial_and_parallel):
        from repro.exec.sweep import summarize_campaign

        serial, parallel = serial_and_parallel
        ours = summarize_campaign(serial)
        theirs = summarize_campaign(parallel)
        del ours["crawl_stats"]["num_crawls"], theirs["crawl_stats"]["num_crawls"]
        assert {k: v for k, v in ours.items()} == {k: v for k, v in theirs.items()}


class TestEngineWorkersDiagonal:
    """Neither the worker count nor the tick engine may leave a trace in
    the science: ``(engine=scalar, workers=4)`` and ``(engine=soa,
    workers=1)`` must produce the same campaign bit for bit.  Requires
    numpy; on the numpy-less CI lane the fixtures skip and the workers
    axis is still covered by :class:`TestCampaignParity`."""

    def test_engines_recorded(self, cross_engine_pair):
        scalar_parallel, soa_serial = cross_engine_pair
        assert scalar_parallel.config.engine == "scalar"
        assert scalar_parallel.config.workers == 4
        assert soa_serial.config.engine == "soa"
        assert soa_serial.config.workers == 1

    def test_no_exec_errors(self, cross_engine_pair):
        scalar_parallel, soa_serial = cross_engine_pair
        assert scalar_parallel.exec_errors == []
        assert soa_serial.exec_errors == []

    def test_crawl_datasets_bit_identical(self, cross_engine_pair):
        scalar_parallel, soa_serial = cross_engine_pair
        assert len(scalar_parallel.crawls) == len(soa_serial.crawls)
        for ours, theirs in zip(
            scalar_parallel.crawls.snapshots, soa_serial.crawls.snapshots
        ):
            assert snapshot_fingerprint(ours) == snapshot_fingerprint(theirs)

    def test_monitor_logs_bit_identical(self, cross_engine_pair):
        scalar_parallel, soa_serial = cross_engine_pair
        assert list(scalar_parallel.hydra.log) == list(soa_serial.hydra.log)
        assert list(scalar_parallel.bitswap_monitor.log) == list(
            soa_serial.bitswap_monitor.log
        )

    def test_campaign_summaries_identical(self, cross_engine_pair):
        from repro.exec.sweep import summarize_campaign

        scalar_parallel, soa_serial = cross_engine_pair
        ours = summarize_campaign(scalar_parallel)
        theirs = summarize_campaign(soa_serial)
        del ours["crawl_stats"]["num_crawls"], theirs["crawl_stats"]["num_crawls"]
        assert ours == theirs


class TestCrawlTaskPurity:
    """The crawl is a pure function of its frozen task."""

    def test_execute_twice_identical(self, small_overlay):
        task = freeze_crawl_task(small_overlay, 0, seed=derive_seed(7, "crawl", 0))
        assert snapshot_fingerprint(execute_crawl_task(task)) == snapshot_fingerprint(
            execute_crawl_task(task)
        )

    def test_pickle_roundtrip_preserves_result(self, small_overlay):
        task = freeze_crawl_task(small_overlay, 3, seed=derive_seed(7, "crawl", 3))
        clone = pickle.loads(pickle.dumps(task))
        assert snapshot_fingerprint(execute_crawl_task(task)) == snapshot_fingerprint(
            execute_crawl_task(clone)
        )

    def test_freeze_does_not_mutate_overlay(self, small_overlay):
        before = dict(small_overlay.online_by_peer)
        tables_before = {
            peer: tuple(node.routing_table.keys())
            for peer, node in small_overlay.online_by_peer.items()
            if node.routing_table is not None
        }
        freeze_crawl_task(small_overlay, 0, seed=1)
        assert dict(small_overlay.online_by_peer) == before
        for peer, peers in tables_before.items():
            assert tuple(small_overlay.online_by_peer[peer].routing_table.keys()) == peers

    def test_crawl_independent_of_history(self, small_overlay):
        """Re-pin of the determinism contract on the seed-derivation
        helper: crawl ``i`` no longer depends on crawls ``0..i-1`` having
        drawn from a shared RNG — the property parallel fan-out needs."""
        warmed = DHTCrawler(small_overlay, seed=42)
        for crawl_id in range(3):
            warmed.crawl(crawl_id)
        fresh = DHTCrawler(small_overlay, seed=42)
        assert snapshot_fingerprint(warmed.crawl(3)) == snapshot_fingerprint(
            fresh.crawl(3)
        )

    def test_crawler_matches_freeze_execute(self, small_overlay):
        crawler = DHTCrawler(small_overlay, seed=42)
        direct = crawler.crawl(1)
        via_task = execute_crawl_task(crawler.task(1))
        assert snapshot_fingerprint(direct) == snapshot_fingerprint(via_task)


class TestSeedDerivation:
    def test_stable_and_distinct(self):
        assert derive_seed(77, "crawl", 3) == derive_seed(77, "crawl", 3)
        assert derive_seed(77, "crawl", 3) != derive_seed(77, "crawl", 4)
        assert derive_seed(77, "crawl", 3) != derive_seed(78, "crawl", 3)
        assert derive_seed(77, "crawl", 3) != derive_seed(77, "monitor", 3)

    def test_no_concatenation_collisions(self):
        assert derive_seed(1, "ab", "c") != derive_seed(1, "a", "bc")
        assert derive_seed(1, 12, 3) != derive_seed(1, 1, 23)

    def test_rng_streams_independent(self):
        first = derive_rng(9, 0).random()
        assert derive_rng(9, 0).random() == first
        assert derive_rng(9, 1).random() != first

    def test_rejects_unstable_components(self):
        with pytest.raises(TypeError):
            derive_seed(1, 3.14)


# --- engine failure handling -------------------------------------------------
# Worker functions must be module-level so the pool can pickle them.


def _square(value):
    return value * value


def _fail_always(value):
    raise RuntimeError(f"task {value} exploded")


def _fail_until_marker(marker_path):
    """Fails on the first attempt, succeeds on the retry."""
    if not os.path.exists(marker_path):
        with open(marker_path, "w") as handle:
            handle.write("attempted")
        raise RuntimeError("transient failure")
    return "recovered"


def _die(value):
    os._exit(13)  # hard worker death: no exception, no cleanup


class TestEngine:
    def test_inline_and_pool_agree(self):
        inline, inline_errors = run_tasks(_square, list(range(12)), workers=1)
        pooled, pooled_errors = run_tasks(_square, list(range(12)), workers=3)
        assert inline == pooled == [value * value for value in range(12)]
        assert inline_errors == [] and pooled_errors == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_task_surfaces_exec_error(self, workers):
        results, errors = run_tasks(
            _fail_always, ["boom"], workers=workers, retries=1
        )
        assert results == [None]
        (error,) = errors
        assert isinstance(error, ExecError)
        assert error.attempts == 2
        assert "exploded" in error.error

    @pytest.mark.parametrize("workers", [1, 2])
    def test_transient_failure_recovers_on_retry(self, workers, tmp_path):
        marker = str(tmp_path / f"marker-{workers}")
        results, errors = run_tasks(
            _fail_until_marker, [marker], workers=workers, retries=1
        )
        assert results == ["recovered"]
        assert errors == []

    def test_failure_does_not_poison_other_tasks(self):
        with ParallelExecutor(workers=2, retries=0) as engine:
            for index in range(6):
                engine.submit(index, _square, index)
            engine.submit("bad", _fail_always, "x")
            results, errors = engine.drain()
        assert [results[index] for index in range(6)] == [i * i for i in range(6)]
        assert [error.task_id for error in errors] == ["bad"]

    def test_worker_death_rebuilds_pool(self):
        """A hard-crashed worker surfaces as a structured error, not a
        hung pool, and the rebuilt pool finishes the remaining tasks."""
        with ParallelExecutor(workers=2, retries=1) as engine:
            engine.submit("fatal", _die, 0)
            for index in range(8):
                engine.submit(index, _square, index)
            results, errors = engine.drain()
            # The pool is functional again after the rebuild.
            engine.submit("after", _square, 9)
            results, errors = engine.drain()
        assert results["after"] == 81
        assert [results[index] for index in range(8)] == [i * i for i in range(8)]
        assert any(
            error.task_id == "fatal" and error.stage == "worker" for error in errors
        )

    def test_duplicate_task_id_rejected(self):
        with ParallelExecutor(workers=1) as engine:
            engine.submit("a", _square, 2)
            with pytest.raises(ValueError):
                engine.submit("a", _square, 3)


class TestDatasetMerge:
    def test_merge_restores_crawl_order(self, small_overlay):
        crawler = DHTCrawler(small_overlay, seed=5)
        snapshots = [crawler.crawl(crawl_id) for crawl_id in range(6)]
        # Round-robin across three "workers", like the sharded store.
        shards = [snapshots[0::3], snapshots[1::3], snapshots[2::3]]
        merged = CrawlDataset.merge(shards)
        assert [snapshot.crawl_id for snapshot in merged.snapshots] == list(range(6))
        serial = CrawlDataset(snapshots=snapshots)
        assert merged.unique_peer_ids() == serial.unique_peer_ids()
        assert merged.avg_discovered() == serial.avg_discovered()
