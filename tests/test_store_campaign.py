"""End-to-end: a campaign with disk-backed monitor logs is equivalent
to the in-memory default."""

import dataclasses
import json
from collections import Counter
from pathlib import Path

import pytest

from repro.core import datasets
from repro.core import traffic
from repro.kademlia.messages import TrafficClass
from repro.scenario.config import ScenarioConfig
from repro.scenario.report import full_report
from repro.scenario.run import run_campaign
from repro.store import EventLog, open_file_backend, write_records
from repro.world.profiles import WorldProfile


def tiny_config(storage: str) -> ScenarioConfig:
    return ScenarioConfig(
        profile=WorldProfile(online_servers=150),
        days=2,
        daily_cid_sample=60,
        provider_fetch_days=1,
        gateway_probes_per_endpoint=4,
        storage=storage,
    )


@pytest.fixture(scope="module")
def memory_result():
    return run_campaign(tiny_config("memory"))


@pytest.fixture(scope="module")
def sqlite_result(tmp_path_factory):
    directory = tmp_path_factory.mktemp("campaign-store")
    return run_campaign(tiny_config(f"sqlite:{directory}"))


@pytest.fixture(scope="module")
def jsonl_result(tmp_path_factory):
    directory = tmp_path_factory.mktemp("campaign-jsonl")
    return run_campaign(tiny_config(f"jsonl:{directory}"))


@pytest.fixture(scope="module")
def disk_results(sqlite_result, jsonl_result):
    return sqlite_result, jsonl_result


def report_json(result) -> str:
    return json.dumps(full_report(result, resilience_reps=1), sort_keys=True, default=str)


class TestStorageParity:
    def test_same_log_sizes(self, memory_result, disk_results):
        for disk_result in disk_results:
            assert len(memory_result.hydra.log) == len(disk_result.hydra.log) > 0
            assert (
                len(memory_result.bitswap_monitor.log)
                == len(disk_result.bitswap_monitor.log)
                > 0
            )

    def test_same_log_contents(self, memory_result, disk_results):
        for disk_result in disk_results:
            assert list(memory_result.hydra.log) == list(disk_result.hydra.log)
            assert list(memory_result.bitswap_monitor.log) == list(
                disk_result.bitswap_monitor.log
            )

    def test_same_traffic_analysis(self, memory_result, disk_results):
        for disk_result in disk_results:
            memory, disk = memory_result.hydra_summary, disk_result.hydra_summary
            assert memory.class_shares == disk.class_shares
            assert memory.counts == disk.counts
            assert memory_result.bitswap_summary.counts == disk_result.bitswap_summary.counts

    def test_full_report_is_byte_identical(self, memory_result, sqlite_result, jsonl_result):
        expected = report_json(memory_result)
        assert report_json(sqlite_result) == expected
        assert report_json(jsonl_result) == expected

    def test_summary_matches_multi_pass_analysis(self, memory_result):
        """Each aggregate equals a direct count over the log, in the
        log's first-seen order."""
        log = memory_result.hydra.log
        summary = memory_result.hydra_summary
        assert summary.total == len(log)
        classes = Counter(entry.traffic_class.value for entry in log)
        assert summary.class_shares == {
            label: count / len(log) for label, count in classes.items()
        }
        peers = Counter(entry.sender for entry in log)
        ips = Counter(entry.sender_ip for entry in log)
        assert list(summary.peer_volumes().items()) == list(peers.items())
        assert list(summary.ip_volumes().items()) == list(ips.items())
        assert summary.unique_cids == len(
            {entry.target_cid for entry in log if entry.target_cid is not None}
        )

    def test_single_pass_cloud_reports_match(self, memory_result):
        """The summary's per-class cloud reports equal reports built
        from a direct scan of the class-filtered log."""
        log = memory_result.hydra.log
        cloud_db = memory_result.world.cloud_db
        for traffic_class in (None, TrafficClass.DOWNLOAD, TrafficClass.ADVERTISEMENT):
            volume_by_ip = Counter(
                entry.sender_ip
                for entry in log
                if traffic_class is None or entry.traffic_class is traffic_class
            )
            provider_by_ip = {ip: cloud_db.lookup(ip) or "non-cloud" for ip in volume_by_ip}
            expected = traffic._report_from_ip_volumes(volume_by_ip, provider_by_ip)
            assert memory_result.hydra_summary.cloud_report(cloud_db, traffic_class) == (
                expected
            )

    def test_export_works_from_disk_backed_logs(self, sqlite_result, tmp_path):
        counts = datasets.export_campaign(sqlite_result, tmp_path / "out")
        assert counts["hydra_messages"] == len(sqlite_result.hydra.log)
        assert counts["bitswap_messages"] == len(sqlite_result.bitswap_monitor.log)


class TestOnePassPerLog:
    def test_full_report_reads_neither_log(self, sqlite_result, monkeypatch):
        # A fresh result object: nothing derived from the logs is cached
        # yet.  The §5 reports read the summaries the monitors folded as
        # they logged, so no monitor record is read back from storage.
        result = dataclasses.replace(sqlite_result)
        reads = Counter()
        for name, log in (("hydra", result.hydra.log), ("bitswap", result.bitswap_monitor.log)):
            for method in ("scan", "scan_reversed", "scan_range", "slice"):
                original = getattr(log.backend, method)

                def counting(*args, _original=original, _key=f"{name}.{method}"):
                    reads[_key] += 1
                    return _original(*args)

                monkeypatch.setattr(log.backend, method, counting)
        full_report(result, resilience_reps=1)
        assert reads == Counter()
        # The wrappers do count a pass over a log.
        traffic.summarize(result.hydra.log)
        assert reads == Counter({"hydra.scan": 1})

    def test_store_stats_prints_both_log_kinds(self, sqlite_result, capsys):
        from repro.cli import main

        directory = Path(sqlite_result.config.storage.split(":", 1)[1])
        for kind, summary in (
            ("hydra", sqlite_result.hydra_summary),
            ("bitswap", sqlite_result.bitswap_summary),
        ):
            assert main(["store", "stats", str(directory / f"{kind}.sqlite"), "--kind", kind]) == 0
            out = capsys.readouterr().out
            assert f"unique peer IDs: {len(summary.peer_volumes())}" in out
            assert f"unique IPs: {len(summary.ip_volumes())}" in out
            assert f"unique CIDs: {summary.unique_cids}" in out
            assert ("download: " in out) == (kind == "hydra")

    def test_summaries_are_cached(self, sqlite_result):
        assert sqlite_result.hydra_summary is sqlite_result.hydra_summary
        assert sqlite_result.bitswap_summary is sqlite_result.bitswap_summary
        assert sqlite_result.crawl_rows is sqlite_result.crawl_rows


class TestStoreConvertCli:
    def test_convert_twice_replaces_destination(self, sqlite_result, tmp_path, capsys):
        from repro.cli import main

        source = Path(sqlite_result.config.storage.split(":", 1)[1]) / "hydra.sqlite"
        destination = tmp_path / "hydra.jsonl"
        for _ in range(2):
            assert main(["store", "convert", str(source), str(destination)]) == 0
        expected = len(sqlite_result.hydra.log)
        assert f"converted {expected} records" in capsys.readouterr().out
        converted = EventLog(sqlite_result.hydra.log.codec, open_file_backend(destination))
        assert len(converted) == expected
        assert converted[:50] == sqlite_result.hydra.log[:50]

    def test_convert_refuses_same_file(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "trace.jsonl"
        write_records([{"ts": 1.0, "v": 1}, {"ts": 2.0, "v": 2}], path)
        before = path.read_bytes()
        alias = tmp_path / "sub" / ".." / "trace.jsonl"
        (tmp_path / "sub").mkdir()
        assert main(["store", "convert", str(path), str(alias)]) == 2
        assert "same file" in capsys.readouterr().err
        assert path.read_bytes() == before

    def test_convert_handles_trace_files(self, tmp_path):
        from repro.cli import main
        from repro.obs import Tracer, read_trace, write_trace

        tracer = Tracer(origin="convert")
        with tracer.span("s"):
            tracer.event("e")
        write_trace(tracer.records(), tmp_path / "run.trace")
        assert main(["store", "convert", str(tmp_path / "run.trace"), str(tmp_path / "run.sqlite")]) == 0
        assert read_trace(tmp_path / "run.sqlite") == tracer.records()
