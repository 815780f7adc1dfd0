"""Streaming analytics read what the batch pipeline computes.

Three contracts, mirroring the repo's observability pattern (PR 4/5):

1. **Accuracy** — the live headline shares (cloud share, provider
   split, gateway share, class shares), top-1% concentration, the top
   peers / IPs / CIDs and the distinct counts are exact: they are read
   from the monitors' folds (and the stream's per-CID count) at any
   point of the run and equal the batch analyses over the full logs.
2. **Null path** — streaming off is the default no-op null stream and
   campaigns are bit-identical with streaming on or off.
3. **Parallel parity** — crawl workers return plain sketch state merged
   in crawl order, so ``workers=1`` and ``workers=4`` produce an
   identical deterministic sketch view.
"""

import random
from collections import Counter
from dataclasses import replace
from itertools import groupby

import pytest

from repro.core.pareto import top_share
from repro.core.traffic import peerid_pareto
from repro.ids.cid import CID
from repro.ids.peerid import PeerID
from repro.kademlia.messages import MessageType
from repro.monitors.bitswap_monitor import BitswapMonitor
from repro.monitors.hydra import HydraBooster
from repro.obs import deterministic_trace_view, deterministic_view
from repro.obs.observer import Observer, get_observer, use_observer
from repro.obs.progress import Heartbeat, ProgressReporter
from repro.obs.sketch import QuantileSketch
from repro.obs.stream import (
    NULL_STREAM,
    SKETCHES_SCHEMA,
    NullStream,
    StreamAnalytics,
    deterministic_sketches_view,
    render_stream_report,
)
from repro.scenario.config import ScenarioConfig
from repro.scenario.run import run_campaign

from test_parallel_determinism import parity_config, snapshot_fingerprint


def stream_config(workers: int, **overrides) -> ScenarioConfig:
    return replace(parity_config(workers), stream=True, **overrides)


@pytest.fixture(scope="module")
def plain_result():
    return run_campaign(parity_config(1))


@pytest.fixture(scope="module")
def streamed_result():
    return run_campaign(stream_config(1))


@pytest.fixture(scope="module")
def streamed_parallel():
    return run_campaign(stream_config(4))


@pytest.fixture(scope="module")
def all_sinks_campaigns():
    """Metrics, trace and stream on together, serial and parallel.  The
    trace buffer is large enough that nothing is evicted (the trace view
    is only defined for whole streams)."""

    def config(workers):
        return stream_config(workers, metrics=True, trace=True, trace_buffer=1 << 20)

    return run_campaign(config(1)), run_campaign(config(4))


class TestConfig:
    def test_stream_enabled_property(self):
        assert not ScenarioConfig().stream_enabled
        assert ScenarioConfig(stream=True).stream_enabled
        assert ScenarioConfig(live="127.0.0.1:0").stream_enabled

    def test_sketches_out_alone_streams(self, tmp_path, capsys):
        """``--sketches-out`` turns streaming on, and the file holds the
        snapshot a library run of the same seed and config collects,
        byte for byte."""
        import json

        from repro.cli import main

        path = tmp_path / "sketches.json"
        argv = ["campaign", "--servers", "120", "--days", "1", "--figures"]
        assert main(argv + ["--sketches-out", str(path)]) == 0
        assert f"sketches -> {path}" in capsys.readouterr().out
        config = replace(ScenarioConfig.smoke().scaled(120), days=1, stream=True)
        sketches = run_campaign(config).sketches
        assert sketches["schema"] == SKETCHES_SCHEMA and sketches["events"] > 0
        assert path.read_text() == json.dumps(sketches, indent=2, sort_keys=True) + "\n"


class TestNullDispatch:
    def test_default_stream_is_null(self):
        stream = get_observer().stream
        assert stream is NULL_STREAM
        assert not stream.enabled
        # Hooks are safe no-ops on the null object.
        stream.observe_bitswap(None)
        stream.note("exec.submitted")
        stream.finalize()
        stream.merge_crawl_state({})
        assert stream.snapshot() == {"schema": SKETCHES_SCHEMA, "events": 0}
        assert stream.headline() == {}

    def test_use_stream_restores_on_exit(self):
        analytics = StreamAnalytics(3600.0)
        with use_observer(Observer(stream=analytics)):
            assert get_observer().stream is analytics
        assert get_observer().stream is NULL_STREAM

    def test_null_result_has_no_sketches(self, plain_result):
        assert plain_result.sketches is None
        assert plain_result.live_url is None
        assert plain_result.stopped_early is False


def ranked(volumes):
    """The 10 largest volumes as ``[str(key), count]``, by descending
    count (ties by the key's string): the snapshot's ``top`` lists."""
    order = sorted(volumes.items(), key=lambda item: (-item[1], str(item[0])))
    return [[str(key), count] for key, count in order[:10]]


class TestStreamingAccuracy:
    """Live estimates vs the batch pipeline over the same hydra log."""

    @pytest.fixture(scope="class")
    def headline(self, streamed_result):
        return streamed_result.sketches["headline"]

    @pytest.fixture(scope="class")
    def log(self, streamed_result):
        return list(streamed_result.hydra.log)

    def test_campaign_ran_clean(self, streamed_result):
        assert not streamed_result.exec_errors

    def test_event_count_is_exact(self, streamed_result, log):
        sketches = streamed_result.sketches
        bitswap = len(streamed_result.bitswap_monitor.log)
        assert sketches["events"] == len(log) + bitswap
        assert sketches["headline"]["events"] == sketches["events"]

    def test_cloud_share_matches_batch(self, streamed_result, headline):
        report = streamed_result.hydra_summary.cloud_report(streamed_result.world.cloud_db)
        assert headline["cloud_share_by_volume"] == pytest.approx(
            report.cloud_share_by_volume, abs=1e-9
        )

    def test_provider_shares_match_batch(self, streamed_result, headline):
        report = streamed_result.hydra_summary.cloud_report(streamed_result.world.cloud_db)
        batch = {
            provider: share
            for provider, share in report.provider_shares_by_volume.items()
            if provider != "non-cloud"
        }
        live = headline["provider_shares_by_volume"]
        assert set(live) == set(batch)
        for provider, share in batch.items():
            assert live[provider] == pytest.approx(share, abs=1e-9)
        # top_provider is the largest cloud share (ties by name).
        expected_top = min(batch, key=lambda p: (-batch[p], p)) if batch else None
        assert headline["top_provider"] == expected_top

    def test_class_shares_match_batch(self, streamed_result, headline):
        batch = streamed_result.hydra_summary.class_shares
        live = headline["class_shares"]
        assert set(live) == set(batch)
        for label, share in batch.items():
            assert live[label] == pytest.approx(share, abs=1e-9)

    def test_gateway_share_matches_batch(self, streamed_result, headline, log):
        gateways = streamed_result.gateway_peers
        expected = sum(1 for entry in log if entry.sender in gateways) / len(log)
        assert headline["gateway_share_by_volume"] == pytest.approx(expected, abs=1e-9)

    def test_top1pct_concentration_matches_batch(self, streamed_result, headline):
        summary = streamed_result.hydra_summary
        assert headline["top1pct_peer_share"] == top_share(summary.peer_volumes(), 0.01)
        assert headline["top1pct_ip_share"] == top_share(summary.ip_volumes(), 0.01)

    def test_top_peers_and_ips_equal_fold_volumes(self, streamed_result):
        summary = streamed_result.hydra_summary
        top = streamed_result.sketches["top"]
        assert top["peers"] == ranked(summary.peer_volumes())
        assert top["ips"] == ranked(summary.ip_volumes())

    def test_top_cids_equal_bitswap_log_counts(self, streamed_result):
        counts = Counter(entry.cid for entry in streamed_result.bitswap_monitor.log)
        assert streamed_result.sketches["top"]["cids"] == ranked(counts)

    def test_distinct_counts_are_fold_lengths(self, streamed_result, headline):
        hydra = streamed_result.hydra_summary
        assert headline["distinct_peers_est"] == len(hydra.days_by_peer)
        assert headline["distinct_ips_est"] == len(hydra.days_by_ip)
        bitswap = streamed_result.bitswap_summary
        assert headline["distinct_cids_est"] == len(bitswap.days_by_cid)

    def test_peer_rates_are_window_counts_in_peer_order(self, streamed_result, log):
        """The rate sketch sees, window after window, each sender's
        request count ordered by ``str(peer)``.  The last window is still
        open: the closing re-provide passes log after ``finalize``."""
        width = streamed_result.sketches["window_seconds"]
        windows = [
            list(entries)
            for _, entries in groupby(log, key=lambda entry: entry.timestamp // width)
        ]
        reference = QuantileSketch()
        for entries in windows[:-1]:
            counts = Counter(str(entry.sender) for entry in entries)
            for peer in sorted(counts):
                reference.update(float(counts[peer]))
        sketches = streamed_result.sketches["sketches"]
        assert sketches["peer_rates"] == reference.to_state()

    def test_crawl_rollup_matches_dataset(self, streamed_result):
        crawl = streamed_result.sketches["crawl"]
        snapshots = streamed_result.crawls.snapshots
        assert crawl["crawls"] == len(snapshots)
        assert crawl["discovered"] == sum(len(s.observations) for s in snapshots)
        assert crawl["crawlable"] == sum(
            1
            for s in snapshots
            for obs in s.observations.values()
            if obs.crawlable
        )

    def test_snapshot_shape(self, streamed_result):
        sketches = streamed_result.sketches
        assert sketches["schema"] == SKETCHES_SCHEMA
        assert set(sketches["quantiles"]) == {
            "peer_requests_per_window",
            "crawl_out_degree",
        }
        for kind in ("peers", "ips", "cids"):
            assert sketches["top"][kind]
        assert "runtime" in sketches
        assert "runtime" not in deterministic_sketches_view(sketches)


class TestStreamingOffIsBitIdentical:
    """The PR-4 contract: the flag changes observability, never science."""

    def test_crawl_datasets_identical(self, plain_result, streamed_result):
        plain = [snapshot_fingerprint(s) for s in plain_result.crawls.snapshots]
        streamed = [snapshot_fingerprint(s) for s in streamed_result.crawls.snapshots]
        assert plain == streamed

    def test_hydra_log_identical(self, plain_result, streamed_result):
        assert len(plain_result.hydra.log) == len(streamed_result.hydra.log)
        assert plain_result.hydra.log[:200] == streamed_result.hydra.log[:200]
        assert plain_result.hydra_summary.counts == streamed_result.hydra_summary.counts

    def test_gateway_probes_identical(self, plain_result, streamed_result):
        assert (
            plain_result.gateway_probe_reports.keys()
            == streamed_result.gateway_probe_reports.keys()
        )


class TestParallelParity:
    def test_sketch_views_bit_identical_across_workers(
        self, streamed_result, streamed_parallel
    ):
        serial = deterministic_sketches_view(streamed_result.sketches)
        parallel = deterministic_sketches_view(streamed_parallel.sketches)
        assert serial == parallel

    def test_campaigns_identical_across_workers(
        self, streamed_result, streamed_parallel
    ):
        serial = [snapshot_fingerprint(s) for s in streamed_result.crawls.snapshots]
        parallel = [
            snapshot_fingerprint(s) for s in streamed_parallel.crawls.snapshots
        ]
        assert serial == parallel

    def test_all_sinks_on_identical_across_workers(self, all_sinks_campaigns):
        serial, parallel = all_sinks_campaigns
        assert not serial.exec_errors and not parallel.exec_errors
        assert [snapshot_fingerprint(s) for s in serial.crawls.snapshots] == [
            snapshot_fingerprint(s) for s in parallel.crawls.snapshots
        ]
        assert deterministic_view(serial.metrics) == deterministic_view(parallel.metrics)
        for result in (serial, parallel):
            metas = [r for r in result.trace if r.get("type") == "meta"]
            assert all(meta["dropped"] == 0 for meta in metas)
        assert deterministic_trace_view(serial.trace) == deterministic_trace_view(
            parallel.trace
        )
        assert deterministic_sketches_view(serial.sketches) == deterministic_sketches_view(
            parallel.sketches
        )


class TestRendering:
    def test_render_stream_report(self, streamed_result):
        report = render_stream_report(streamed_result.sketches)
        assert "cloud_share_by_volume" in report
        assert "quantiles" in report
        assert "top peers" in report

    def test_render_handles_empty_snapshot(self):
        report = render_stream_report({"schema": SKETCHES_SCHEMA, "events": 0})
        assert "0" in report


def replayed_stream(entries, **kwargs) -> StreamAnalytics:
    """A standalone stream over a fresh Hydra that re-records ``entries``."""
    hydra = HydraBooster()
    analytics = StreamAnalytics(3600.0, hydra=hydra.summary, **kwargs)
    with use_observer(Observer(stream=analytics)):
        for e in entries:
            hydra.record(
                e.timestamp, e.sender, e.sender_ip, e.message_type,
                e.target_cid, e.target_key, e.via_relay,
            )
    return analytics


class TestFoldRead:
    """The headline reads the monitors' folds whenever it is read."""

    def expected(self, hydra, monitor, cloud_db, gateways):
        summary = hydra.summary
        report = summary.cloud_report(cloud_db)
        return {
            "events": summary.total + monitor.summary.total,
            "hydra_requests": summary.total,
            "bitswap_broadcasts": monitor.summary.total,
            "cloud_share_by_volume": report.cloud_share_by_volume,
            "provider_shares_by_volume": {
                provider: share
                for provider, share in report.provider_shares_by_volume.items()
                if provider != "non-cloud"
            },
            "class_shares": summary.class_shares,
            "gateway_share_by_volume": peerid_pareto(
                summary.peer_volumes(), gateways
            ).subgroup_share,
            "top1pct_peer_share": top_share(summary.peer_volumes(), 0.01),
            "top1pct_ip_share": top_share(summary.ip_volumes(), 0.01),
            "distinct_peers_est": len(summary.days_by_peer),
            "distinct_ips_est": len(summary.days_by_ip),
            "distinct_cids_est": len(monitor.summary.days_by_cid),
        }

    def test_headline_equals_the_fold_after_every_batch(self, small_overlay):
        rng = random.Random(31)
        cloud_db = small_overlay.world.cloud_db
        nodes = small_overlay.online_servers()[:40]
        gateway_node = nodes[0]
        old_id, new_id = gateway_node.peer, PeerID.generate(rng)
        gateways = {old_id}
        hydra = HydraBooster(num_heads=2)
        monitor = BitswapMonitor(random.Random(32))
        analytics = StreamAnalytics(
            3600.0,
            hydra=hydra.summary,
            bitswap=monitor.summary,
            provider_of=cloud_db.lookup,
            gateway_peers=lambda: gateways,
        )
        kinds = (MessageType.GET_PROVIDERS, MessageType.ADD_PROVIDER, MessageType.FIND_NODE)
        sender_of = {node.spec.index: node.peer for node in nodes}
        timestamp = 0.0
        with use_observer(Observer(stream=analytics)):
            for batch in range(4):
                if batch == 2:
                    # The gateway node takes a new peer ID: Fig. 10's set
                    # (current IDs of gateway-class nodes) drops the old one.
                    sender_of[gateway_node.spec.index] = new_id
                    gateways = {new_id}
                for _ in range(60):
                    timestamp += 97.0
                    node = rng.choice(nodes)
                    kind = rng.choice(kinds)
                    cid = CID.generate(rng)
                    hydra.record(
                        timestamp, sender_of[node.spec.index], node.primary_ip_str,
                        kind, None if kind is MessageType.FIND_NODE else cid,
                        target_key=7 if kind is MessageType.FIND_NODE else None,
                    )
                    monitor.observe_broadcast(timestamp, node, cid)
                headline = analytics.headline()
                for key, want in self.expected(hydra, monitor, cloud_db, gateways).items():
                    assert headline[key] == pytest.approx(want, abs=1e-12), (batch, key)
                top = analytics.snapshot()["top"]
                assert top["peers"] == ranked(hydra.summary.peer_volumes()), batch
                assert top["ips"] == ranked(hydra.summary.ip_volumes()), batch
                assert top["cids"] == ranked(
                    Counter(entry.cid for entry in monitor.log)
                ), batch
        volumes = hydra.summary.peer_volumes()
        assert volumes[old_id] and volumes[new_id]
        assert headline["gateway_share_by_volume"] == pytest.approx(
            volumes[new_id] / hydra.summary.total, abs=1e-12
        )
        assert monitor.summary.total > 0


class TestHeartbeat:
    def test_stream_extras_absent_without_analytics(self):
        assert ProgressReporter._stream_extras(None) == []
        assert ProgressReporter._stream_extras(NullStream()) == []

    def test_stream_extras_from_live_analytics(self, streamed_result):
        analytics = replayed_stream(
            streamed_result.hydra.log[:500],
            provider_of=streamed_result.world.cloud_db.lookup,
        )
        extras = ProgressReporter._stream_extras(analytics)
        assert extras[0] == "500 ev"
        assert any(extra.startswith("cloud ") for extra in extras)

    def test_headline_is_read_only(self, streamed_result):
        analytics = replayed_stream(streamed_result.hydra.log[:200])
        before = analytics.snapshot()
        analytics.headline()
        assert analytics.snapshot() == before

    def test_heartbeat_line_includes_stream_fields(self, streamed_result):
        class FakeStream:
            def __init__(self):
                self.lines = []

            def write(self, text):
                self.lines.append(text)

            def flush(self):
                pass

        analytics = replayed_stream(
            streamed_result.hydra.log[:300],
            provider_of=streamed_result.world.cloud_db.lookup,
        )
        out = FakeStream()
        reporter = ProgressReporter(stream=out, observer=Observer(stream=analytics))
        reporter(dict(Heartbeat().status, phase="simulate", tick=(1, 10)), 0.0)
        line = out.lines[-1]
        assert "300 ev" in line
        assert "cloud" in line
