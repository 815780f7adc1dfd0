"""The observability layer: registry, spans, exporters, campaign wiring."""

import json
import time

import pytest

import repro
from repro.obs import (
    NULL_OBSERVER,
    NULL_REGISTRY,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    Observer,
    deterministic_view,
    get_observer,
    metrics_to_records,
    read_metrics,
    records_to_snapshot,
    render_report,
    use_observer,
    write_metrics,
)
from repro.obs import observer as obs_hooks
from repro.scenario.config import ScenarioConfig
from repro.scenario.run import run_campaign
from repro.world.profiles import WorldProfile


class TestRegistry:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.inc("a", 4)
        registry.set_gauge("g", 7)
        registry.set_gauge("g", 3)
        registry.observe("h", 12)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"a": 5}
        assert snapshot["gauges"] == {"g": 3}
        assert snapshot["histograms"]["h"]["count"] == 1
        assert snapshot["histograms"]["h"]["sum"] == 12

    def test_histogram_bucket_placement(self):
        histogram = Histogram(buckets=(1, 10, 100))
        for value in (0.5, 1, 5, 10, 1000):
            histogram.observe(value)
        # counts: <=1, <=10, <=100, overflow
        assert histogram.counts == [2, 2, 0, 1]
        assert histogram.min == 0.5 and histogram.max == 1000
        assert histogram.mean == pytest.approx(1016.5 / 5)

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram(buckets=(10, 1))
        with pytest.raises(ValueError):
            Histogram(buckets=())

    def test_span_nesting_builds_phase_paths(self):
        registry = MetricsRegistry()
        with registry.span("campaign"):
            with registry.span("build"):
                pass
            with registry.span("simulate"):
                with registry.span("fetch"):
                    pass
        snapshot = registry.snapshot()
        assert set(snapshot["spans"]) == {
            "campaign",
            "campaign/build",
            "campaign/simulate",
            "campaign/simulate/fetch",
        }
        assert snapshot["spans"]["campaign"]["count"] == 1

    def test_merge_adds_counters_histograms_and_spans(self):
        first = MetricsRegistry()
        first.inc("c", 2)
        first.observe("h", 5)
        first.record_span("phase", 1.0)
        second = MetricsRegistry()
        second.inc("c", 3)
        second.observe("h", 50)
        second.record_span("phase", 0.5)
        second.set_gauge("g", 9)
        first.merge_snapshot(second.snapshot())
        snapshot = first.snapshot()
        assert snapshot["counters"] == {"c": 5}
        assert snapshot["gauges"] == {"g": 9}
        assert snapshot["histograms"]["h"]["count"] == 2
        assert snapshot["histograms"]["h"]["sum"] == 55
        assert snapshot["histograms"]["h"]["min"] == 5
        assert snapshot["histograms"]["h"]["max"] == 50
        assert snapshot["spans"]["phase"] == {"count": 2, "seconds": 1.5, "errors": 0}

    def test_span_records_error_on_raise(self):
        registry = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with registry.span("phase"):
                raise RuntimeError("boom")
        with registry.span("phase"):
            pass
        snapshot = registry.snapshot()
        assert snapshot["spans"]["phase"]["count"] == 2
        assert snapshot["spans"]["phase"]["errors"] == 1
        assert snapshot["counters"]["span.errors.RuntimeError"] == 1

    def test_merge_preserves_span_errors(self):
        first = MetricsRegistry()
        first.record_span("phase", 1.0, errors=1)
        second = MetricsRegistry()
        second.record_span("phase", 0.5, errors=2)
        first.merge_snapshot(second.snapshot())
        assert first.snapshot()["spans"]["phase"]["errors"] == 3

    def test_merge_rejects_mismatched_buckets(self):
        first = MetricsRegistry()
        first.observe("h", 5, buckets=(1, 10))
        second = MetricsRegistry()
        second.observe("h", 5, buckets=(1, 100))
        with pytest.raises(ValueError, match="bucket bounds"):
            first.merge_snapshot(second.snapshot())

    def test_merge_order_invariance(self):
        """Merging per-task snapshots in task order is associative enough:
        any grouping of the same ordered snapshots gives the same totals."""
        parts = []
        for index in range(4):
            registry = MetricsRegistry()
            registry.inc("c", index + 1)
            registry.observe("h", index * 10)
            parts.append(registry.snapshot())
        flat = MetricsRegistry()
        for part in parts:
            flat.merge_snapshot(part)
        grouped = MetricsRegistry()
        left = MetricsRegistry()
        for part in parts[:2]:
            left.merge_snapshot(part)
        right = MetricsRegistry()
        for part in parts[2:]:
            right.merge_snapshot(part)
        grouped.merge_snapshot(left.snapshot())
        grouped.merge_snapshot(right.snapshot())
        assert deterministic_view(flat.snapshot()) == deterministic_view(
            grouped.snapshot()
        )


class TestActiveRegistry:
    def test_defaults_to_null_registry(self):
        assert get_observer() is NULL_OBSERVER
        assert isinstance(get_observer().metrics, NullRegistry)
        assert get_observer().metrics is NULL_REGISTRY

    def test_module_helpers_hit_installed_registry(self):
        registry = MetricsRegistry()
        with use_observer(Observer(metrics=registry)):
            obs_hooks.inc("x")
            obs_hooks.set_gauge("g", 2)
            obs_hooks.observe("h", 1)
            with obs_hooks.span("s"):
                pass
        obs_hooks.inc("x")  # after uninstall: swallowed by the null observer
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"x": 1}
        assert "s" in snapshot["spans"]

    def test_use_registry_restores_previous(self):
        outer = MetricsRegistry()
        inner = MetricsRegistry()
        with use_observer(Observer(metrics=outer)):
            with use_observer(Observer(metrics=inner)):
                obs_hooks.inc("inside")
            obs_hooks.inc("outside")
        assert inner.snapshot()["counters"] == {"inside": 1}
        assert outer.snapshot()["counters"] == {"outside": 1}

    def test_null_registry_is_noop_and_cheap(self):
        snapshot = NULL_REGISTRY.snapshot()
        NULL_REGISTRY.inc("x", 5)
        NULL_REGISTRY.observe("h", 1.0)
        with NULL_REGISTRY.span("s"):
            pass
        assert NULL_REGISTRY.snapshot() == snapshot
        assert snapshot["counters"] == {}
        # Overhead smoke: disabled instrumentation must stay in no-op
        # territory (generous absolute bound to stay CI-proof).
        started = time.perf_counter()
        for _ in range(100_000):
            obs_hooks.inc("hot.counter")
        elapsed = time.perf_counter() - started
        assert elapsed < 2.0


class TestDeterministicView:
    def test_strips_wall_clock_sections(self):
        registry = MetricsRegistry()
        registry.inc("c")
        registry.set_gauge("g", 1)
        registry.observe("h", 1)
        registry.observe("latency_seconds", 0.5)
        registry.record_span("phase", 1.0)
        view = deterministic_view(registry.snapshot())
        assert view["counters"] == {"c": 1}
        assert set(view["histograms"]) == {"h"}
        assert "spans" not in view and "gauges" not in view

    def test_strips_environment_dependent_counters(self):
        """Worker crashes and retries depend on host load, not the seed:
        a retried task yields identical outputs but a different retry
        count, so these counters must not break worker-count parity."""
        registry = MetricsRegistry()
        registry.inc("exec.tasks", 8)
        registry.inc("exec.retries")
        registry.inc("exec.failures")
        registry.inc("exec.pool_rebuilds")
        view = deterministic_view(registry.snapshot())
        assert view["counters"] == {"exec.tasks": 8}


class TestExport:
    def _sample_registry(self):
        registry = MetricsRegistry()
        registry.inc("c", 3)
        registry.set_gauge("g", 2)
        registry.observe("h", 42)
        registry.record_span("campaign/build", 0.25)
        return registry

    def test_record_stream_round_trip(self):
        snapshot = self._sample_registry().snapshot()
        records = metrics_to_records(snapshot)
        assert records_to_snapshot(records) == snapshot

    def test_records_to_snapshot_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown metric record kind"):
            records_to_snapshot([{"kind": "bogus", "name": "x"}])

    @pytest.mark.parametrize("suffix", [".jsonl", ".sqlite"])
    def test_file_round_trip_via_store_backends(self, tmp_path, suffix):
        snapshot = self._sample_registry().snapshot()
        path = tmp_path / f"metrics{suffix}"
        count = write_metrics(snapshot, path)
        assert count == 4
        assert read_metrics(path) == snapshot
        # Overwrites, never appends.
        write_metrics(snapshot, path)
        assert read_metrics(path) == snapshot

    def test_flat_json_round_trip(self, tmp_path):
        snapshot = self._sample_registry().snapshot()
        path = tmp_path / "metrics.json"
        write_metrics(snapshot, path)
        assert json.loads(path.read_text()) == snapshot
        assert read_metrics(path) == snapshot

    def test_write_to_backend_instance(self, tmp_path):
        from repro.store import MemoryBackend

        backend = MemoryBackend()
        snapshot = self._sample_registry().snapshot()
        write_metrics(snapshot, backend)
        assert read_metrics(backend) == snapshot

    def test_render_report_sections(self):
        report = render_report(self._sample_registry().snapshot())
        assert "phase timings" in report
        assert "counters" in report
        assert "c" in report and "3" in report
        assert "build" in report

    def test_render_report_empty_snapshot(self):
        assert render_report(MetricsRegistry().snapshot()) == "(no metrics recorded)"

    def test_render_report_error_column(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            with registry.span("build"):
                raise ValueError("nope")
        report = render_report(registry.snapshot())
        assert "errors" in report
        assert "span.errors.ValueError" in report

    def test_render_report_top_limits_rows(self):
        registry = MetricsRegistry()
        for index in range(10):
            registry.inc(f"counter.{index}", index + 1)
        full = render_report(registry.snapshot())
        trimmed = render_report(registry.snapshot(), top=3)
        assert len(trimmed.splitlines()) < len(full.splitlines())
        # the busiest counters survive, the quiet ones are trimmed
        assert "counter.9" in trimmed
        assert "counter.0" not in trimmed


def _campaign_config(workers: int) -> ScenarioConfig:
    return ScenarioConfig(
        profile=WorldProfile(online_servers=120, seed=91),
        days=1,
        warmup_days=0,
        daily_cid_sample=40,
        provider_fetch_days=1,
        gateway_probes_per_endpoint=2,
        workers=workers,
        metrics=True,
    )


@pytest.fixture(scope="module")
def metric_campaigns():
    serial = run_campaign(_campaign_config(workers=1))
    parallel = run_campaign(_campaign_config(workers=4))
    return serial, parallel


class TestCampaignMetrics:
    def test_metrics_disabled_by_default(self):
        config = ScenarioConfig()
        assert config.metrics is False

    def test_result_carries_snapshot(self, metric_campaigns):
        serial, _ = metric_campaigns
        snapshot = serial.metrics
        assert snapshot is not None
        assert snapshot["counters"]["crawl.crawls"] == len(serial.crawls)
        assert snapshot["counters"]["exec.tasks"] == len(serial.crawls)
        assert "campaign" in snapshot["spans"]
        assert "campaign/simulate" in snapshot["spans"]
        assert snapshot["gauges"]["campaign.workers"] == 1

    def test_worker_count_metric_merge_parity(self, metric_campaigns):
        """workers=1 and workers=4 must produce identical deterministic
        metrics — the merge mirrors the sharded-log heap-merge."""
        serial, parallel = metric_campaigns
        assert deterministic_view(serial.metrics) == deterministic_view(
            parallel.metrics
        )

    def test_metrics_leave_campaign_unchanged(self, metric_campaigns):
        """Metrics are off the simulation's RNG path: the instrumented
        campaign equals the plain one record for record."""
        import dataclasses

        from repro.scenario.report import full_report

        serial, _ = metric_campaigns
        plain = run_campaign(dataclasses.replace(_campaign_config(workers=1), metrics=False))
        assert list(serial.hydra.log) == list(plain.hydra.log)
        assert list(serial.bitswap_monitor.log) == list(plain.bitswap_monitor.log)
        assert full_report(serial) == full_report(plain)

    def test_campaign_does_not_install_global_registry(self, metric_campaigns):
        assert get_observer() is NULL_OBSERVER

    def test_report_renders_from_campaign(self, metric_campaigns):
        serial, _ = metric_campaigns
        report = render_report(serial.metrics)
        assert "campaign" in report
        assert "crawl.crawls" in report


class TestFrontDoor:
    def test_public_surface(self):
        assert repro.MetricsRegistry is MetricsRegistry
        assert repro.render_report is render_report
        spec = repro.parse_spec("sqlite:out/run")
        assert spec.kind == "sqlite"
        backend = repro.open_store("memory")
        backend.append({"x": 1})
        assert list(backend.scan())

    def test_monitors_accept_spec_strings(self, tmp_path):
        from repro.monitors.bitswap_monitor import BitswapMonitor
        from repro.monitors.hydra import HydraBooster

        hydra = HydraBooster(num_heads=2, store="sqlite::memory:")
        assert len(hydra) == 0
        monitor = BitswapMonitor(store=f"jsonl:{tmp_path}/bitswap.jsonl")
        assert len(monitor) == 0


class TestObsCli:
    def test_obs_report_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        registry = MetricsRegistry()
        registry.inc("crawl.crawls", 7)
        registry.record_span("campaign", 1.25)
        path = tmp_path / "metrics.jsonl"
        write_metrics(registry.snapshot(), path)
        assert main(["obs", "report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "crawl.crawls" in out
        assert "campaign" in out

    def test_obs_report_json_and_top(self, tmp_path, capsys):
        from repro.cli import main

        registry = MetricsRegistry()
        for index in range(6):
            registry.inc(f"counter.{index}", index + 1)
        path = tmp_path / "metrics.jsonl"
        write_metrics(registry.snapshot(), path)
        assert main(["obs", "report", str(path), "--format", "json", "--top", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["counters"]) == {"counter.4", "counter.5"}

    def test_obs_report_missing_file(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["obs", "report", str(tmp_path / "nope.jsonl")]) == 2
        assert "no such file" in capsys.readouterr().err
