"""Structured event tracing: tracer, sampling, audit, Perfetto, campaign wiring."""

import json

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.obs import (
    AuditReport,
    NULL_TRACER,
    NullTracer,
    Observer,
    ProgressReporter,
    Tracer,
    audit_trace,
    chrome_trace,
    deterministic_trace_view,
    get_tracer,
    read_trace,
    use_observer,
    write_chrome_trace,
    write_trace,
)
from repro.obs import observer as obs_hooks
from repro.obs.trace import BEGIN, END, INSTANT, event_to_record, record_to_event
from repro.scenario.config import ScenarioConfig
from repro.scenario.run import run_campaign
from repro.world.profiles import WorldProfile


class TestTracer:
    def test_span_emits_begin_end_with_causal_ids(self):
        tracer = Tracer(origin="t")
        with tracer.span("outer", kind="demo") as outer:
            tracer.event("tick", n=1)
            with tracer.span("inner") as inner:
                pass
        events = tracer.events()
        assert [e.etype for e in events] == [BEGIN, INSTANT, BEGIN, END, END]
        assert all(e.trace_id == outer.trace_id for e in events)
        begin = events[0]
        assert begin.name == "outer" and begin.parent_id is None
        assert begin.attrs == {"kind": "demo"}
        assert events[1].parent_id == outer.span_id  # instant borrows the span
        assert events[2].parent_id == outer.span_id  # nesting is causal
        assert events[2].span_id == inner.span_id != outer.span_id

    def test_root_spans_open_new_traces(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        traces = {event.trace_id for event in tracer.events()}
        assert traces == {1, 2}

    def test_note_lands_on_end_event(self):
        tracer = Tracer()
        with tracer.span("lookup") as span:
            span.note(reason="done", rounds=3)
        end = tracer.events()[-1]
        assert end.etype == END
        assert end.attrs == {"reason": "done", "rounds": 3}

    def test_span_error_tagging(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("phase") as span:
                span.note(partial=True)
                raise RuntimeError("boom")
        end = tracer.events()[-1]
        assert end.etype == END
        assert end.attrs["error"] is True
        assert end.attrs["error_type"] == "RuntimeError"
        assert end.attrs["partial"] is True

    def test_instant_outside_spans_is_trace_zero(self):
        tracer = Tracer()
        tracer.event("exec.submit", task="0")
        event = tracer.events()[0]
        assert event.trace_id == 0 and event.parent_id is None

    def test_ring_buffer_evicts_oldest(self):
        tracer = Tracer(capacity=4)
        for index in range(10):
            tracer.event(f"e{index}")
        assert len(tracer) == 4
        assert tracer.emitted == 10
        assert tracer.dropped == 6
        assert [event.name for event in tracer.events()] == ["e6", "e7", "e8", "e9"]

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_meta_record_accounting(self):
        tracer = Tracer(origin="m", seed=7, sample=2, capacity=8)
        for _ in range(3):
            with tracer.span("s"):
                pass
        meta = tracer.meta_record()
        assert meta["type"] == "meta"
        assert meta["origin"] == "m"
        assert meta["traces"] == 3
        assert meta["emitted"] + meta["muted"] == tracer.emitted + tracer.muted
        records = tracer.records()
        assert records[0] == meta  # meta always leads the stream

    def test_record_round_trip(self):
        tracer = Tracer(origin="rt")
        with tracer.span("s", a=1):
            tracer.event("i", b=2)
        for event in tracer.events():
            record = event_to_record(event)
            rebuilt = record_to_event(record)
            assert event_to_record(rebuilt) == record


class TestSampling:
    def test_sample_one_keeps_everything(self):
        tracer = Tracer(sample=1)
        for _ in range(10):
            with tracer.span("s"):
                tracer.event("i")
        assert tracer.muted == 0

    def test_sampling_mutes_whole_trees(self):
        tracer = Tracer(seed=3, sample=4)
        for _ in range(64):
            with tracer.span("s"):
                tracer.event("i")
                with tracer.span("nested"):
                    pass
        assert 0 < tracer.muted < 64 * 4
        # every surviving tree is complete: balanced begins/ends plus
        # its instant, so event count is a multiple of 5
        assert tracer.emitted % 5 == 0
        kept_traces = {event.trace_id for event in tracer.events()}
        assert len(kept_traces) == tracer.emitted // 5

    def test_sampling_is_a_pure_function_of_seed_and_index(self):
        def kept(seed):
            tracer = Tracer(seed=seed, sample=3)
            for _ in range(40):
                with tracer.span("s"):
                    pass
            return {event.trace_id for event in tracer.events()}

        assert kept(11) == kept(11)
        assert kept(11) != kept(12)  # astronomically unlikely to collide

    def test_span_ids_stay_deterministic_under_sampling(self):
        """Span ids are allocated only for sampled trees, so the id
        sequence does not depend on how interleaved muted trees are."""
        tracer = Tracer(seed=5, sample=2)
        ids = []
        for _ in range(20):
            with tracer.span("s") as span:
                ids.append(span.span_id)
        sampled = [span_id for span_id in ids if span_id]
        assert sampled == list(range(1, len(sampled) + 1))


class TestRingBufferProperty:
    @given(
        capacity=st.integers(min_value=1, max_value=16),
        total=st.integers(min_value=0, max_value=64),
    )
    @settings(max_examples=60, deadline=None)
    def test_eviction_keeps_newest_suffix_in_order(self, capacity, total):
        tracer = Tracer(capacity=capacity)
        for index in range(total):
            tracer.event(f"e{index}")
        names = [event.name for event in tracer.events()]
        expected = [f"e{i}" for i in range(max(0, total - capacity), total)]
        assert names == expected
        seqs = [event.seq for event in tracer.events()]
        assert seqs == sorted(seqs)
        assert tracer.dropped == max(0, total - capacity)


class TestActiveTracer:
    def test_defaults_to_null_tracer(self):
        assert isinstance(get_tracer(), NullTracer)
        assert get_tracer() is NULL_TRACER

    def test_null_tracer_is_inert(self):
        with NULL_TRACER.span("s") as span:
            span.note(x=1)
            NULL_TRACER.event("i")
        assert len(NULL_TRACER) == 0
        assert NULL_TRACER.records() == []
        assert not NULL_TRACER.enabled

    def test_module_helpers_hit_installed_tracer(self):
        tracer = Tracer(origin="helpers")
        with use_observer(Observer(tracer=tracer)):
            with obs_hooks.trace_span("s"):
                obs_hooks.trace_event("i")
        obs_hooks.trace_event("swallowed")
        assert [event.name for event in tracer.events()] == ["s", "i", "s"]

    def test_use_tracer_restores_previous(self):
        outer = Tracer(origin="outer")
        inner = Tracer(origin="inner")
        with use_observer(Observer(tracer=outer)):
            with use_observer(Observer(tracer=inner)):
                obs_hooks.trace_event("in")
            obs_hooks.trace_event("out")
        assert [event.name for event in inner.events()] == ["in"]
        assert [event.name for event in outer.events()] == ["out"]


class TestPersistence:
    def _sample_records(self):
        tracer = Tracer(origin="disk")
        with tracer.span("s", a=1):
            tracer.event("i")
        return tracer.records()

    @pytest.mark.parametrize("suffix", [".trace", ".jsonl", ".sqlite"])
    def test_file_round_trip(self, tmp_path, suffix):
        records = self._sample_records()
        path = tmp_path / f"run{suffix}"
        assert write_trace(records, path) == len(records)
        assert read_trace(path) == records
        # overwrites, never appends
        write_trace(records, path)
        assert read_trace(path) == records

    def test_backend_round_trip(self):
        from repro.store import MemoryBackend

        backend = MemoryBackend()
        records = self._sample_records()
        write_trace(records, backend)
        assert read_trace(backend) == records


class TestChromeTrace:
    def test_export_shape_and_balance(self, tmp_path):
        tracer = Tracer(origin="main")
        with tracer.span("campaign"):
            tracer.event("phase.begin", phase="build")
            with tracer.span("lookup.find_node"):
                pass
        path = tmp_path / "out.json"
        count = write_chrome_trace(tracer.records(), path)
        payload = json.loads(path.read_text())  # validates as JSON
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        assert len(events) == count
        phases = [event["ph"] for event in events]
        assert phases.count("B") == phases.count("E") == 2
        assert phases.count("M") == 1  # process_name metadata
        instants = [event for event in events if event["ph"] == "i"]
        assert instants and all(event["s"] == "t" for event in instants)
        assert payload["otherData"]["tracers"]["main"]["dropped"] == 0

    def test_timestamps_strictly_increase_per_origin(self):
        # a frozen sim clock must not collapse spans to zero width
        tracer = Tracer(origin="crawl-0", clock=lambda: 1000.0)
        with tracer.span("crawl"):
            for index in range(5):
                tracer.event("crawl.peer", index=index)
        payload = chrome_trace(tracer.records())
        timestamps = [
            event["ts"] for event in payload["traceEvents"] if event["ph"] != "M"
        ]
        assert all(b > a for a, b in zip(timestamps, timestamps[1:]))
        assert timestamps[0] == 1000 * 1_000_000

    def test_origins_become_processes(self):
        first = Tracer(origin="main")
        with first.span("a"):
            pass
        second = Tracer(origin="crawl-1")
        with second.span("b"):
            pass
        payload = chrome_trace(first.records() + second.records(include_meta=False))
        names = {
            event["args"]["name"]
            for event in payload["traceEvents"]
            if event["ph"] == "M"
        }
        assert names == {"main", "crawl-1"}


class TestAudit:
    def _records(self, tracer):
        return tracer.records()

    def test_clean_stream_passes(self):
        tracer = Tracer()
        with tracer.span("lookup.find_node") as span:
            tracer.event("lookup.round", round=0, best=100)
            tracer.event("lookup.round", round=1, best=40)
            span.note(reason="frontier_exhausted")
        report = audit_trace(self._records(tracer))
        assert isinstance(report, AuditReport)
        assert report.ok and not report.warnings
        assert report.checked["lookups"] == 1
        assert "no invariant violations" in report.render()

    def test_unclosed_span_is_a_violation(self):
        tracer = Tracer()
        span = tracer.span("crawl")
        span.__enter__()  # never exited
        report = audit_trace(self._records(tracer))
        assert not report.ok
        assert any("never closed" in finding for finding in report.violations)

    def test_end_without_begin_is_a_violation(self):
        records = [
            {"type": END, "name": "s", "origin": "m", "trace": 1, "span": 1,
             "seq": 1, "sim": 0.0, "wall": 0.0, "attrs": {}},
        ]
        report = audit_trace(records)
        assert any("end without begin" in finding for finding in report.violations)

    def test_truncated_origin_demotes_closure_to_warning(self):
        tracer = Tracer(capacity=2)
        with tracer.span("outer"):
            for index in range(8):
                tracer.event("tick", n=index)
        # the begin event was evicted; only the newest instants survive
        report = audit_trace(self._records(tracer))
        assert report.ok
        assert report.truncated == {"main": tracer.dropped}
        assert "truncated" in report.render()

    def test_lookup_round_regression_is_a_violation(self):
        tracer = Tracer()
        with tracer.span("lookup.find_node"):
            tracer.event("lookup.round", round=0, best=100)
            tracer.event("lookup.round", round=0, best=90)
        report = audit_trace(self._records(tracer))
        assert any("round index" in finding for finding in report.violations)

    def test_lookup_distance_increase_is_a_violation(self):
        tracer = Tracer()
        with tracer.span("lookup.find_providers"):
            tracer.event("lookup.round", round=0, best=50)
            tracer.event("lookup.round", round=1, best=75)
        report = audit_trace(self._records(tracer))
        assert any("distance increased" in finding for finding in report.violations)

    def test_recv_before_sent_is_a_violation(self):
        tracer = Tracer()
        with tracer.span("lookup.find_node"):
            tracer.event("msg.query", ok=True, sent=10.0, recv=9.0)
        report = audit_trace(self._records(tracer))
        assert any("received before sent" in finding for finding in report.violations)

    def test_relay_discipline_violations(self):
        tracer = Tracer()
        tracer.event("relay.assign", client_nat=False, relay_server=True)
        tracer.event("relay.assign", client_nat=True, relay_server=False)
        report = audit_trace(self._records(tracer))
        assert len(report.violations) == 2

    def test_exec_lifecycle_accounting(self):
        tracer = Tracer()
        tracer.event("exec.submit", task="0")
        tracer.event("exec.retry", task="0")
        tracer.event("exec.done", task="0", attempts=2)
        tracer.event("exec.submit", task="1")
        tracer.event("exec.done", task="1", attempts=2)  # no retry seen
        report = audit_trace(self._records(tracer))
        assert any("retry count mismatch" in finding for finding in report.violations)
        assert report.checked["tasks"] == 2

    def test_exec_error_cross_check(self):
        from repro.exec.engine import ExecError

        tracer = Tracer()
        tracer.event("exec.submit", task="3")
        tracer.event("exec.retry", task="3")
        tracer.event("exec.failed", task="3", attempts=2, stage="task")
        errors = [ExecError(task_id=3, error="boom", attempts=2)]
        assert audit_trace(self._records(tracer), exec_errors=errors).ok
        # an ExecError with no matching trace event is a violation
        ghost = [ExecError(task_id=9, error="boom", attempts=2)]
        report = audit_trace(self._records(tracer), exec_errors=ghost)
        assert not report.ok


class TestProgressReporter:
    class _FakeStream:
        def __init__(self):
            self.chunks = []

        def write(self, text):
            self.chunks.append(text)

        def flush(self):
            pass

    def test_throttles_by_wall_clock(self):
        stream = self._FakeStream()
        now = [0.0]
        reporter = ProgressReporter(stream=stream, interval=1.0, clock=lambda: now[0])
        reporter.update("simulate", 1, 10)
        reporter.update("simulate", 2, 10)  # inside the interval: skipped
        now[0] = 2.0
        reporter.update("simulate", 3, 10)
        assert reporter.renders == 2

    def test_force_and_finish(self):
        stream = self._FakeStream()
        reporter = ProgressReporter(stream=stream, interval=3600.0, clock=lambda: 0.0)
        reporter.update("simulate", 1, 4)
        reporter.update("crawl-drain", 4, 4, force=True)
        reporter.finish("done")
        text = "".join(stream.chunks)
        assert "simulate" in text and "crawl-drain" in text
        # the final message overwrites the heartbeat line (padded) and
        # releases the terminal with a newline
        assert "done" in text and text.endswith("\n")

    def test_shows_tracer_occupancy(self):
        stream = self._FakeStream()
        now = [0.0]
        tracer = Tracer(capacity=10)
        reporter = ProgressReporter(
            stream=stream,
            interval=0.5,
            clock=lambda: now[0],
            observer=Observer(tracer=tracer),
        )
        for _ in range(5):
            tracer.event("e")
        reporter.update("simulate", 1, 2)
        now[0] = 1.0
        reporter.update("simulate", 2, 2)
        text = "".join(stream.chunks)
        assert "buf 50%" in text


def _traced_config(workers: int) -> ScenarioConfig:
    return ScenarioConfig(
        profile=WorldProfile(online_servers=120, seed=91),
        days=1,
        warmup_days=0,
        daily_cid_sample=40,
        provider_fetch_days=1,
        gateway_probes_per_endpoint=2,
        workers=workers,
        trace=True,
        # large enough that nothing is evicted — the deterministic view
        # is only defined for whole streams (meta dropped == 0)
        trace_buffer=1 << 20,
    )


@pytest.fixture(scope="module")
def traced_campaigns():
    serial = run_campaign(_traced_config(workers=1))
    parallel = run_campaign(_traced_config(workers=4))
    return serial, parallel


class TestCampaignTracing:
    def test_tracing_disabled_by_default(self):
        config = ScenarioConfig()
        assert config.trace is False
        result_attrs = ScenarioConfig(trace=False)
        assert result_attrs.trace_sample == 1

    def test_result_carries_trace(self, traced_campaigns):
        serial, _ = traced_campaigns
        assert serial.trace is not None
        metas = [record for record in serial.trace if record.get("type") == "meta"]
        origins = {meta["origin"] for meta in metas}
        assert "main" in origins
        assert any(origin.startswith("crawl-") for origin in origins)
        assert all(meta["dropped"] == 0 for meta in metas)
        names = {record.get("name") for record in serial.trace}
        assert {"lookup.find_providers", "providers.fetch", "crawl", "crawl.peer",
                "phase.begin", "msg.query", "exec.submit"} <= names

    def test_worker_count_trace_parity(self, traced_campaigns):
        """workers=1 and workers=4 must agree on the deterministic view:
        same events, same causal ids, same sim timestamps."""
        serial, parallel = traced_campaigns
        assert deterministic_trace_view(serial.trace) == deterministic_trace_view(
            parallel.trace
        )

    def test_tracing_leaves_campaign_unchanged(self, traced_campaigns):
        """Tracing is off the simulation's RNG path: the traced campaign
        equals the untraced one record for record."""
        import dataclasses

        from repro.scenario.report import full_report

        traced, _ = traced_campaigns
        plain = run_campaign(dataclasses.replace(_traced_config(workers=1), trace=False))
        assert list(traced.hydra.log) == list(plain.hydra.log)
        assert list(traced.bitswap_monitor.log) == list(plain.bitswap_monitor.log)
        assert full_report(traced) == full_report(plain)

    def test_audit_passes_on_campaign_trace(self, traced_campaigns):
        serial, parallel = traced_campaigns
        for result in (serial, parallel):
            report = audit_trace(result.trace, exec_errors=result.exec_errors)
            assert report.ok, report.render()
            assert not report.warnings
            assert report.checked["lookups"] > 0
            assert report.checked["messages"] > 0

    def test_campaign_does_not_install_global_tracer(self, traced_campaigns):
        assert get_tracer() is NULL_TRACER

    def test_trace_out_writes_file(self, tmp_path):
        import dataclasses

        config = dataclasses.replace(
            _traced_config(workers=1),
            days=1,
            trace_sample=4,
            trace_out=str(tmp_path / "run.trace"),
        )
        result = run_campaign(config)
        assert result.trace_path == str(tmp_path / "run.trace")
        records = read_trace(result.trace_path)
        assert records == result.trace
        metas = [record for record in records if record.get("type") == "meta"]
        assert any(meta["muted"] > 0 for meta in metas)  # sampling engaged

    def test_trace_out_alone_implies_tracing(self, tmp_path):
        import dataclasses

        path = str(tmp_path / "smoke.trace")
        config = dataclasses.replace(ScenarioConfig.smoke(), trace_out=path)
        assert not config.trace
        result = run_campaign(config)
        assert result.trace
        assert result.trace_path == path
        assert read_trace(path) == result.trace

    def test_trace_sample_parity(self):
        """Sampling keys on (seed, tree index), so workers=1 and
        workers=4 keep the same trees."""
        import dataclasses

        base = dataclasses.replace(_traced_config(workers=1), trace_sample=3)
        serial = run_campaign(base)
        parallel = run_campaign(dataclasses.replace(base, workers=4))
        assert deterministic_trace_view(serial.trace) == deterministic_trace_view(
            parallel.trace
        )


class TestTraceCli:
    def _write_sample(self, tmp_path):
        tracer = Tracer(origin="main")
        with tracer.span("lookup.find_node"):
            tracer.event("lookup.round", round=0, best=10)
        path = tmp_path / "run.trace"
        write_trace(tracer.records(), path)
        return path

    def test_audit_ok_exit_zero(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write_sample(tmp_path)
        assert main(["obs", "audit", str(path)]) == 0
        assert "no invariant violations" in capsys.readouterr().out

    def test_audit_violation_exit_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        records = [
            {"type": END, "name": "s", "origin": "m", "trace": 1, "span": 1,
             "seq": 1, "sim": 0.0, "wall": 0.0, "attrs": {}},
        ]
        path = tmp_path / "bad.trace"
        write_trace(records, path)
        assert main(["obs", "audit", str(path)]) == 1
        assert "VIOLATION" in capsys.readouterr().out

    def test_audit_json_format(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write_sample(tmp_path)
        assert main(["obs", "audit", str(path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["violations"] == []

    def test_trace_export(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write_sample(tmp_path)
        out = tmp_path / "run.json"
        assert main(["obs", "trace-export", str(path), "--perfetto", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["traceEvents"]

    def test_missing_file(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["obs", "audit", str(tmp_path / "nope.trace")]) == 2
        assert "no such file" in capsys.readouterr().err


class TestFrontDoor:
    def test_public_surface(self):
        assert repro.Tracer is Tracer
        assert repro.audit_trace is audit_trace
        assert repro.chrome_trace is chrome_trace
        assert repro.write_trace is write_trace
        assert repro.read_trace is read_trace
        assert repro.write_chrome_trace is write_chrome_trace
