"""The storage subsystem: backends, the EventLog facade, spec parsing."""

import json
import random
import re
import sqlite3

import pytest

from repro.ids.cid import CID
from repro.ids.peerid import PeerID
from repro.kademlia.messages import MessageEnvelope, MessageType, TrafficClass
from repro.monitors.bitswap_monitor import BitswapLogEntry
from repro.store import (
    BITSWAP_CODEC,
    HYDRA_CODEC,
    EventLog,
    JsonlBackend,
    MemoryBackend,
    SqliteBackend,
    StorageSpec,
    campaign_stores,
    open_file_backend,
    open_store,
    parse_spec,
    read_records,
    write_records,
)


def make_envelope(rng, timestamp, message_type=MessageType.GET_PROVIDERS, **kwargs):
    if message_type in (MessageType.GET_PROVIDERS, MessageType.ADD_PROVIDER):
        kwargs.setdefault("target_cid", CID.generate(rng))
    if kwargs.get("target_cid") is not None:
        kwargs.setdefault("target_key", kwargs["target_cid"].dht_key)
    return MessageEnvelope(
        timestamp=timestamp,
        sender=PeerID.generate(rng),
        sender_ip=f"10.1.2.{int(timestamp) % 200}",
        message_type=message_type,
        **kwargs,
    )


def backend_for(kind, tmp_path):
    if kind == "memory":
        return MemoryBackend()
    if kind == "jsonl":
        return JsonlBackend(tmp_path / "log.jsonl", batch_size=7)
    if kind == "sqlite":
        return SqliteBackend(tmp_path / "log.sqlite", batch_size=7)
    raise AssertionError(kind)


BACKENDS = ("memory", "jsonl", "sqlite")


class TestEventLogContract:
    """The list contract every consumer of ``monitor.log`` relies on."""

    @pytest.fixture(params=BACKENDS)
    def log(self, request, tmp_path):
        log = EventLog(HYDRA_CODEC, backend_for(request.param, tmp_path))
        rng = random.Random(99)
        for i in range(30):
            log.append(make_envelope(rng, float(i)))
        return log

    def test_len_and_iteration_order(self, log):
        assert len(log) == 30
        timestamps = [entry.timestamp for entry in log]
        assert timestamps == [float(i) for i in range(30)]

    def test_reversed(self, log):
        assert [e.timestamp for e in reversed(log)] == [float(i) for i in range(29, -1, -1)]

    def test_slicing(self, log):
        assert [e.timestamp for e in log[:3]] == [0.0, 1.0, 2.0]
        assert [e.timestamp for e in log[27:]] == [27.0, 28.0, 29.0]
        assert [e.timestamp for e in log[5:8]] == [5.0, 6.0, 7.0]
        assert log[10:10] == []

    def test_indexing(self, log):
        assert log[0].timestamp == 0.0
        assert log[-1].timestamp == 29.0
        with pytest.raises(IndexError):
            log[30]
        with pytest.raises(IndexError):
            log[-31]

    def test_window(self, log):
        assert [e.timestamp for e in log.window(10.0, 14.0)] == [10.0, 11.0, 12.0, 13.0]
        assert list(log.window(100.0, 200.0)) == []

    def test_tail(self, log):
        assert [e.timestamp for e in log.tail(4)] == [26.0, 27.0, 28.0, 29.0]
        assert log.tail(0) == []

    def test_entries_classify(self, log):
        assert all(e.traffic_class is TrafficClass.DOWNLOAD for e in log)


class TestRoundTrip:
    @pytest.mark.parametrize("kind", BACKENDS)
    def test_hydra_envelope_fields_survive(self, kind, tmp_path):
        rng = random.Random(3)
        log = EventLog(HYDRA_CODEC, backend_for(kind, tmp_path))
        relay = PeerID.generate(rng)
        log.append(make_envelope(rng, 1.0, via_relay=relay))
        log.append(make_envelope(rng, 2.0, MessageType.FIND_NODE, target_key=42))
        first, second = list(log)
        assert first.via_relay == relay
        assert first.target_cid is not None
        assert first.target_key == first.target_cid.dht_key
        assert second.target_key == 42
        assert second.target_cid is None
        assert second.traffic_class is TrafficClass.OTHER

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_bitswap_entries_survive(self, kind, tmp_path):
        rng = random.Random(4)
        log = EventLog(BITSWAP_CODEC, backend_for(kind, tmp_path))
        entries = [
            BitswapLogEntry(float(i), PeerID.generate(rng), "8.8.8.8", CID.generate(rng))
            for i in range(5)
        ]
        log.extend(entries)
        assert list(log) == entries


class TestPersistence:
    def test_jsonl_reopen_appends(self, tmp_path):
        path = tmp_path / "log.jsonl"
        rng = random.Random(5)
        log = EventLog(HYDRA_CODEC, JsonlBackend(path))
        log.append(make_envelope(rng, 1.0))
        log.close()
        reopened = EventLog(HYDRA_CODEC, JsonlBackend(path))
        assert len(reopened) == 1
        reopened.append(make_envelope(rng, 2.0))
        reopened.close()
        assert [e.timestamp for e in EventLog(HYDRA_CODEC, JsonlBackend(path))] == [1.0, 2.0]

    def test_sqlite_reopen_appends(self, tmp_path):
        path = tmp_path / "log.sqlite"
        rng = random.Random(6)
        log = EventLog(HYDRA_CODEC, SqliteBackend(path))
        log.append(make_envelope(rng, 1.0))
        log.close()
        reopened = EventLog(HYDRA_CODEC, SqliteBackend(path))
        assert len(reopened) == 1
        reopened.append(make_envelope(rng, 2.0))
        reopened.close()
        final = EventLog(HYDRA_CODEC, SqliteBackend(path))
        assert [e.timestamp for e in final] == [1.0, 2.0]


    def test_sqlite_opens_the_autoincrement_schema(self, tmp_path):
        """A file written before ``seq`` dropped ``AUTOINCREMENT`` still
        opens, appends after its rows and scans in append order."""
        path = tmp_path / "old.sqlite"
        conn = sqlite3.connect(path)
        conn.execute(
            "CREATE TABLE events "
            "(seq INTEGER PRIMARY KEY AUTOINCREMENT, ts REAL, payload TEXT NOT NULL)"
        )
        conn.execute("CREATE INDEX events_ts ON events (ts)")
        conn.executemany(
            "INSERT INTO events (ts, payload) VALUES (?, ?)",
            [(ts, json.dumps({"ts": ts, "n": n})) for n, ts in enumerate([3.0, 1.0, 2.0])],
        )
        conn.commit()
        conn.close()
        backend = SqliteBackend(path, batch_size=2)
        assert len(backend) == 3
        for n, ts in enumerate([0.5, 4.0, 1.5], start=3):
            backend.append({"ts": ts, "n": n})
        backend.close()
        reopened = SqliteBackend(path)
        assert [record["n"] for record in reopened.scan()] == [0, 1, 2, 3, 4, 5]
        assert [record["n"] for record in reopened.scan_reversed()] == [5, 4, 3, 2, 1, 0]
        assert [record["n"] for record in reopened.scan_range(1.0, 3.0)] == [1, 2, 5]
        reopened.close()


class TestStorageSpec:
    def test_parse_memory(self):
        spec = parse_spec("memory")
        assert spec == StorageSpec(kind="memory")
        assert spec.is_memory and not spec.on_disk

    def test_parse_file_kinds(self):
        spec = parse_spec("sqlite:/tmp/run/x.sqlite")
        assert spec.kind == "sqlite"
        assert spec.path == "/tmp/run/x.sqlite"
        assert spec.on_disk
        assert not parse_spec("sqlite::memory:").on_disk

    @pytest.mark.parametrize(
        "text",
        ["memory", "jsonl:/tmp/x.jsonl", "sqlite::memory:", "sqlite:/tmp/x.sqlite"],
    )
    def test_to_string_round_trips(self, text):
        spec = parse_spec(text)
        assert spec.to_string() == text
        assert parse_spec(spec.to_string()) == spec

    def test_parse_spec_passthrough(self):
        spec = StorageSpec(kind="jsonl", path="/tmp/x.jsonl")
        assert parse_spec(spec) is spec

    def test_with_path(self, tmp_path):
        spec = parse_spec("sqlite:/elsewhere/x.sqlite")
        moved = spec.with_path(tmp_path / "y.sqlite")
        assert moved.kind == "sqlite"
        assert moved.path == str(tmp_path / "y.sqlite")

    def test_open_store_accepts_every_spec_shape(self, tmp_path):
        assert isinstance(open_store(None), MemoryBackend)
        assert isinstance(open_store("memory"), MemoryBackend)
        assert isinstance(
            open_store(f"jsonl:{tmp_path}/x.jsonl"), JsonlBackend
        )
        assert isinstance(
            open_store(StorageSpec(kind="sqlite", path=":memory:")), SqliteBackend
        )
        backend = MemoryBackend()
        assert open_store(backend) is backend


class TestFactory:
    def test_memory(self):
        assert isinstance(open_store("memory"), MemoryBackend)

    def test_jsonl_and_sqlite(self, tmp_path):
        assert isinstance(open_store(f"jsonl:{tmp_path}/x.jsonl"), JsonlBackend)
        assert isinstance(open_store(f"sqlite:{tmp_path}/x.sqlite"), SqliteBackend)
        assert isinstance(open_store("sqlite::memory:"), SqliteBackend)

    @pytest.mark.parametrize(
        "spec",
        ["", "bogus", "memory:path", "jsonl:", "sqlite:", "sharded:x:sqlite:/p",
         "sharded:0:sqlite:/p", "sharded:2:memory", "sharded:2:sqlite:/p"],
    )
    def test_rejects_bad_specs(self, spec):
        with pytest.raises(ValueError):
            open_store(spec)

    def test_open_file_backend_by_suffix(self, tmp_path):
        assert isinstance(open_file_backend(tmp_path / "a.jsonl"), JsonlBackend)
        assert isinstance(open_file_backend(tmp_path / "a.sqlite"), SqliteBackend)
        assert isinstance(open_file_backend(tmp_path / "a.db"), SqliteBackend)
        with pytest.raises(ValueError):
            open_file_backend(tmp_path / "a.csv")

    def test_campaign_stores_memory(self):
        stores = campaign_stores("memory")
        assert set(stores) == {"hydra", "bitswap"}
        assert all(isinstance(b, MemoryBackend) for b in stores.values())
        assert stores["hydra"] is not stores["bitswap"]

    def test_campaign_stores_directory(self, tmp_path):
        stores = campaign_stores(f"sqlite:{tmp_path}/run")
        assert str(stores["hydra"].path).endswith("hydra.sqlite")
        assert str(stores["bitswap"].path).endswith("bitswap.sqlite")


class TestSniffCampaignLogs:
    """``repro detect score DIR`` re-opens what ``campaign_stores`` laid out."""

    @pytest.mark.parametrize("kind", ["sqlite", "jsonl"])
    @pytest.mark.parametrize(
        "names",
        [("hydra",), ("hydra", "bitswap"), ("hydra", "attack"), ("hydra", "bitswap", "attack")],
    )
    def test_round_trips_the_layout(self, tmp_path, kind, names):
        from repro.cli import _sniff_campaign_logs

        directory = tmp_path / "run"
        for backend in campaign_stores(f"{kind}:{directory}", names=names).values():
            backend.append({"ts": 0.0})
            backend.close()
        spec, found = _sniff_campaign_logs(directory)
        assert spec == f"{kind}:{directory}"
        assert found == names
        reopened = campaign_stores(spec, names=found)
        assert [len(reopened[name]) for name in names] == [1] * len(names)

    def test_no_hydra_log_names_the_directory(self, tmp_path):
        from repro.cli import _sniff_campaign_logs

        campaign_stores(f"sqlite:{tmp_path}", names=("bitswap",))["bitswap"].close()
        with pytest.raises(ValueError, match=f"under {re.escape(str(tmp_path))}$"):
            _sniff_campaign_logs(tmp_path)


class TestCopyAndConvert:
    def test_copy_records(self, tmp_path):
        source = SqliteBackend(tmp_path / "src.sqlite")
        source.extend([{"ts": float(i), "v": i} for i in range(10)])
        destination = JsonlBackend(tmp_path / "dst.jsonl")
        assert write_records(read_records(source), destination) == 10
        assert list(destination.scan()) == list(source.scan())

    def test_convert_log_between_formats(self, tmp_path):
        from repro.core.datasets import write_hydra_jsonl

        rng = random.Random(8)
        entries = [make_envelope(rng, float(i)) for i in range(12)]
        jsonl_path = tmp_path / "hydra.jsonl"
        write_hydra_jsonl(entries, jsonl_path)
        sqlite_path = tmp_path / "hydra.sqlite"
        assert write_records(read_records(jsonl_path), sqlite_path) == 12
        reloaded = list(EventLog(HYDRA_CODEC, SqliteBackend(sqlite_path)))
        assert reloaded == entries


RECORDS = [{"ts": float(i), "v": i, "tag": f"r{i}"} for i in range(25)]


class TestWriteAndReadRecords:
    @pytest.mark.parametrize(
        "name", ["out.jsonl", "out.trace", "out.sqlite", "memory"]
    )
    def test_second_write_replaces(self, tmp_path, name):
        if name == "memory":
            destination = MemoryBackend()
        else:
            destination = tmp_path / name
        assert write_records(RECORDS, destination) == len(RECORDS)
        assert write_records(iter(RECORDS), destination) == len(RECORDS)
        assert list(read_records(destination)) == RECORDS

    def test_empty_write_leaves_an_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        write_records(RECORDS, path)
        assert write_records([], path) == 0
        assert path.read_bytes() == b""
        assert list(read_records(path)) == []

    @pytest.mark.parametrize(
        "first, second", [("a.jsonl", "b.sqlite"), ("a.sqlite", "b.jsonl"), ("a.db", "b.trace")]
    )
    def test_round_trip_across_formats(self, tmp_path, first, second):
        write_records(RECORDS, tmp_path / first)
        write_records(read_records(tmp_path / first), tmp_path / second)
        assert list(read_records(tmp_path / second)) == RECORDS
        assert list(read_records(tmp_path / first)) == RECORDS

    def test_backend_passed_in_stays_open(self, tmp_path):
        backend = SqliteBackend(tmp_path / "x.sqlite")
        write_records(RECORDS, backend)
        backend.append({"ts": 99.0})
        assert len(list(read_records(backend))) == len(RECORDS) + 1

    def test_reader_closes_the_file_it_opened(self, tmp_path, monkeypatch):
        closed = []
        original = SqliteBackend.close
        monkeypatch.setattr(
            SqliteBackend, "close", lambda self: closed.append(self) or original(self)
        )
        path = tmp_path / "x.sqlite"
        write_records(RECORDS, path)
        closed.clear()
        stream = read_records(path)
        assert next(stream) == RECORDS[0]
        assert closed == []
        assert list(stream) == RECORDS[1:]
        assert len(closed) == 1

    @pytest.mark.parametrize("name", ["missing.jsonl", "missing.sqlite"])
    def test_missing_source_raises_without_creating_it(self, tmp_path, name):
        with pytest.raises(FileNotFoundError):
            read_records(tmp_path / name)
        assert not (tmp_path / name).exists()


class TestJsonlRobustness:
    def _with_blank_lines(self, tmp_path):
        from repro.core.datasets import write_hydra_jsonl

        rng = random.Random(12)
        entries = [make_envelope(rng, float(i)) for i in range(6)]
        path = tmp_path / "hydra.jsonl"
        write_hydra_jsonl(entries, path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:3]) + "\n" + "".join(lines[3:]) + "\n")
        return entries, path

    def test_blank_lines_neither_counted_nor_yielded(self, tmp_path):
        entries, path = self._with_blank_lines(tmp_path)
        log = EventLog(HYDRA_CODEC, JsonlBackend(path))
        assert len(log) == sum(1 for _ in log) == len(entries)
        assert list(log) == entries
        assert list(reversed(log)) == entries[::-1]

    def test_every_dataset_reader_skips_blank_lines(self, tmp_path, smoke_campaign):
        from repro.core import datasets

        entries, path = self._with_blank_lines(tmp_path)
        assert datasets.read_hydra_jsonl(path) == entries
        for write, read, data in (
            (datasets.write_crawl_jsonl, datasets.read_crawl_jsonl, smoke_campaign.crawls),
            (
                datasets.write_provider_observations_jsonl,
                datasets.read_provider_observations_jsonl,
                smoke_campaign.provider_observations[:5],
            ),
        ):
            other = tmp_path / "other.jsonl"
            write(data, other)
            expected = read(other)
            other.write_text("\n" + other.read_text() + "\n\n")
            reloaded = read(other)
            assert len(reloaded) == len(expected) > 0

    def _truncate_last_line(self, path):
        text = path.read_text()
        path.write_text(text[: len(text) - 10])
        return text.count("\n")

    def test_truncated_trace_names_file_and_line(self, tmp_path):
        from repro.obs import Tracer, read_trace, write_trace

        tracer = Tracer(origin="crash")
        for i in range(4):
            with tracer.span("s", i=i):
                tracer.event("e")
        path = tmp_path / "run.trace"
        write_trace(tracer.records(), path)
        lines = self._truncate_last_line(path)
        with pytest.raises(ValueError, match=rf"run\.trace: line {lines} "):
            read_trace(path)

    def test_truncated_hydra_log_names_file_and_line(self, tmp_path):
        from repro.core.datasets import read_hydra_jsonl, write_hydra_jsonl

        rng = random.Random(13)
        path = tmp_path / "hydra.jsonl"
        write_hydra_jsonl([make_envelope(rng, float(i)) for i in range(9)], path)
        lines = self._truncate_last_line(path)
        assert lines == 9
        pattern = r"hydra\.jsonl: line 9 "
        with pytest.raises(ValueError, match=pattern):
            read_hydra_jsonl(path)
        log = EventLog(HYDRA_CODEC, JsonlBackend(path))
        with pytest.raises(ValueError, match=pattern):
            list(log)
        with pytest.raises(ValueError, match=pattern):
            list(reversed(log))


class TestMonitorsOnDisk:
    def test_hydra_on_sqlite(self, tmp_path):
        from repro.monitors.hydra import HydraBooster

        rng = random.Random(9)
        hydra = HydraBooster(num_heads=2, store=SqliteBackend(tmp_path / "h.sqlite"))
        for i in range(6):
            hydra.record(
                float(i), PeerID.generate(rng), "1.2.3.4", MessageType.GET_PROVIDERS,
                target_cid=CID.generate(rng),
            )
        assert len(hydra) == 6
        assert len(hydra.entries(TrafficClass.DOWNLOAD)) == 6
        assert len(hydra.entries(TrafficClass.OTHER)) == 0

    def test_bitswap_window_on_sqlite(self, tmp_path):
        from repro.monitors.bitswap_monitor import BitswapMonitor
        from repro.netsim.clock import SECONDS_PER_DAY

        monitor = BitswapMonitor(
            random.Random(10), store=SqliteBackend(tmp_path / "b.sqlite")
        )
        rng = random.Random(11)
        cids = [CID.generate(rng) for _ in range(4)]
        for day, cid in enumerate(cids):
            monitor.log.append(
                BitswapLogEntry(
                    day * SECONDS_PER_DAY + 10.0, PeerID.generate(rng), "2.2.2.2", cid
                )
            )
        assert monitor.cids_on_day(1) == {cids[1]}
        assert monitor.cids_in_window(0.0, 2 * SECONDS_PER_DAY) == set(cids[:2])
