"""Storage-backend throughput: append + full scan per backend.

The monitor logs are the largest campaign datasets (the paper's Hydra
log holds 290 M messages).  This bench measures the event-log subsystem
on a synthetic Hydra-shaped workload: sequential appends (the hot write
path during a campaign) followed by a full decoding scan (what every §5
analysis pass costs).
"""

from __future__ import annotations

import random
import time

import pytest

from repro.ids.cid import CID
from repro.ids.peerid import PeerID
from repro.kademlia.messages import MessageEnvelope, MessageType
from repro.store import (
    HYDRA_CODEC,
    EventLog,
    JsonlBackend,
    MemoryBackend,
    SqliteBackend,
)

NUM_EVENTS = 20_000


def _events(count: int):
    rng = random.Random(0xBE7C)
    peers = [PeerID.generate(rng) for _ in range(200)]
    cids = [CID.generate(rng) for _ in range(500)]
    types = [MessageType.GET_PROVIDERS, MessageType.ADD_PROVIDER, MessageType.FIND_NODE]
    events = []
    for i in range(count):
        message_type = types[i % 3]
        cid = cids[i % len(cids)] if message_type is not MessageType.FIND_NODE else None
        events.append(
            MessageEnvelope(
                timestamp=float(i),
                sender=peers[i % len(peers)],
                sender_ip=f"10.{(i >> 8) % 256}.{i % 256}.7",
                message_type=message_type,
                target_cid=cid,
                target_key=cid.dht_key if cid else i,
            )
        )
    return events


def _backend(kind: str, tmp_path):
    if kind == "memory":
        return MemoryBackend()
    if kind == "jsonl":
        return JsonlBackend(tmp_path / "bench.jsonl")
    if kind == "sqlite":
        return SqliteBackend(tmp_path / "bench.sqlite")
    raise AssertionError(kind)


@pytest.mark.parametrize("kind", ("memory", "jsonl", "sqlite"))
def test_backend_throughput(kind, tmp_path, benchmark):
    events = _events(NUM_EVENTS)

    def append_and_scan():
        log = EventLog(HYDRA_CODEC, _backend(kind, tmp_path))
        for event in events:
            log.append(event)
        log.flush()
        scanned = sum(1 for _ in log)
        log.backend.clear()  # rounds reuse the same path; start each clean
        log.close()
        return scanned

    scanned = benchmark.pedantic(append_and_scan, rounds=3, iterations=1)
    assert scanned == NUM_EVENTS


def test_window_pushdown_beats_full_scan(tmp_path):
    """The sqlite timestamp index makes narrow windows cheap."""
    events = _events(NUM_EVENTS)
    log = EventLog(HYDRA_CODEC, SqliteBackend(tmp_path / "window.sqlite"))
    for event in events:
        log.append(event)
    log.flush()

    start = time.perf_counter()
    narrow = sum(1 for _ in log.window(100.0, 200.0))
    window_seconds = time.perf_counter() - start

    start = time.perf_counter()
    full = sum(1 for _ in log)
    scan_seconds = time.perf_counter() - start

    print(
        f"\n=== sqlite window pushdown ===\n"
        f"window scan ({narrow} rows): {window_seconds * 1000:.1f} ms\n"
        f"full scan   ({full} rows): {scan_seconds * 1000:.1f} ms"
    )
    assert narrow == 100
    assert full == NUM_EVENTS
    assert window_seconds < scan_seconds
