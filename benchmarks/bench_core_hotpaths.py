#!/usr/bin/env python
"""Perf-regression harness for the simulation-core hot paths.

Times the operations that dominate campaign wall-clock — relay selection,
iterative lookup walks, oracle closest-k queries, network-wide refresh
passes and a miniature end-to-end campaign — and writes a
machine-readable report (``BENCH_core_hotpaths.json``) with
hardware-normalized costs (see :mod:`_bench_utils`).

For the paths with an obvious naive implementation (relay selection,
lookup walk, closest-k) the script also runs an in-process *reference*
implementation — the O(N)-scan / full-re-sort code the indexed versions
replaced — asserts result equality, and reports the speedup.  Speedups
are ratios of two timings on the same host, so they are directly
comparable across machines.

Usage::

    PYTHONPATH=src python benchmarks/bench_core_hotpaths.py            # run, write JSON
    PYTHONPATH=src python benchmarks/bench_core_hotpaths.py \
        --check BENCH_core_hotpaths.json                               # CI regression gate

``--check`` exits non-zero only when a benchmark's normalized cost grew
by more than ``--tolerance`` (default 3x) over the committed baseline —
a gross-regression gate, deliberately insensitive to runner noise.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from typing import Dict, List, Optional, Sequence, Set

if __package__ in (None, ""):
    _repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for entry in (os.path.join(_repo_root, "src"), os.path.dirname(os.path.abspath(__file__))):
        if entry not in sys.path:
            sys.path.insert(0, entry)

from _bench_utils import (
    BenchReport,
    add_report_options,
    best_of,
    compare_to_baseline,
    report_path,
)

from repro.ids.peerid import PeerID
from repro.kademlia.lookup import iterative_find_node
from repro.netsim.network import Overlay
from repro.scenario.config import ScenarioConfig
from repro.scenario.run import run_campaign
from repro.world.population import build_world
from repro.world.profiles import WorldProfile

#: Overlay size for the microbenchmarks (servers online at bootstrap).
MICRO_SERVERS = 600
MICRO_SEED = 5

#: Tiny but complete campaign for the end-to-end tick-loop benchmark.
E2E_SERVERS = 150
E2E_SEED = 77


# ---------------------------------------------------------------------------
# reference implementations (the code the indexed hot paths replaced)
# ---------------------------------------------------------------------------


def reference_pick_relay(overlay: Overlay, exclude=None):
    """The O(N) relay scan: filter the whole online registry per call."""
    servers = [
        node
        for node in overlay.online_by_peer.values()
        if node.is_dht_server and node is not exclude and overlay._is_relay_capable(node)
    ]
    if not servers:
        return None
    return overlay.rng.choice(servers)


def reference_oracle_closest(overlay: Overlay, target: int, count: int) -> List[PeerID]:
    """Brute force: full XOR sort over every online server."""
    peers = overlay.oracle.peers()
    peers.sort(key=lambda peer: peer.dht_key ^ target)
    return peers[:count]


class ReferenceWalk:
    """The pre-index ``_Walk``: full re-sort of the known pool per round
    (peers are DHT keys, as in the live walk)."""

    def __init__(self, target_key: int, start: Sequence[int], k: int, alpha: int) -> None:
        self.target_key = target_key
        self.k = k
        self.alpha = alpha
        self.known: Dict[int, None] = {}
        self.queried: Set[int] = set()
        self.failed: Set[int] = set()
        self.contacted: List[int] = []
        self.messages = 0
        for key in start:
            self.known.setdefault(key, None)

    def candidates(self) -> List[int]:
        pool = [key for key in self.known if key not in self.failed]
        pool.sort(key=lambda key: key ^ self.target_key)
        return pool

    def next_batch(self) -> List[int]:
        frontier = [key for key in self.candidates()[: self.k] if key not in self.queried]
        return frontier[: self.alpha]

    def absorb(self, closer_peers: Sequence[int]) -> None:
        for key in closer_peers:
            self.known.setdefault(key, None)

    def closest_live(self) -> List[int]:
        live = [key for key in self.candidates() if key in self.queried]
        return live[: self.k]


def reference_find_node_query(overlay: Overlay, timeout: float = 180.0):
    """The pre-index FIND_NODE handler: full XOR sort of the whole
    routing table per query (today's handler reads the answer off the
    k-buckets, cutting only the band that overflows; see
    ``RoutingTable.closest_keys_unsorted``)."""
    by_key = {node.peer.dht_key: node.peer for node in overlay.online_servers()}

    def query(key, target_key):
        peer = by_key.get(key)
        node = overlay.dial(peer, timeout) if peer is not None else None
        if node is None:
            return None
        table = node.routing_table
        if table is None:
            return []
        keys = sorted(table.keys(), key=lambda k: k ^ target_key)
        return keys[: overlay.k]

    return query


def reference_find_node(target_key, start, query, k=20, alpha=3, max_queries=500):
    walk = ReferenceWalk(target_key, start, k, alpha)
    while walk.messages < max_queries:
        batch = walk.next_batch()
        if not batch:
            break
        for key in batch:
            if walk.messages >= max_queries:
                break
            walk.queried.add(key)
            walk.messages += 1
            response = query(key, target_key)
            if response is None:
                walk.failed.add(key)
                continue
            walk.contacted.append(key)
            walk.absorb(response)
    return walk


# ---------------------------------------------------------------------------
# benchmark stages
# ---------------------------------------------------------------------------


def build_micro_overlay() -> Overlay:
    world = build_world(WorldProfile(online_servers=MICRO_SERVERS, seed=MICRO_SEED))
    overlay = Overlay(world)
    overlay.bootstrap()
    return overlay


def bench_relay_selection(report: BenchReport, overlay: Overlay, calls: int = 2000) -> None:
    overlay.pick_relay()  # drain capability sampling outside the timed region

    # Result equality: same RNG state in, same relay out.
    state = overlay.rng.getstate()
    picked_new = overlay.pick_relay()
    overlay.rng.setstate(state)
    picked_reference = reference_pick_relay(overlay)
    assert picked_new is picked_reference, "indexed pick_relay diverged from the scan"
    overlay.rng.setstate(state)

    seconds = best_of(lambda: [overlay.pick_relay() for _ in range(calls)])
    reference_seconds = best_of(
        lambda: [reference_pick_relay(overlay) for _ in range(calls)]
    )
    report.record("relay_selection", seconds, calls)
    report.record("relay_selection_reference", reference_seconds, calls)
    report.record_speedup("relay_selection", reference_seconds, seconds)


def bench_lookup_walk(report: BenchReport, overlay: Overlay, walks: int = 300) -> None:
    rng = random.Random(99)
    servers = overlay.online_servers()
    query = overlay.find_node_query()
    reference_query = reference_find_node_query(overlay)
    jobs = []
    for _ in range(walks):
        origin = rng.choice(servers)
        target = rng.getrandbits(256)
        start = origin.routing_table.closest_keys(target, overlay.k)
        jobs.append((target, start))

    # Result equality on a sample of walks (queries are read-only and
    # RNG-free; the reference stack returns bit-identical responses, so
    # the two walks must trace identical paths).
    for target, start in jobs[:50]:
        new = iterative_find_node(target, start, query, k=overlay.k)
        old = reference_find_node(target, start, reference_query, k=overlay.k)
        assert new.closest == old.closest_live(), "frontier walk diverged from the full-sort walk"
        assert new.contacted == old.contacted and new.messages == old.messages

    # New stack (frontier walk + indexed FIND_NODE handlers) vs the
    # pre-index stack (full-sort walk + full-sort handlers).
    seconds = best_of(
        lambda: [iterative_find_node(t, s, query, k=overlay.k) for t, s in jobs]
    )
    reference_seconds = best_of(
        lambda: [reference_find_node(t, s, reference_query, k=overlay.k) for t, s in jobs]
    )
    report.record("lookup_walk", seconds, walks)
    report.record("lookup_walk_reference", reference_seconds, walks)
    report.record_speedup("lookup_walk", reference_seconds, seconds)


def bench_oracle_closest(report: BenchReport, overlay: Overlay, calls: int = 2000) -> None:
    rng = random.Random(123)
    targets = [rng.getrandbits(256) for _ in range(calls)]
    for target in targets[:100]:
        assert overlay.oracle.closest(target, overlay.k) == reference_oracle_closest(
            overlay, target, overlay.k
        ), "aligned-range closest diverged from brute force"
    seconds = best_of(
        lambda: [overlay.oracle.closest(t, overlay.k) for t in targets]
    )
    reference_seconds = best_of(
        lambda: [reference_oracle_closest(overlay, t, overlay.k) for t in targets]
    )
    report.record("oracle_closest", seconds, calls)
    report.record("oracle_closest_reference", reference_seconds, calls)
    report.record_speedup("oracle_closest", reference_seconds, seconds)


def bench_refresh_passes(report: BenchReport, overlay: Overlay, passes: int = 5) -> None:
    # Quiesce: after two passes with no churn, most under-full buckets
    # hold a no-op certificate and no table holds a stale entry, so the
    # quiescent passes exercise the certified-bucket skips; the reference
    # passes visit every bucket and scan every table.
    overlay.refresh_all()
    overlay.refresh_all()

    def quiescent_passes():
        for _ in range(passes):
            overlay.refresh_all()

    seconds = best_of(quiescent_passes)
    overlay.refresh_skip_enabled = False
    reference_seconds = best_of(quiescent_passes)
    overlay.refresh_skip_enabled = True

    report.record("refresh_all_quiescent", seconds, passes)
    report.record("refresh_all_no_skip", reference_seconds, passes)
    report.record_speedup("refresh_all_quiescent", reference_seconds, seconds)


def bench_end_to_end(report: BenchReport) -> None:
    config = ScenarioConfig(
        profile=WorldProfile(online_servers=E2E_SERVERS, seed=E2E_SEED),
        days=1,
        daily_cid_sample=50,
        provider_fetch_days=1,
    )
    start = time.perf_counter()
    run_campaign(config)
    seconds = time.perf_counter() - start
    report.record("campaign_tick_loop", seconds)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def run(out_path: Optional[str]) -> dict:
    report = BenchReport()
    print(f"calibration: {report.calibration:.4f}s\n")

    print("building micro overlay "
          f"({MICRO_SERVERS} target servers, seed {MICRO_SEED})...")
    overlay = build_micro_overlay()
    print(f"overlay ready: {len(overlay.online_servers())} online servers\n")

    bench_relay_selection(report, overlay)
    bench_lookup_walk(report, overlay)
    bench_oracle_closest(report, overlay)
    bench_refresh_passes(report, overlay)
    bench_end_to_end(report)

    if out_path:
        report.write(out_path)
    return report.payload()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_report_options(parser, "BENCH_core_hotpaths.json")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=3.0,
        help="allowed growth factor of normalized cost before failing --check",
    )
    options = parser.parse_args(argv)
    out_path = report_path(parser, options, "BENCH_core_hotpaths.json")

    current = run(out_path)

    if options.check:
        with open(options.check) as handle:
            baseline = json.load(handle)
        regressions = compare_to_baseline(current, baseline, options.tolerance)
        if regressions:
            print(f"\nPERF REGRESSION (> {options.tolerance:.1f}x normalized cost):")
            for name, before, after in regressions:
                print(f"  {name}: {before:.2f}x cal -> {after:.2f}x cal")
            return 1
        print(f"\nperf check OK (tolerance {options.tolerance:.1f}x, "
              f"{len(baseline.get('benchmarks', {}))} baseline entries)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
