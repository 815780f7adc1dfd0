#!/usr/bin/env python
"""Overhead harness for the tracing layer (``repro.obs.trace``).

Measures what tracing costs at each class of instrumentation site, in
both states that matter:

* **null path** (tracing off, the default) — the observer hooks hit
  :data:`~repro.obs.observer.NULL_OBSERVER`, whose tracer is the shared
  null tracer, so every site must stay in no-op territory; this is what
  keeps tracing-off campaigns inside the perf-smoke budget.
* **tracing on** — an observer with a collecting
  :class:`~repro.obs.trace.Tracer` and its ring buffer; the interesting
  number is the slowdown factor per site (span pairs, guarded instants)
  and end-to-end (lookup walks, crawl tasks).

Usage::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py             # run, write JSON
    PYTHONPATH=src python benchmarks/bench_obs_overhead.py \
        --check BENCH_obs_overhead.json                                # CI regression gate

``--check`` compares hardware-normalized costs against the committed
baseline and exits non-zero on a gross (default 3x) regression — same
contract as ``bench_core_hotpaths.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from typing import List, Optional

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

from repro.core.crawler import DHTCrawler, collect_crawl, execute_crawl_task
from repro.kademlia.lookup import iterative_find_node
from repro.netsim.network import Overlay
from repro.obs import observer as obs
from repro.obs.observer import Observer, use_observer
from repro.obs.trace import Tracer
from repro.world.population import build_world
from repro.world.profiles import WorldProfile

#: Overlay size for the walk/crawl measurements.
SERVERS = 400
SEED = 7


def traced(**tracer_args) -> Observer:
    return Observer(tracer=Tracer(origin="bench", **tracer_args))


def build_overlay() -> Overlay:
    world = build_world(WorldProfile(online_servers=SERVERS, seed=SEED))
    overlay = Overlay(world)
    overlay.bootstrap()
    return overlay


def bench_instrumentation_sites(report: BenchReport, calls: int = 100_000) -> None:
    """The per-site primitives, null versus collecting.

    ``guarded_instant_null`` is the exact pattern the hot paths use
    (``if get_tracer().enabled:`` before building the attrs dict): with
    tracing off it must cost no more than a global read and an attribute
    check per event.
    """

    def guarded_instants():
        for index in range(calls):
            if obs.get_tracer().enabled:
                obs.trace_event("bench.instant", index=index)

    def span_pairs():
        for _ in range(calls):
            with obs.trace_span("bench.span"):
                pass

    report.record("guarded_instant_null", best_of(guarded_instants), calls)
    null_span_seconds = best_of(span_pairs)
    report.record("span_pair_null", null_span_seconds, calls)

    # Collecting tracer: ring buffer bounded far below `calls` so steady
    # state includes eviction (the worst case, not the warm-up).
    with use_observer(traced(capacity=8192)):
        report.record("guarded_instant_traced", best_of(guarded_instants), calls)
        traced_span_seconds = best_of(span_pairs)
        report.record("span_pair_traced", traced_span_seconds, calls)
    report.record_speedup("span_pair_null_vs_traced", traced_span_seconds, null_span_seconds)

    with use_observer(traced(capacity=8192, sample=16)):
        report.record("span_pair_sampled_1_in_16", best_of(span_pairs), calls)


def bench_lookup_walks(report: BenchReport, overlay: Overlay, walks: int = 200) -> None:
    """End-to-end lookup walks, the chattiest traced code path."""
    rng = random.Random(42)
    servers = overlay.online_servers()
    query = overlay.find_node_query()
    jobs = []
    for _ in range(walks):
        origin = rng.choice(servers)
        target = rng.getrandbits(256)
        start = origin.routing_table.closest_keys(target, overlay.k)
        jobs.append((target, start))

    def run_walks():
        for target, start in jobs:
            iterative_find_node(target, start, query, k=overlay.k)

    off_seconds = best_of(run_walks)
    report.record("lookup_walk_off", off_seconds, walks)
    with use_observer(traced(capacity=1 << 18)):
        on_seconds = best_of(run_walks)
    report.record("lookup_walk_traced", on_seconds, walks)
    report.record_speedup("lookup_walk_off_vs_traced", on_seconds, off_seconds)


def bench_crawl_tasks(report: BenchReport, overlay: Overlay, crawls: int = 2) -> None:
    """Whole crawl tasks: the plain pure function versus the collector
    with per-task tracer + registry (the workers' configuration)."""
    crawler = DHTCrawler(overlay)
    tasks = [crawler.task(crawl_id) for crawl_id in range(crawls)]

    off_seconds = best_of(lambda: [execute_crawl_task(task) for task in tasks])
    report.record("crawl_task_off", off_seconds, crawls)
    traced_seconds = best_of(
        lambda: [
            collect_crawl(task, metrics=True, trace=True, trace_capacity=1 << 18)
            for task in tasks
        ]
    )
    report.record("crawl_task_traced", traced_seconds, crawls)
    report.record_speedup("crawl_task_off_vs_traced", traced_seconds, off_seconds)


def run(out_path: Optional[str]) -> dict:
    report = BenchReport()
    print(f"calibration: {report.calibration:.4f}s\n")

    bench_instrumentation_sites(report)

    print(f"\nbuilding overlay ({SERVERS} target servers, seed {SEED})...")
    overlay = build_overlay()
    print(f"overlay ready: {len(overlay.online_servers())} online servers\n")

    bench_lookup_walks(report, overlay)
    bench_crawl_tasks(report, overlay)

    if out_path:
        report.write(out_path)
    return report.payload()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_report_options(parser, "BENCH_obs_overhead.json")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=3.0,
        help="allowed growth factor of normalized cost before failing --check",
    )
    options = parser.parse_args(argv)
    out_path = report_path(parser, options, "BENCH_obs_overhead.json")

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
