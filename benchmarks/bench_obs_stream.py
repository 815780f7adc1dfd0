#!/usr/bin/env python
"""Throughput and overhead harness for streaming analytics
(``repro.obs.stream``).

Three layers, mirroring ``bench_obs_overhead.py``:

* **sketch primitive** — raw update throughput of the KLL-quantile
  sketch, the one sketch the stream still updates.
* **hook dispatch** — the monitor hook (``observe_hydra`` /
  ``observe_bitswap``) replayed over a real campaign's logs, in both
  states: the null path (streaming off, one global read + no-op call)
  and the live path (the rate window and the per-CID count updating).
  The live number is the headline **events/s**.
* **end-to-end campaigns** — the same campaign with streaming off and
  on.  The ratio is the overhead budget: streaming-on must stay within
  ``--budget`` (default 1.10x) of streaming-off, enforced whenever
  ``--check`` runs (the CI ``stream-smoke`` job).

Usage::

    PYTHONPATH=src python benchmarks/bench_obs_stream.py               # run, write JSON
    PYTHONPATH=src python benchmarks/bench_obs_stream.py \
        --check BENCH_obs_stream.json                                  # CI regression gate
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

from repro.obs import observer as obs
from repro.obs.observer import Observer, use_observer
from repro.obs.sketch import QuantileSketch
from repro.obs.stream import StreamAnalytics
from repro.scenario.config import ScenarioConfig
from repro.scenario.run import run_campaign
from repro.world.profiles import WorldProfile

#: Campaign shape for the log replay and the end-to-end overhead pair.
SERVERS = 150
SEED = 77


def bench_config(stream: bool) -> ScenarioConfig:
    return ScenarioConfig(
        profile=WorldProfile(online_servers=SERVERS, seed=SEED),
        days=1,
        warmup_days=0,
        daily_cid_sample=40,
        provider_fetch_days=1,
        gateway_probes_per_endpoint=2,
        seed=SEED,
        stream=stream,
    )


def bench_sketch_primitives(report: BenchReport, updates: int = 200_000) -> None:
    """Raw per-update cost of the quantile sketch (synthetic values)."""
    rng = random.Random(13)
    values = [rng.paretovariate(1.2) for _ in range(updates)]

    def quantile():
        sketch = QuantileSketch(256)
        for value in values:
            sketch.update(value)

    report.record("quantile_update", best_of(quantile), updates)


def bench_hook_dispatch(report: BenchReport, result) -> float:
    """The monitor hooks replayed over a real campaign's logs.

    Returns live hydra events/s (the dashboard's headline rate)."""
    envelopes = list(result.hydra.log)
    broadcasts = [(e.timestamp, e.sender, e.cid) for e in result.bitswap_monitor.log]

    def replay_hydra():
        for envelope in envelopes:
            obs.observe_hydra(envelope)

    def replay_bitswap():
        for timestamp, node, cid in broadcasts:
            obs.observe_bitswap(timestamp, node, cid, True)

    def live_analytics() -> Observer:
        return Observer(
            stream=StreamAnalytics(
                21_600.0,
                hydra=result.hydra_summary,
                bitswap=result.bitswap_summary,
                provider_of=result.world.cloud_db.lookup,
                gateway_peers=lambda: result.gateway_peers,
            )
        )

    # Null path: streaming off (the default), every hook must stay a
    # global read plus a no-op call.
    null_seconds = best_of(replay_hydra)
    report.record("observe_hydra_null", null_seconds, len(envelopes))
    report.record("observe_bitswap_null", best_of(replay_bitswap), len(broadcasts))

    def streamed_hydra():
        with use_observer(live_analytics()):
            replay_hydra()

    def streamed_bitswap():
        with use_observer(live_analytics()):
            replay_bitswap()

    live_seconds = best_of(streamed_hydra)
    report.record("observe_hydra_streaming", live_seconds, len(envelopes))
    report.record("observe_bitswap_streaming", best_of(streamed_bitswap), len(broadcasts))
    report.record_speedup("observe_hydra_null_vs_streaming", live_seconds, null_seconds)

    events_per_second = len(envelopes) / live_seconds if live_seconds else 0.0
    print(f"{'live_hydra_events_per_s':<28} {events_per_second:14,.0f} ev/s")
    return events_per_second


def bench_campaign_overhead(report: BenchReport, repeat: int = 9) -> float:
    """End-to-end: the same campaign with streaming off and on.

    Single-run campaign times swing by ±8% on shared hosts, and taking
    each side's best independently pairs a lucky off-run with unlucky
    on-runs (or vice versa).  Instead the runs are interleaved in
    off/on pairs — so load drift hits both sides of a pair — and the
    budget ratio is the *median* of the per-pair ratios, which a single
    noisy pair cannot move.  Which side runs first alternates from pair
    to pair, so a warm-up or cool-down effect on the second run of a
    pair does not bias the ratio.  Per-pair ratios span 0.97–1.44 on a
    shared 2-core host, where the median of 5 pairs read 1.20x on
    unchanged code; hence 9 pairs.  Returns that ratio."""
    ratios = []
    off_seconds = float("inf")
    on_seconds = float("inf")
    for pair in range(repeat):
        if pair % 2:
            on = best_of(lambda: run_campaign(bench_config(stream=True)), repeat=1)
            off = best_of(lambda: run_campaign(bench_config(stream=False)), repeat=1)
        else:
            off = best_of(lambda: run_campaign(bench_config(stream=False)), repeat=1)
            on = best_of(lambda: run_campaign(bench_config(stream=True)), repeat=1)
        ratios.append(on / off if off else float("inf"))
        off_seconds = min(off_seconds, off)
        on_seconds = min(on_seconds, on)
    report.record("campaign_streaming_off", off_seconds)
    report.record("campaign_streaming_on", on_seconds)
    ratios.sort()
    ratio = ratios[len(ratios) // 2]
    report.speedups["campaign_on_over_off_ratio"] = ratio
    print(
        f"{'campaign_on_over_off_ratio':<28} {ratio:6.3f}x median of "
        f"{', '.join(f'{r:.3f}' for r in ratios)} (budget gate)"
    )
    return ratio


def run(out_path: Optional[str]) -> dict:
    report = BenchReport()
    print(f"calibration: {report.calibration:.4f}s\n")

    bench_sketch_primitives(report)

    print(f"\nrunning fixture campaign ({SERVERS} servers, seed {SEED})...")
    fixture = run_campaign(bench_config(stream=False))
    print(
        f"fixture ready: {len(fixture.hydra.log)} hydra events, "
        f"{len(fixture.bitswap_monitor.log)} bitswap events\n"
    )

    bench_hook_dispatch(report, fixture)
    print()
    bench_campaign_overhead(report)

    if out_path:
        report.write(out_path)
    return report.payload()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_report_options(parser, "BENCH_obs_stream.json")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=3.0,
        help="allowed growth factor of normalized cost before failing --check",
    )
    parser.add_argument(
        "--budget",
        type=float,
        default=1.10,
        help="max allowed streaming-on/off campaign wall-clock ratio in --check mode",
    )
    options = parser.parse_args(argv)
    out_path = report_path(parser, options, "BENCH_obs_stream.json")

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
        ratio = current["speedups"]["campaign_on_over_off_ratio"]
        if ratio > options.budget:
            print(
                f"\nOVERHEAD BUDGET EXCEEDED: streaming-on campaign is "
                f"{ratio:.3f}x the off campaign (budget {options.budget:.2f}x)"
            )
            return 1
        print(
            f"\nperf check OK (tolerance {options.tolerance:.1f}x, overhead "
            f"{ratio:.3f}x within {options.budget:.2f}x budget, "
            f"{len(baseline.get('benchmarks', {}))} baseline entries)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
