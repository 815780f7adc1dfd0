#!/usr/bin/env python
"""Throughput benchmark for the open-loop workload driver.

Measures request-generation throughput — **requests per wall-second** —
of the ``repro.workload`` session driver at 10 k, 100 k and 1 M modelled
users.  The driver is the piece that makes user count a pure intensity
knob: arrivals are one Poisson draw per tick and everything after that
is proportional to the *traffic*, never to the user population, so a
million-user workload costs exactly what its request volume costs.

The run is the same synthetic dry-run that backs ``repro workload
sample`` (no overlay, executions counted rather than simulated), so the
numbers isolate the sampling pipeline itself: session attribute draws,
Pareto trains, Zipf inverse-CDF lookups and heap scheduling.

Usage::

    PYTHONPATH=src python benchmarks/bench_workload.py                   # full run
    PYTHONPATH=src python benchmarks/bench_workload.py \
        --sizes 10000 --check BENCH_workload.json                        # CI gate
    PYTHONPATH=src python benchmarks/bench_workload.py \
        --sizes 1000000 --hours 1 --out ""                               # smoke

``--check`` compares hardware-normalized per-request costs against the
committed baseline and exits non-zero on a > ``--tolerance`` (default
3x) gross regression; only sizes present in both runs are compared.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional

if __package__ in (None, ""):
    _repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for entry in (os.path.join(_repo_root, "src"), os.path.dirname(os.path.abspath(__file__))):
        if entry not in sys.path:
            sys.path.insert(0, entry)

from _bench_utils import BenchReport, add_report_options, compare_to_baseline, report_path

from repro.workload import parse_workload_spec, sample_workload

SEED = 2023

#: modelled users -> simulated hours.  Hours shrink as users grow so
#: every size generates a comparable (and CI-affordable) event count;
#: throughput is per-request, so the ratio does not skew the metric.
DEFAULT_PLAN = ((10_000, 24), (100_000, 6), (1_000_000, 2))


def bench_size(report: BenchReport, users: int, hours: int) -> None:
    spec = parse_workload_spec(f"zipf:users={users}")
    print(f"\n--- {users:,} users, {hours} simulated hours ---")
    start = time.perf_counter()
    out = sample_workload(spec, seed=SEED, hours=hours)
    seconds = time.perf_counter() - start
    requests = out["stats"]["open_requests"]
    events = requests + out["stats"]["open_publishes"]
    report.record(f"openloop_sample_{users}", seconds, max(1, requests))
    print(
        f"  {requests:,} requests ({out['stats']['sessions']:,} sessions, "
        f"{out['distinct_cids']:,} distinct CIDs) "
        f"-> {requests / seconds:12,.0f} requests/s "
        f"({events / seconds:,.0f} events/s)"
    )
    shares = out["headline_shares"]
    print(
        f"  shares: missing={shares['missing_share']:.3f} "
        f"platform={shares['platform_share']:.3f} "
        f"top1%={shares['top1pct_request_share']:.3f}"
    )


def run(plan, out_path: Optional[str]) -> dict:
    report = BenchReport()
    print(f"calibration: {report.calibration:.4f}s")
    for users, hours in plan:
        bench_size(report, users, hours)
    if out_path:
        report.write(out_path)
    return report.payload()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes",
        default=",".join(str(users) for users, _ in DEFAULT_PLAN),
        help="comma-separated modelled user counts to benchmark",
    )
    parser.add_argument(
        "--hours", type=int, default=0,
        help="override simulated hours for every size (0 = per-size default)",
    )
    add_report_options(parser, "BENCH_workload.json")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=3.0,
        help="allowed growth factor of normalized cost before failing --check",
    )
    options = parser.parse_args(argv)
    out_path = report_path(parser, options, "BENCH_workload.json")

    default_hours = dict(DEFAULT_PLAN)
    plan = [
        (users, options.hours or default_hours.get(users, 2))
        for users in (int(token) for token in options.sizes.split(",") if token)
    ]
    current = run(plan, out_path or None)

    if options.check:
        with open(options.check) as handle:
            baseline = json.load(handle)
        regressions = compare_to_baseline(current, baseline, options.tolerance)
        if regressions:
            for name, before, after in regressions:
                print(
                    f"REGRESSION {name}: normalized cost {before:.2f} -> {after:.2f}",
                    file=sys.stderr,
                )
            return 1
        print(f"\nbaseline check OK (tolerance {options.tolerance:.1f}x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
