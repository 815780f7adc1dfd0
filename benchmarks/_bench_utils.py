"""Formatting and measurement helpers for the benchmarks.

Besides the measured-vs-paper table used by the ablation benchmarks, this
module provides the machinery of the perf-regression harness
(``bench_core_hotpaths.py``): best-of-N timing, a hardware calibration
loop, a machine-readable JSON writer and a baseline comparator.

Hardware normalization: absolute seconds are useless across machines, so
every timing is also recorded as a multiple of ``calibrate()`` — the time
a fixed pure-Python workload takes on the same interpreter and host.
Regression checks compare *normalized* costs, making a committed baseline
portable between a laptop and a CI runner.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple


def show(title: str, rows) -> None:
    """Print a measured-vs-paper comparison table."""
    print(f"\n=== {title} ===")
    width = max(len(name) for name, _, _ in rows)
    print(f"{'metric'.ljust(width)}  measured    paper")
    for name, measured, paper in rows:
        measured_text = f"{measured:8.3f}" if isinstance(measured, float) else f"{measured!s:>8}"
        paper_text = f"{paper:8.3f}" if isinstance(paper, float) else f"{paper!s:>8}"
        print(f"{name.ljust(width)}  {measured_text}  {paper_text}")


def calibrate(loops: int = 300_000) -> float:
    """Seconds for a fixed pure-Python workload on this host.

    The workload mixes integer arithmetic, dict access and list building —
    the operation mix the hot paths exercise — so dividing a benchmark's
    wall time by this yields a hardware-independent cost unit.
    """
    best = float("inf")
    for _ in range(3):
        table = {}
        start = time.perf_counter()
        accumulator = 0
        for index in range(loops):
            accumulator ^= index * 2654435761 % 1048576
            table[index & 1023] = accumulator
        values = sorted(table.values())
        accumulator += values[0]
        best = min(best, time.perf_counter() - start)
    return best


def best_of(fn: Callable[[], object], repeat: int = 3) -> float:
    """Best wall-clock seconds of ``repeat`` runs of ``fn``."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


class BenchReport:
    """Collects benchmark results and writes the machine-readable JSON."""

    def __init__(self) -> None:
        self.calibration = calibrate()
        self.benchmarks: Dict[str, Dict[str, float]] = {}
        self.speedups: Dict[str, float] = {}

    def record(self, name: str, seconds: float, calls: int = 1) -> None:
        self.benchmarks[name] = {
            "seconds": seconds,
            "normalized": seconds / self.calibration,
            "per_call_us": seconds / calls * 1e6,
        }
        print(
            f"{name:<28} {seconds:8.4f}s  "
            f"{seconds / calls * 1e6:10.1f} us/call  "
            f"{seconds / self.calibration:8.2f}x cal"
        )

    def record_speedup(self, name: str, reference_seconds: float, seconds: float) -> None:
        speedup = reference_seconds / seconds if seconds > 0 else float("inf")
        self.speedups[name] = speedup
        print(f"{name:<28} speedup vs reference: {speedup:6.2f}x")

    def payload(self) -> dict:
        return {
            "schema": 1,
            "python": sys.version.split()[0],
            "calibration_seconds": self.calibration,
            "benchmarks": self.benchmarks,
            "speedups": self.speedups,
        }

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.payload(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nwrote {path}")


def add_report_options(parser: argparse.ArgumentParser, default_out: str) -> None:
    """The ``--out`` / ``--check`` pair every regression harness takes."""
    parser.add_argument(
        "--out",
        help=f"where to write the machine-readable report (default {default_out}; "
        "a --check run writes one only when --out is given)",
    )
    parser.add_argument(
        "--check",
        metavar="BASELINE_JSON",
        help="compare against a committed baseline; exit 1 on gross regression",
    )


def report_path(
    parser: argparse.ArgumentParser, options: argparse.Namespace, default_out: str
) -> Optional[str]:
    """Where this run writes its report, if anywhere.

    A ``--check`` run never writes the baseline it reads: without
    ``--out`` it writes no report, and an ``--out`` naming the
    ``--check`` file exits 2 (``parser.error``) before anything is timed.
    """
    if options.check is None:
        return default_out if options.out is None else options.out
    if options.out and os.path.realpath(options.out) == os.path.realpath(options.check):
        parser.error(f"--out {options.out} would overwrite the --check baseline it reads")
    return options.out


def compare_to_baseline(
    current: dict, baseline: dict, tolerance: float = 3.0
) -> List[Tuple[str, float, float]]:
    """Regressions of ``current`` vs ``baseline``: entries whose normalized
    cost grew by more than ``tolerance``x (gross regressions only — both
    runs normalize to their own host's calibration, so ordinary noise and
    hardware differences cancel out)."""
    regressions = []
    for name, entry in baseline.get("benchmarks", {}).items():
        now = current.get("benchmarks", {}).get(name)
        if now is None:
            continue
        before_cost = entry["normalized"]
        after_cost = now["normalized"]
        if before_cost > 0 and after_cost / before_cost > tolerance:
            regressions.append((name, before_cost, after_cost))
    return regressions
