"""Campaign benchmark: whole measurement campaigns, timed phase by phase.

Run from the repository root::

    python3 benchmarks/campaign/run.py --workload traffic-600 --seed 7 --seconds 20
    python3 benchmarks/campaign/run.py --workload horizon-150 --trace 1
    python3 benchmarks/campaign/run.py              # every workload, one process each

For one workload the run repeats the campaign on three worlds derived
from ``--seed`` for about ``--seconds``, prints every metric by name with
its unit, and ends with one JSON line: the end-to-end metrics (in
reference-host seconds, the mean over the worlds of each world's
median), or with ``--trace 1`` the per-layer metrics, plus
``correct``/``attempted``/``failed``.  The traced run also writes
``<workload>.trace.json`` (Chrome trace events, loadable in Perfetto) and
``<workload>.layers.json`` to ``--out``.  The exit code is non-zero when
any correctness check fails.  Given several workloads (or none), each
runs in its own fresh subprocess, one after another.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"


def _parser(workload_names) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", nargs="*", choices=workload_names, default=[],
        help="workloads to run (default: all, each in its own subprocess)",
    )
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument(
        "--seconds", type=float, default=20.0,
        help="wall-time budget per workload (at least three campaigns run)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: per-layer run (wrapped entry points, trace files)",
    )
    parser.add_argument(
        "--out", type=Path, default=HERE / "out",
        help="directory for trace files and scratch SQLite stores",
    )
    return parser


def _run_each(args, workload_names) -> int:
    """Run every workload in a fresh interpreter, one after another."""
    status = 0
    for name in args.workload or workload_names:
        command = [
            sys.executable, str(Path(__file__)), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out", str(args.out),
        ]
        status = max(status, subprocess.run(command).returncode)
    return status


def _print_table(title: str, metrics, units) -> None:
    print(f"\n{title}")
    for name, value in metrics.items():
        print(f"  {name:<38} {value:>14.6g} {units(name)}")


def _report_layers(m, out: Path) -> None:
    """Print the per-layer view and write the trace files of a traced run."""
    import layers

    metrics = m.per_layer()
    recorder = m.traced[-1][1]
    functions = layers.function_table(recorder)
    meta = {"workload": m.workload, "seed": m.seed, "output_digest": m.output_digest}
    out.mkdir(parents=True, exist_ok=True)
    trace_path = out / f"{m.workload}.trace.json"
    layers_path = out / f"{m.workload}.layers.json"
    layers.write_chrome_trace(recorder, trace_path, meta)
    units = {name: layers.unit(name) for name in metrics}
    layers_path.write_text(
        json.dumps({**meta, "metrics": metrics, "units": units, "functions": functions}, indent=2)
        + "\n"
    )
    print("\nwrapped calls of the last traced campaign, by self time (wall seconds)")
    for row in functions:
        print(
            f"  {row['key']:<30} {row['calls']:>9} calls "
            f"{row['inclusive_s']:>10.4f} s incl {row['self_s']:>10.4f} s self"
        )
    _print_table(f"per-layer metrics (median of {len(m.traced)})", metrics, layers.unit)
    print(f"\nwrote {trace_path} and {layers_path}")


def main(argv=None) -> int:
    if not (SRC / "repro").is_dir():
        print(f"error: no repro sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    names = list(harness.WORKLOADS)
    args = _parser(names).parse_args(argv)
    if len(args.workload) != 1:
        return _run_each(args, names)

    workload = harness.WORKLOADS[args.workload[0]]
    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed}, budget {args.seconds:g} s, trace {args.trace}")
    m = harness.measure(workload, args.seed, args.seconds, bool(args.trace), args.out)

    for i, run in enumerate(m.campaigns, 1):
        kind = "traced" if i > len(m.untraced) else "untraced"
        wall = run.phases
        print(
            f"  campaign {i} ({kind}, world {run.seed}), wall: "
            f"setup {wall['setup'].wall_s:.3f} s, run {wall['campaign'].wall_s:.3f} s, "
            f"analysis {wall['analysis'].wall_s:.3f} s, {run.crawls} crawls, "
            f"host slowdown {run.slowdown:.3f}"
        )
    _print_table(
        f"end-to-end ({len(m.untraced)} untraced campaigns, reference-host seconds)",
        m.end_to_end(),
        harness.END_TO_END_UNITS.get,
    )
    wall = m.end_to_end(wall=True)
    print("  as measured: " + " ".join(f"{n}={wall[n]:.4f}" for n in wall if n.endswith("_s")))
    print(f"  {'crawl_fail_ratio':<38} {m.crawl_fail_ratio:>14.6g} ratio")
    print(f"  {'checks_failed':<38} {m.checks_failed:>14d} count")
    if args.trace:
        _report_layers(m, args.out)

    for world, digests in m.world_digests.items():
        print(f"world {world}: digest {' '.join(digests)}")
    print(f"output_digest {m.output_digest}")
    for i, run in enumerate(m.campaigns, 1):
        for check in run.failed_checks:
            print(f"CHECK FAILED (campaign {i}): {check}")
    if not m.deterministic:
        print("CHECK FAILED: campaigns of the same world gave different outputs")
    if m.cpu_over_wall < 0.9:
        print(
            f"warning: host.cpu_over_wall {m.cpu_over_wall:.2f}: "
            "other load on this host slowed the run",
            file=sys.stderr,
        )
    print(json.dumps(m.result(bool(args.trace))))
    return 0 if m.correct else 1


if __name__ == "__main__":
    if "PYTHONHASHSEED" not in os.environ:
        # The figures break ties between equal shares in string-set order,
        # which follows the per-process hash salt; a fixed salt keeps the
        # output digest (and dict layouts) the same from run to run.
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())
