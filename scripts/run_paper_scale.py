"""Run the full paper-scale campaign (≈25.8 k servers, 38 days, 101 crawls).

This is the heavyweight reproduction: expect hours of CPU and multiple
gigabytes of RAM.  The bench scale (``ScenarioConfig.bench()``, held to
the paper-fidelity table by benchmarks/bench_fidelity.py) reproduces
every share-level result in minutes; run this only to verify absolute
counts at the paper's dimensions.  The run ends with the scorecard of
every row of the table (both campaigns' rows, since this one campaign
has the traffic and the 101 crawls).

``--workers N`` fans the 101 DHT crawls out over N worker processes
(see repro.exec); the datasets are bit-identical at any worker count.

Usage: python scripts/run_paper_scale.py [output_dir] [--workers N]
"""

import argparse
import dataclasses
import time
from pathlib import Path

from repro.core.datasets import export_campaign
from repro.scenario.config import ScenarioConfig
from repro.scenario.fidelity import BENCH, HORIZON, render, score
from repro.scenario.run import run_campaign
from repro.scenario.report import full_report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "output_dir", nargs="?", default="paper_scale_output", type=Path
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the crawl phase (same results at any count)",
    )
    args = parser.parse_args()

    config = ScenarioConfig.paper_scale()
    if args.workers > 1:
        config = dataclasses.replace(config, workers=args.workers)
    print(
        f"paper-scale campaign: {config.profile.online_servers} online servers, "
        f"{config.days} days, {config.num_crawls} crawls, "
        f"{config.daily_cid_sample} CIDs sampled per day, "
        f"{config.workers} crawl worker(s)"
    )
    started = time.time()
    result = run_campaign(config)
    print(f"campaign finished in {(time.time() - started) / 3600:.1f} h")
    for error in result.exec_errors:
        print(f"warning: {error}")

    report = full_report(result, resilience_reps=10)
    out_dir = args.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    import json

    def default(value):
        return str(value)

    with open(out_dir / "full_report.json", "w") as handle:
        json.dump(report, handle, default=default, indent=2)
    counts = export_campaign(result, out_dir / "datasets")
    print(f"report and datasets written to {out_dir}: {counts}")
    print(render(score(result, BENCH, HORIZON)))


if __name__ == "__main__":
    main()
