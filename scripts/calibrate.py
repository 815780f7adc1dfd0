"""Calibration harness: run a campaign and print the paper-fidelity scorecard.

The campaign is ``ScenarioConfig.bench()`` resized to ``servers`` and
``days``; the scorecard shows every bench row of
:mod:`repro.scenario.fidelity` with its measured value, bound and paper
value.

Usage: python scripts/calibrate.py [servers] [days]
"""

import dataclasses
import sys
import time

from repro import ScenarioConfig, run_campaign
from repro.scenario.fidelity import BENCH, render, score


def main() -> None:
    servers = int(sys.argv[1]) if len(sys.argv) > 1 else 1200
    days = int(sys.argv[2]) if len(sys.argv) > 2 else 6
    cfg = dataclasses.replace(
        ScenarioConfig.bench().scaled(servers),
        days=days,
        provider_fetch_days=min(days - 1, 5),
    )
    t0 = time.time()
    res = run_campaign(cfg)
    print(f"campaign: {time.time()-t0:.1f}s")
    t0 = time.time()
    scores = score(res, BENCH)
    print(f"report: {time.time()-t0:.1f}s\n")
    print(render(scores))
    misses = [entry.row.id for entry in scores if not entry.passed]
    print(f"\n{len(scores) - len(misses)}/{len(scores)} rows hold; misses: {misses or 'none'}")


if __name__ == "__main__":
    main()
