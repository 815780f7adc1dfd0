#!/usr/bin/env python3
"""The §4 topology study: degrees and attack tolerance.

Crawls the simulated DHT, reconstructs the overlay graph and reproduces
the Fig. 7 degree analysis and the Fig. 8 node-removal experiment
(random vs targeted), including the paper's 10-repetition confidence
interval protocol.

Run: python examples/resilience_study.py [online_servers]
"""

import random
import sys

from repro.core import resilience, topology
from repro.core.crawler import DHTCrawler
from repro.netsim.churn import ChurnProcess
from repro.netsim.network import Overlay
from repro.viz import cdf_chart, line_chart
from repro.world.population import build_world
from repro.world.profiles import WorldProfile


def main() -> None:
    servers = int(sys.argv[1]) if len(sys.argv) > 1 else 800
    print(f"bootstrapping an overlay with {servers} online DHT servers...")
    world = build_world(WorldProfile(online_servers=servers))
    overlay = Overlay(world)
    overlay.bootstrap()
    overlay.schedule_periodic_refresh()
    ChurnProcess(overlay).start()
    overlay.scheduler.run_until(86400.0)  # one day of churn for realism

    print("crawling the DHT (crafted FIND_NODE bucket sweeps)...")
    snapshot = DHTCrawler(overlay).crawl(0)
    print(
        f"discovered {snapshot.num_discovered} peers, "
        f"{snapshot.num_crawlable} crawlable, "
        f"crawl duration {snapshot.duration:.0f}s (simulated)"
    )

    print("\n-- Fig. 7: degree distributions --")
    outs = list(topology.out_degrees(snapshot).values())
    ins = list(topology.estimated_in_degrees(snapshot).values())
    print(cdf_chart(outs, "out-degree CDF (narrow, bucket-bounded band):"))
    print()
    print(cdf_chart(ins, "estimated in-degree CDF (skewed tail):"))
    summary = topology.degree_summary(snapshot)
    print(
        f"\nout-degree band [{summary['out_p10']:.0f}, {summary['out_p90']:.0f}], "
        f"in-degree median {summary['in_median']:.0f}, "
        f"p90 {summary['in_p90']:.0f}, max {summary['in_max']:.0f}"
    )

    print("\n-- Fig. 8: resilience to node removals --")
    adjacency = topology.undirected_adjacency(snapshot)
    fractions, means, halfwidths = resilience.random_removal_with_ci(
        adjacency, repetitions=10, rng=random.Random(0)
    )
    targeted = resilience.targeted_removal(adjacency)
    print(
        line_chart(
            list(zip(fractions, means)),
            "random removal: LCC share of remaining nodes (10-run mean):",
            x_label="fraction removed",
            y_label="LCC share",
        )
    )
    print()
    print(
        line_chart(
            list(zip(targeted.removed_fraction, targeted.lcc_share)),
            "targeted (highest-degree-first) removal:",
            x_label="fraction removed",
            y_label="LCC share",
        )
    )
    random_trace = resilience.RemovalTrace(list(fractions), list(means))
    print(
        f"\nrandom removal: {random_trace.share_at(0.9):.0%} of remaining nodes still "
        f"connected after 90% removed (paper: 96%)"
    )
    print(
        f"targeted removal: complete partition after removing "
        f"{targeted.partition_point():.0%} of nodes (paper: ~60%)"
    )
    print(f"95% CI half-width stays below {max(h for f, h in zip(fractions, halfwidths) if f <= 0.9):.3f}")


if __name__ == "__main__":
    main()
