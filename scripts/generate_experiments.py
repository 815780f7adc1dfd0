"""Regenerate EXPERIMENTS.md: paper-vs-measured for every table/figure.

Runs the two campaigns the paper-fidelity table is held to
(``ScenarioConfig.bench()`` and ``paper_horizon(700)``) and writes the
comparison document: each figure's rows of the table through its
renderer, plus the display-only numbers no row checks.  The sections
after the generated ones (from "## Parallel execution" on) are kept as
they are in the existing output file.

Usage: python scripts/generate_experiments.py [output]
"""

from __future__ import annotations

import os
import sys
import time

from repro.scenario.config import ScenarioConfig
from repro.scenario.fidelity import BENCH, HORIZON, evaluate, fmt, measure, render
from repro.scenario.run import run_campaign
from repro.world.profiles import PAPER

HAND_WRITTEN = "\n## Parallel execution"


def table(rows) -> str:
    lines = ["| metric | paper | measured |", "|---|---|---|"]
    for name, paper_value, measured in rows:
        lines.append(f"| {name} | {fmt(paper_value)} | {fmt(measured)} |")
    return "\n".join(lines)


def main() -> None:
    out_path = sys.argv[1] if len(sys.argv) > 1 else "EXPERIMENTS.md"
    t0 = time.time()
    bench = ScenarioConfig.bench()
    servers, days = bench.profile.online_servers, bench.days
    print("running bench-scale campaign...")
    campaign = run_campaign(bench)
    print(f"  done in {time.time()-t0:.0f}s; running paper-horizon campaign...")
    t1 = time.time()
    horizon = run_campaign(ScenarioConfig.paper_horizon(700))
    print(f"  done in {time.time()-t1:.0f}s; computing reports...")

    rep = measure(campaign)
    hrep = measure(horizon)
    scores = evaluate(rep, BENCH) + evaluate(hrep, HORIZON)

    def checks(*experiments: str) -> str:
        return render([s for s in scores if s.row.id.split(".")[0] in experiments])

    h3, h4, h5, h6, hs = hrep["fig3"], hrep["fig4"], hrep["fig5"], hrep["fig6"], hrep["crawl_stats"]
    p = PAPER

    cs, f3, f6, f7, s5 = rep["crawl_stats"], rep["fig3"], rep["fig6"], rep["fig7"], rep["sec5"]
    f9, f12, f13 = rep["fig9"], rep["fig12"], rep["fig13"]
    f14, f15, f16 = rep["fig14"], rep["fig15"], rep["fig16"]
    f1819, f20 = rep["fig18_19"], rep["fig20"]

    gip_series = [r for _, r in h4["G-IP"]]
    an_series = [r for _, r in h4["A-N"]]
    cid_days = f9["cid_days"]
    cid_total = sum(cid_days.values())
    ip_longevity = f9["ip_cloud_share_by_days"]
    longevity_days = sorted(ip_longevity)

    doc = f"""# EXPERIMENTS — paper vs. measured

Generated by `python scripts/generate_experiments.py`.

Two campaigns back the numbers below, matching the benchmark suite:

* **bench campaign** — {servers} online DHT servers, {days} measurement
  days (+1 warm-up), full traffic/provider/entry-point pipeline.
* **paper-horizon campaign** — 700 online servers, the paper's temporal
  design (38 days, 101 crawls), crawl-only.  Used for the figures whose
  values depend on how many crawls are aggregated (the G-IP columns).

The substrate is a simulator, not the authors' vantage points, so the
acceptance criterion is the paper's *shape*: orderings, majorities,
divergences and rough factors.  Systematic residuals are explained per
figure; the three recurring causes are **(scale)** — our identity universe
is ~17× smaller than the live network's, **(horizon)** — our traffic window
is days, the paper's is months, and **(TTL)** — our 24 h provider-record
expiry prunes offline co-providers more aggressively than reality between
our sampling instants.

The checked numbers are the rows of the paper-fidelity table
(`repro.scenario.fidelity`; row ids start with the experiment id, see
DESIGN.md §4 for the index).  Each row reads one number of one campaign,
compares it with its bound (`±tol` means within tol of the paper value)
and shows the paper value it stands for;
`PYTHONPATH=src python -m pytest benchmarks/bench_fidelity.py -s`
prints the same scorecard and fails on any miss.  The other tables hold
display-only numbers that no row checks.

## T1 — Table 1: counting-methodology worked example

Exact reproduction (unit-tested in `tests/test_counting.py`):
G-IP → DE=2, US=2; A-N → DE=0.5, US=1. ✓

## S3 — §3 crawl-dataset statistics (bench campaign)

{table([
    ("crawls", p.num_crawls, cs["num_crawls"]),
    ("discovered peers / crawl (scale-dependent)", p.avg_peers_per_crawl, cs["avg_discovered"]),
    ("IP turnover (paper @38d)", p.unique_ips / p.avg_peers_per_crawl, cs["ip_turnover"]),
])}

{checks("S3")}

At the paper horizon (38 days / 101 crawls): peer turnover {fmt(hs["peer_turnover"])},
IP turnover {fmt(hs["ip_turnover"])} — the turnover factors grow with
observation length exactly as the methodology section predicts.

## F3 — Fig. 3: cloud status, A-N vs G-IP

{table([
    ("A-N non-cloud", p.an_noncloud_share, f3["A-N"].get("non-cloud", 0.0)),
    ("A-N both", 1 - p.an_cloud_share - p.an_noncloud_share, f3["A-N"].get("both", 0.0)),
    ("G-IP cloud (paper horizon)", p.gip_cloud_share, h3["G-IP"].get("cloud", 0.0)),
    ("G-IP non-cloud (paper horizon)", p.gip_noncloud_share, h3["G-IP"].get("non-cloud", 0.0)),
])}

{checks("F3")}

The headline divergence reproduces: the same dataset reads ~4/5 cloud
under A-N and roughly half-and-half under unique-IP counting.  The
small residual G-IP gap is **(horizon/scale)**: the rotating fringe
population accumulating distinct IPs is proportionally thinner at 700
nodes than at 25 k.

## F4 — Fig. 4: ratio vs cumulative crawls (paper horizon)

{table([
    ("G-IP ratio @1 crawl", float("nan"), gip_series[0]),
    ("G-IP ratio @101 crawls", p.gip_cloud_share / p.gip_noncloud_share, gip_series[-1]),
    ("A-N ratio @1 crawl", float("nan"), an_series[0]),
    ("A-N ratio @101 crawls", p.an_cloud_share / p.an_noncloud_share, an_series[-1]),
])}

{checks("F4")}

Shape ✓: G-IP decays monotonically with every aggregated crawl
({fmt(gip_series[0])} → {fmt(gip_series[-1])}); A-N stays flat
({fmt(an_series[0])} → {fmt(an_series[-1])}).

## F5 — Fig. 5: nodes by cloud provider

{table([
    ("choopa share (G-IP, paper horizon)", p.gip_choopa_share, h5["gip_choopa"]),
])}

{checks("F5")}

Ranking ✓ (choopa > vultr > contabo > amazon-aws > digital-ocean …);
choopa's share shrinks under G-IP as the paper reports, though not all
the way to 0.138 **(horizon/scale)**.

## F6 — Fig. 6: nodes by origin country

{table([
    ("KR (A-N)", p.an_country_shares["KR"], f6["A-N"].get("KR", 0.0)),
    ("US (G-IP, horizon)", p.gip_country_shares["US"], h6["G-IP"].get("US", 0.0)),
    ("CN (G-IP, horizon)", p.gip_country_shares["CN"], h6["G-IP"].get("CN", 0.0)),
    ("DE (G-IP, horizon)", p.gip_country_shares["DE"], h6["G-IP"].get("DE", 0.0)),
    ("non-top-10 (G-IP, horizon)", p.gip_non_top10_share, h6["gip_non_top10"]),
])}

{checks("F6")}

Shape ✓ on both sides: US/DE/KR lead under A-N; under G-IP the US share
drops, CN multiplies (short-lived rotating IPs), and the long tail grows.

## F7 — Fig. 7: degree distribution (single crawl graph)

{table([
    ("out-degree mean (scale-dep.; paper band ~250-350)", float("nan"), f7["out_mean"]),
    ("in-degree p90 (paper <500 @25k nodes)", p.in_degree_p90_max, f7["in_p90"]),
])}

{checks("F7")}

Shape ✓: bucket-bounded out-degree band, skewed in-degree tail.  The
top-10 in-degree nodes are dominated by cloud-hosted infrastructure
(platform nodes / AWS), mirroring the paper's Filebase+AWS finding.

## F8 — Fig. 8: resilience to node removals

{checks("F8")}

Shape ✓: near-immune to random failure, partitioned by targeted removal.
The partition point lands later than the paper's ≈0.60 **(scale)**: at
{servers} nodes the k=20 mesh is relatively ~17× denser (degree/n), so
hub removal must dig deeper before the graph shatters.

Method: each curve is one removal order (uniform random draws, or
highest current degree first via a lazy max-heap) plus one reverse
union-find pass that adds the nodes back and tracks the largest
component, O((V+E)·α) per curve instead of O(V² + 100·(V+E)) for
per-step victim scans and a component scan at each of ~100 recorded
steps.  The curves are identical to the networkx implementation's
(`tests/test_resilience_parity.py`).

## S5 — §5 traffic headline (Hydra log)

{table([
    ("capture rate (per walk of ~50)", p.hydra_capture_rate, s5["capture_probability_per_message"] * 50),
])}

{checks("S5")}

The capture rate is higher than the paper's 4 % by construction: 20
virtual heads against {servers} (not 25 000) servers.  Shares are
unaffected (per-message sampling is class-blind).

## F9 — Fig. 9: identifier frequency (days seen)

{table([
    ("CIDs seen 1 day (share)", float("nan"), cid_days.get(1, 0) / cid_total),
    ("CIDs seen <=3 days (paper: 'vast majority')", 0.9, sum(v for d, v in cid_days.items() if d <= 3) / cid_total),
    ("cloud share of 1-day IPs", float("nan"), ip_longevity[longevity_days[0]]),
    ("cloud share of max-longevity IPs", float("nan"), ip_longevity[longevity_days[-1]]),
])}

{checks("F9")}

Shape ✓: single-day identifiers are the largest bucket for CIDs, IPs and
peer IDs, and the cloud share rises with IP longevity.  The ≤3-day mass
is diluted **(horizon)**: in a {days}-day window the persistent platform
sets compress into the few observable buckets, while in the paper's
~9-month window they spread far beyond day 3.

## F10 — Fig. 10: peer-ID Pareto

{checks("F10")}

Shape ✓: concentration far beyond 20/80 and the gateway asymmetry
(Bitswap-heavy, DHT-light).  The top-5 % share undershoots 0.97
**(scale)**: the paper's log contains millions of one-shot peer IDs whose
sheer count pushes the top percentile share up; ours contains thousands.

## F11 — Fig. 11: IP Pareto

{checks("F11")}

Shape ✓: cloud dominates DHT traffic while Bitswap is far more balanced
(the gap the paper explains via Hydra amplification, reproduced by the
ablation bench).

## F12 — Fig. 12: cloud per traffic type

{table([
    ("cloud share of IPs (download)", p.cloud_ip_count_download_share, f12["download_cloud_by_ip_count"]),
    ("cloud share of IPs (advertisement)", p.cloud_ip_count_advertisement_share, f12["advert_cloud_by_ip_count"]),
    ("cloud share of volume (download)", p.cloud_traffic_weighted_download_share, f12["download_cloud_by_volume"]),
])}

{checks("F12")}

Shape ✓ including the paper's surprise (cloud more present in download
IPs than advertisement IPs) and the count-vs-volume flip.

## F13 — Fig. 13: platforms behind the traffic (reverse DNS)

{table([
    ("web3.storage share of advertisements", float("nan"), f13["dht_advertisement"].get("web3-storage", 0.0)),
    ("nft.storage share of advertisements", float("nan"), f13["dht_advertisement"].get("nft-storage", 0.0)),
    ("ipfs-bank share of Bitswap (attributed leader)", float("nan"), f13["bitswap"].get("ipfs-bank", 0.0)),
])}

{checks("F13")}

Shape ✓ on all four panels: Hydra leads downloads and vanishes from
advertisements; web3.storage + nft.storage dominate advertisements;
ipfs-bank leads the attributed Bitswap share; unexplained AWS download
traffic is present (modelled as the `aws-mystery` resolver fleet).

## F14 — Fig. 14: provider classification

{table([
    ("non-cloud providers", p.provider_noncloud_share, f14["class_shares"].get("non-cloud", 0.0)),
])}

{checks("F14")}

Shape ✓: cloud largest, NAT-ed ≈ a third, hybrid marginal, relays mostly
cloud.  The non-cloud share undershoots **(TTL)**: residential-stable
providers whose last re-provide predates the sampling instant are pruned
by the 24 h record expiry; the relay cloud share correspondingly
overshoots (records surviving the check skew to stable relays).

## F15 — Fig. 15: provider popularity

{table([
    ("records from non-cloud peers", p.records_noncloud_share, f15["record_shares_by_class"].get("non-cloud", 0.0)),
])}

{checks("F15")}

Shape ✓: heavy concentration (top 1 % ≫ uniform), cloud majority of
record appearances, NAT-ed peers appearing in far fewer records than
their unique-peer share.  The top-1 % level is bounded **(scale)**: with
hundreds of unique providers the top percentile is 3-8 peers; the
paper's 90 % needs the live network's provider universe, where a handful
of storage-platform peer IDs blanket millions of CIDs.

## F16 — Fig. 16: per-CID cloud reliance

{table([
    ("cloud-only", p.cid_cloud_only, f16["cloud_only"]),
])}

{checks("F16")}

Shape ✓ on the reliance side; cloud-only overshoots **(TTL)** for the
same pruning reason as F14 (a CID whose only non-cloud co-provider is
momentarily offline counts as cloud-only at collection time).

## F17 — Fig. 17: DNSLink

{checks("F17")}

## F18/F19 — Figs. 18-19: gateway frontends vs overlay nodes

{table([
    ("frontends: Cloudflare share", float("nan"), f1819["frontend_provider_shares"].get("cloudflare", 0.0)),
    ("overlay: Cloudflare share", float("nan"), f1819["overlay_provider_shares"].get("cloudflare", 0.0)),
])}

{checks("S3g", "F18", "F19")}

Shape ✓: Cloudflare dominates both sides (its overlay connections are
reverse-proxied through its own space); US+DE majority; an NL bump on the
frontend side from the European passive-DNS vantage.  Overlay-ID
discovery is a coupon-collector process, so a probe budget finds most
but not all of the 119 pool nodes.

## F20 — Fig. 20: ENS-referenced content providers

{table([
    ("records with ipfs-ns contenthash (scaled)", p.ens_records_with_contenthash, f20["num_cids"]),
    ("resolution rate", p.ens_provider_records / p.ens_records_with_contenthash, f20["num_provider_records"] / max(f20["num_cids"], 1)),
])}

{checks("F20")}

## Ablations (DESIGN.md §5)

* **Counting vs rotation/churn** (`bench_ablation_counting.py`): with
  rotation off, G-IP = A-N = ground truth; sweeping rotation 0→0.9
  collapses the G-IP cloud share from 0.60 to <0.2 while A-N never moves.
* **Crawl timeout** (`bench_ablation_crawl_timeout.py`): completeness
  grows monotonically with the connection timeout, duration with it —
  the §3 design trade-off.
* **Directed vs undirected** (`bench_ablation_resilience_directed.py`):
  the undirected simplification upper-bounds connectivity; the directed
  SCC still spans the crawlable core.
* **Hydra amplification** (`bench_ablation_hydra_amplification.py`):
  switching proactive lookups off collapses the fleet's download share
  from ≳0.5 to ≈0 and removes a large fraction of total DHT traffic —
  the §5 DoS-vector finding.
"""
    if os.path.exists(out_path):
        with open(out_path) as handle:
            existing = handle.read()
        if HAND_WRITTEN in existing:
            doc = doc.rstrip("\n") + "\n" + existing[existing.index(HAND_WRITTEN):]
    with open(out_path, "w") as handle:
        handle.write(doc)
    print(f"wrote {out_path} ({len(doc)} bytes) in {time.time()-t0:.0f}s total")


if __name__ == "__main__":
    main()
