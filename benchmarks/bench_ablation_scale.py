"""Ablation — scale invariance of the share-level results.

DESIGN.md claims the reported quantities are shares and approximately
scale-invariant, which is what lets the bench campaigns run at a
fraction of the paper's 25.8 k servers.  Verify it: the A-N cloud share
and the top-provider ranking barely move across a 4× size sweep.
"""

from repro.scenario import report as R
from repro.scenario.config import ScenarioConfig
from repro.scenario.run import run_campaign
from repro.world.profiles import PAPER, WorldProfile

from _bench_utils import show

# n=300 is deliberately excluded: the real-world-fixed infrastructure
# (119 gateway nodes + platform fleets) is a third of such a tiny network
# and visibly dilutes the provider shares — the bias vanishes by n≈600.
SIZES = (600, 1200, 2400)


def _crawl_only(servers: int):
    return run_campaign(
        ScenarioConfig(
            profile=WorldProfile(online_servers=servers),
            days=3,
            traffic_enabled=False,
            daily_cid_sample=0,
            provider_fetch_days=0,
            gateway_probes_per_endpoint=2,
        )
    )


def test_ablation_scale_invariance(benchmark):
    def sweep():
        results = {}
        for servers in SIZES:
            campaign = _crawl_only(servers)
            f3 = R.fig3_report(campaign)
            f5 = R.fig5_report(campaign)
            results[servers] = {
                "cloud": f3["A-N"].get("cloud", 0.0),
                "choopa": f5["an_choopa"],
                "top3": f5["an_top3_share"],
            }
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = []
    for servers in SIZES:
        rows.append((f"A-N cloud share @ n={servers}", results[servers]["cloud"], PAPER.an_cloud_share))
        rows.append((f"choopa share @ n={servers}", results[servers]["choopa"], PAPER.an_choopa_share))
    show("Ablation — scale invariance (crawl-only campaigns)", rows)
    cloud_shares = [results[s]["cloud"] for s in SIZES]
    choopa_shares = [results[s]["choopa"] for s in SIZES]
    assert max(cloud_shares) - min(cloud_shares) < 0.06
    assert max(choopa_shares) - min(choopa_shares) < 0.06
    for servers in SIZES:
        assert results[servers]["top3"] > 0.42
