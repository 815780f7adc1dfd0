"""Ablation — Hydra proactive-lookup amplification on/off.

§5: Hydra-boosters proactively look up every cache-missed CID, which
amplifies download traffic and exposes a DoS vector ("asking a
Hydra-booster for non-existing content generates significant amounts of
traffic").  Disabling amplification collapses the Hydra download share.
"""

import dataclasses

import pytest

from repro.workload import WorkloadConfig
from repro.kademlia.messages import TrafficClass
from repro.scenario.config import ScenarioConfig
from repro.scenario.run import run_campaign
from repro.world.profiles import WorldProfile

from _bench_utils import show


def _mini_config(**workload_overrides) -> ScenarioConfig:
    workload = WorkloadConfig(**workload_overrides)
    return ScenarioConfig(
        profile=WorldProfile(online_servers=350, seed=77),
        days=2,
        warmup_days=0,
        daily_cid_sample=50,
        provider_fetch_days=0,
        gateway_probes_per_endpoint=2,
        workload=workload,
        seed=77,
    )


@pytest.fixture(scope="module")
def amplified():
    return run_campaign(_mini_config())


@pytest.fixture(scope="module")
def silenced():
    return run_campaign(_mini_config(hydra_amplification_walks=0.0))


def _hydra_download_share(campaign):
    shares = campaign.hydra_summary.platform_shares(
        campaign.world.rdns, campaign.hydra_peers, TrafficClass.DOWNLOAD
    )
    return shares.get("hydra", 0.0)


def test_ablation_hydra_amplification(benchmark, amplified, silenced):
    on_share, off_share = benchmark.pedantic(
        lambda: (_hydra_download_share(amplified), _hydra_download_share(silenced)),
        rounds=1,
        iterations=1,
    )
    on_total = len(amplified.hydra.log)
    off_total = len(silenced.hydra.log)
    show(
        "Ablation — Hydra amplification",
        [
            ("hydra download share (on)", on_share, 0.50),
            ("hydra download share (off)", off_share, 0.0),
            ("total captured messages (on)", float(on_total), float("nan")),
            ("total captured messages (off)", float(off_total), float("nan")),
        ],
    )
    # Amplification is what puts the Hydra fleet at the top of the
    # download traffic; without it the fleet goes quiet.
    assert on_share > 0.25
    assert off_share < 0.05
    # And it inflates total DHT traffic substantially (the DoS vector).
    assert on_total > 1.2 * off_total
