"""Shared fixtures.

The expensive artifacts (a bootstrapped overlay, a full smoke campaign)
are session-scoped: they are built once and shared read-only across the
integration tests that consume them.
"""

from __future__ import annotations

import random

import pytest

from repro.netsim.churn import ChurnProcess
from repro.netsim.network import Overlay
from repro.scenario.config import ScenarioConfig
from repro.scenario.run import run_campaign
from repro.world.population import build_world
from repro.world.profiles import WorldProfile


@pytest.fixture()
def rng():
    return random.Random(1234)


@pytest.fixture(scope="session")
def small_world():
    """A small but fully structured world (≈300 online servers)."""
    return build_world(WorldProfile(online_servers=300, seed=7))


@pytest.fixture(scope="session")
def small_overlay(small_world):
    """A bootstrapped overlay over the small world; treat as read-only."""
    overlay = Overlay(small_world)
    overlay.bootstrap()
    return overlay


@pytest.fixture(scope="session")
def churned_overlay():
    """An overlay advanced through three days of churn (own world so the
    read-only ``small_overlay`` stays untouched)."""
    world = build_world(WorldProfile(online_servers=300, seed=11))
    overlay = Overlay(world)
    overlay.bootstrap()
    overlay.schedule_periodic_refresh()
    churn = ChurnProcess(overlay)
    churn.start()
    overlay.scheduler.run_until(3 * 86400.0)
    return overlay


@pytest.fixture(scope="session")
def smoke_campaign():
    """A complete end-to-end campaign at smoke scale (built once)."""
    return run_campaign(ScenarioConfig.smoke())


@pytest.fixture(scope="session")
def horizon_campaign():
    """The paper's temporal design (38 days, 101 crawls, crawl-only) at
    150 servers (built once)."""
    return run_campaign(ScenarioConfig.paper_horizon(150))


def _attack_scenario_config(
    servers: int = 250,
    workers: int = 1,
    storage: str = "memory",
    attacks=None,
) -> ScenarioConfig:
    """A small campaign with adversarial scenarios injected (defaults to
    all five packaged attacks, detectors on) — the shared base for the
    attack/detect integration tests."""
    from repro.attack import (
        BitswapFloodConfig,
        ChurnBombConfig,
        HydraAmplificationConfig,
        ProviderSpamConfig,
        SybilEclipseConfig,
    )

    if attacks is None:
        attacks = (
            SybilEclipseConfig(),
            ProviderSpamConfig(),
            BitswapFloodConfig(),
            HydraAmplificationConfig(),
            ChurnBombConfig(),
        )
    return ScenarioConfig(
        profile=WorldProfile(online_servers=servers, seed=99),
        days=2,
        warmup_days=0,
        daily_cid_sample=40,
        provider_fetch_days=1,
        gateway_probes_per_endpoint=2,
        seed=99,
        workers=workers,
        storage=storage,
        attacks=tuple(attacks),
        detect=True,
    )


@pytest.fixture(scope="session")
def attack_config_factory():
    """Build attack-campaign configs (for determinism/parity variants)."""
    return _attack_scenario_config


@pytest.fixture(scope="session")
def attack_campaign():
    """All five attacks over a two-day campaign, detectors scored."""
    return run_campaign(_attack_scenario_config())
