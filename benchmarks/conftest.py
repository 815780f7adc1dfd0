"""Shared campaigns for the benchmarks.

Two expensive artifacts are built once per session:

* ``campaign`` — the full multi-modal campaign (traffic, crawls, provider
  fetches, entry-point measurements) at bench scale,
* ``horizon_campaign`` — a crawl-only campaign with the paper's temporal
  design (38 days, 101 crawls) for the counting-methodology figures,
  whose G-IP numbers are horizon-dependent.

``bench_fidelity.py`` holds both to the paper-fidelity table
(:mod:`repro.scenario.fidelity`).
"""

from __future__ import annotations

import pytest

from repro.scenario.config import ScenarioConfig
from repro.scenario.run import run_campaign


@pytest.fixture(scope="session")
def campaign():
    return run_campaign(ScenarioConfig.bench())


@pytest.fixture(scope="session")
def horizon_campaign():
    return run_campaign(ScenarioConfig.paper_horizon(700))
