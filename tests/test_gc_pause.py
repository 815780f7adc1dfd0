"""The cyclic collector is paused while a campaign builds and runs.

``MeasurementCampaign.build()``, ``.run()`` and ``full_report`` switch
the collector off and, on exit, move their survivors into the oldest
generation.  That is
only free while a campaign leaves no cyclic garbage behind, so the matrix
below runs small campaigns with the collector off throughout and asserts
that an explicit collection finds nothing after each phase.  The other
tests pin the collector state a campaign hands back to its caller.
"""

from __future__ import annotations

import gc
from collections import Counter
from dataclasses import replace

import pytest

from repro.scenario.config import ScenarioConfig
from repro.scenario.report import full_report
from repro.scenario.run import MeasurementCampaign


def _small(**overrides) -> ScenarioConfig:
    base = replace(ScenarioConfig.smoke().scaled(150), days=1, provider_fetch_days=1)
    return replace(base, **overrides)


@pytest.fixture()
def collector_state():
    """Restore the collector's enabled flag and freeze set afterwards."""
    enabled = gc.isenabled()
    frozen = gc.get_freeze_count()
    yield
    if not frozen:
        gc.unfreeze()
    (gc.enable if enabled else gc.disable)()


def _cyclic_garbage() -> Counter:
    """Collect, and count what was unreachable by type (then free it)."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        found = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.collect()
    return found


@pytest.mark.parametrize(
    "case",
    ["plain", "sqlite", "open-loop", "attacks-detect", "workers-2", "all-sinks"],
)
def test_campaign_leaves_no_cyclic_garbage(case, tmp_path, attack_config_factory, collector_state):
    config = {
        "plain": lambda: _small(),
        "sqlite": lambda: _small(storage=f"sqlite:{tmp_path}"),
        "open-loop": lambda: _small(workload_spec="zipf:users=2e3"),
        "attacks-detect": lambda: attack_config_factory(servers=150),
        "workers-2": lambda: _small(workers=2),
        "all-sinks": lambda: _small(metrics=True, trace=True, stream=True),
    }[case]()
    # Off throughout, so no automatic pass can hide garbage a phase left.
    gc.disable()
    gc.collect()
    campaign = MeasurementCampaign(config)
    campaign.build()
    assert _cyclic_garbage() == Counter(), "build"
    result = campaign.run()
    assert _cyclic_garbage() == Counter(), "run"
    full_report(result)
    assert _cyclic_garbage() == Counter(), "full_report"


def _stub_phases(monkeypatch, seen, fail=False):
    """Replace the campaign's work with stubs that note the collector's
    state in ``seen``; ``run`` raises when ``fail`` is set."""

    def build(self):
        seen.append(("build", gc.isenabled()))
        self._built = True

    def run(self):
        seen.append(("run", gc.isenabled()))
        if fail:
            raise RuntimeError("boom")
        return "result"

    monkeypatch.setattr(MeasurementCampaign, "_build", build)
    monkeypatch.setattr(MeasurementCampaign, "_run", run)
    monkeypatch.setattr(MeasurementCampaign, "_export", lambda self, result: None)


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("separate_build", [True, False])
def test_collector_state_is_restored(enabled, separate_build, monkeypatch, collector_state):
    seen = []
    _stub_phases(monkeypatch, seen)
    (gc.enable if enabled else gc.disable)()
    campaign = MeasurementCampaign(_small())
    if separate_build:
        campaign.build()
        assert gc.isenabled() is enabled
    assert campaign.run() == "result"
    assert gc.isenabled() is enabled
    assert gc.get_freeze_count() == 0
    # A nested build() must not switch the collector back on inside run().
    assert seen == [("build", False), ("run", False)]


def test_collector_state_is_restored_when_run_raises(monkeypatch, collector_state):
    _stub_phases(monkeypatch, [], fail=True)
    gc.enable()
    with pytest.raises(RuntimeError, match="boom"):
        MeasurementCampaign(_small()).run()
    assert gc.isenabled()
    assert gc.get_freeze_count() == 0


def test_caller_frozen_objects_stay_frozen(monkeypatch, collector_state):
    _stub_phases(monkeypatch, [])
    gc.enable()
    gc.freeze()
    frozen = gc.get_freeze_count()
    assert frozen > 0
    campaign = MeasurementCampaign(_small())
    campaign.build()
    campaign.run()
    assert gc.get_freeze_count() == frozen
    assert gc.isenabled()


def test_no_automatic_collection_inside_a_campaign(collector_state):
    passes = []

    def count(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    gc.enable()
    gc.collect()
    campaign = MeasurementCampaign(_small())
    gc.callbacks.append(count)
    try:
        campaign.build()
        result = campaign.run()
        full_report(result)
        young = gc.get_count()[0]
    finally:
        gc.callbacks.remove(count)
    assert passes == []
    # The survivors went to the oldest generation on the way out.
    assert young < 50
