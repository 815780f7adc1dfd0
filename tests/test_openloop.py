"""The open-loop workload engine: samplers, parity, default-off pins.

Three layers of guarantees, mirroring the PR 7 discipline:

* **property layer** — every sampler (Zipf inverse-CDF, Pareto
  sessions/trains, diurnal curve) is pinned to a brute-force reference
  under Hypothesis-generated inputs;
* **parity layer** — an open-loop campaign is bit-identical between
  runs and at any worker count;
* **regression layer** — the open-loop machinery is off by default: a
  default campaign builds no driver and produces the exact same logs as
  one with ``workload_spec="closed"`` spelled out (the golden-figure
  pins in ``test_golden_figures.py`` then anchor that default to the
  paper's numbers).
"""

from __future__ import annotations

import bisect
import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.scenario.config import ScenarioConfig
from repro.scenario.run import run_campaign
from repro.workload import (
    ZipfPopularity,
    diurnal_factor,
    duration_scale,
    pareto_duration,
    parse_workload_spec,
    rank_by_weight,
    sample_workload,
    train_size,
)
from repro.world.profiles import WorldProfile

OPENLOOP_SPEC = "zipf:users=1500,arrivals_per_user_hour=0.02"


def openloop_config(**overrides) -> ScenarioConfig:
    base = ScenarioConfig(
        profile=WorldProfile(online_servers=150, seed=77),
        days=1,
        warmup_days=0,
        daily_cid_sample=40,
        provider_fetch_days=1,
        gateway_probes_per_endpoint=2,
        seed=77,
        workload_spec=OPENLOOP_SPEC,
    )
    return dataclasses.replace(base, **overrides)


def log_fingerprint(result):
    """Everything a workload change could perturb, bit for bit."""
    return (
        list(result.hydra.log),
        list(result.bitswap_monitor.log),
        [
            (snapshot.crawl_id, snapshot.requests_sent, snapshot.edges)
            for snapshot in result.crawls.snapshots
        ],
    )


# ----------------------------------------------------------------------
# property layer
# ----------------------------------------------------------------------


class TestZipfPopularity:
    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=200),
        s=st.floats(min_value=0.2, max_value=1.6),
        u=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_sample_matches_linear_scan(self, n, s, u):
        pop = ZipfPopularity(list(range(n)), s)
        target = u * pop.total_weight
        expected = next(
            (i for i, cum in enumerate(pop._cumulative) if cum >= target), n - 1
        )
        assert pop.sample(u) == min(expected, n - 1)

    def test_empty_catalog_returns_none(self):
        pop = ZipfPopularity([], 1.0)
        assert pop.sample(0.5) is None
        assert pop.top_share(0.01) == 0.0

    def test_skew_increases_with_exponent(self):
        flat = ZipfPopularity(list(range(1000)), 0.3)
        steep = ZipfPopularity(list(range(1000)), 1.3)
        assert steep.top_share(0.01) > flat.top_share(0.01)

    def test_rank_by_weight_orders_heaviest_first_stably(self):
        @dataclasses.dataclass
        class Item:
            weight: float
            tag: int

        items = [Item(1.0, 0), Item(3.0, 1), Item(1.0, 2), Item(2.0, 3)]
        ranked = rank_by_weight(items)
        assert [item.tag for item in ranked] == [1, 3, 0, 2]


class TestSessionSamplers:
    @settings(max_examples=100, deadline=None)
    @given(
        u=st.floats(min_value=1e-9, max_value=1.0),
        scale=st.floats(min_value=1.0, max_value=600.0),
        alpha=st.floats(min_value=1.05, max_value=4.0),
    )
    def test_pareto_is_exact_inverse_cdf(self, u, scale, alpha):
        cap = 1e12
        value = pareto_duration(u, scale, alpha, cap)
        assert value == min(scale * u ** (-1.0 / alpha), cap)
        assert value >= scale * 0.999999

    def test_pareto_u_zero_hits_cap(self):
        assert pareto_duration(0.0, 10.0, 1.5, 777.0) == 777.0

    @settings(max_examples=50, deadline=None)
    @given(
        mean=st.floats(min_value=60.0, max_value=3600.0),
        alpha=st.floats(min_value=1.1, max_value=3.0),
    )
    def test_duration_scale_recovers_mean(self, mean, alpha):
        """Empirical mean of capped Pareto draws approaches the requested
        mean (the cap bites the far tail only)."""
        scale = duration_scale(mean, alpha)
        assert scale == pytest.approx(mean * (alpha - 1.0) / alpha)
        assert 0.0 < scale < mean

    def test_duration_scale_rejects_infinite_mean(self):
        with pytest.raises(ValueError, match="exceed 1"):
            duration_scale(100.0, 1.0)

    @settings(max_examples=100, deadline=None)
    @given(
        u=st.floats(min_value=0.0, max_value=1.0),
        mean=st.floats(min_value=1.0, max_value=50.0),
        alpha=st.floats(min_value=1.1, max_value=3.0),
        cap=st.integers(min_value=1, max_value=512),
    )
    def test_train_size_bounds(self, u, mean, alpha, cap):
        size = train_size(u, mean, alpha, cap)
        assert 1 <= size <= cap
        assert isinstance(size, int)

    def test_train_empirical_mean_tracks_request(self):
        rng = random.Random(42)
        draws = [train_size(rng.random(), 6.0, 1.4, 512) for _ in range(20000)]
        assert sum(draws) / len(draws) == pytest.approx(6.0, rel=0.35)


class TestDiurnal:
    @settings(max_examples=50, deadline=None)
    @given(
        amplitude=st.floats(min_value=0.0, max_value=0.95),
        peak=st.floats(min_value=0.0, max_value=24.0),
    )
    def test_daily_mean_is_one(self, amplitude, peak):
        steps = 4800
        mean = sum(
            diurnal_factor(24.0 * i / steps, amplitude, peak) for i in range(steps)
        ) / steps
        assert mean == pytest.approx(1.0, abs=1e-9)

    def test_zero_amplitude_is_flat(self):
        assert diurnal_factor(3.0, 0.0, 20.0) == 1.0

    def test_peak_and_trough(self):
        assert diurnal_factor(20.0, 0.5, 20.0) == pytest.approx(1.5)
        assert diurnal_factor(8.0, 0.5, 20.0) == pytest.approx(0.5)

    def test_period_is_24_hours(self):
        assert diurnal_factor(3.0, 0.4, 20.0) == pytest.approx(
            diurnal_factor(27.0, 0.4, 20.0)
        )


# ----------------------------------------------------------------------
# standalone sampler (shapes, no overlay)
# ----------------------------------------------------------------------


class TestSampleWorkload:
    def test_shares_match_spec_targets(self):
        spec = parse_workload_spec("zipf:users=20000")
        out = sample_workload(spec, seed=7, hours=24)
        shares = out["headline_shares"]
        assert shares["missing_share"] == pytest.approx(spec.missing_prob, abs=0.02)
        assert shares["platform_share"] == pytest.approx(
            (1 - spec.missing_prob) * spec.platform_share, abs=0.04
        )
        assert shares["gateway_share"] == pytest.approx(0.55, abs=0.05)
        assert shares["top1pct_request_share"] > 0.15  # Zipf head dominance

    def test_diurnal_shapes_hourly_volume(self):
        spec = parse_workload_spec(
            "zipf:users=40000,diurnal=true,diurnal_amplitude=0.8,peak_hour=20"
        )
        out = sample_workload(spec, seed=3, hours=24)
        hourly = out["requests_per_hour"]
        peak_window = sum(hourly[18:23])
        trough_window = sum(hourly[4:9])
        assert peak_window > 1.5 * trough_window

    def test_burst_sessions_accepted(self):
        out = sample_workload(
            parse_workload_spec("zipf:users=5000,sessions=burst,diurnal=false"),
            seed=5,
            hours=6,
        )
        assert out["stats"]["open_requests"] > 0

    def test_deterministic_per_seed(self):
        spec = parse_workload_spec("zipf:users=3000")
        assert sample_workload(spec, seed=11, hours=6) == sample_workload(
            spec, seed=11, hours=6
        )


# ----------------------------------------------------------------------
# parity + regression layers (full campaigns)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def openloop_campaign():
    return run_campaign(openloop_config(metrics=True))


class TestOpenLoopCampaign:
    def test_driver_generated_traffic(self, openloop_campaign):
        # The campaign result does not expose the engine; the gauges do.
        gauges = openloop_campaign.metrics["gauges"]
        assert gauges["workload.sessions"] > 0
        assert gauges["workload.open_requests"] > 0
        assert gauges["workload.zipf_draws_platform"] > 0
        assert gauges["workload.platform_share"] > 0.3
        assert 0.0 <= gauges["workload.top1pct_request_share"] <= 1.0
        assert any(
            name.startswith("workload.requests_class.") for name in gauges
        )
        # Closed-loop engine counters still exported alongside.
        assert gauges["workload.downloads"] >= gauges["workload.open_requests"]

    def test_run_twice_determinism(self, openloop_campaign):
        again = run_campaign(openloop_config(metrics=True))
        assert log_fingerprint(openloop_campaign) == log_fingerprint(again)
        from repro.obs import deterministic_view

        first = {
            k: v
            for k, v in deterministic_view(openloop_campaign.metrics).items()
            if not k.startswith("exec.")
        }
        second = {
            k: v
            for k, v in deterministic_view(again.metrics).items()
            if not k.startswith("exec.")
        }
        assert first == second

    def test_workers_parity(self, openloop_campaign):
        parallel = run_campaign(
            openloop_config(metrics=True, workers=4)
        )
        assert log_fingerprint(openloop_campaign) == log_fingerprint(parallel)


class TestClosedDefaultRegression:
    """Open-loop machinery must be invisible until asked for."""

    def test_default_spec_is_closed(self):
        assert ScenarioConfig().workload_spec == "closed"

    def test_default_matches_explicit_closed(self):
        default = run_campaign(openloop_config(workload_spec="closed"))
        explicit = run_campaign(
            openloop_config(workload_spec="legacy")  # alias normalizes to closed
        )
        assert log_fingerprint(default) == log_fingerprint(explicit)

    def test_closed_campaign_builds_no_driver(self):
        from repro.scenario.run import MeasurementCampaign

        campaign = MeasurementCampaign(openloop_config(workload_spec="closed"))
        campaign.build()
        assert campaign.engine.open_loop is None

    def test_closed_engine_stats_keys_unchanged(self):
        """The golden gauge namespace: closed-loop campaigns must export
        exactly the historical engine counters."""
        from repro.scenario.run import MeasurementCampaign

        campaign = MeasurementCampaign(openloop_config(workload_spec="closed"))
        campaign.build()
        assert set(campaign.engine.stats) == {
            "downloads",
            "publishes",
            "bitswap_hits",
            "dht_walks",
            "amplified_walks",
        }
