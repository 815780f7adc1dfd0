"""Golden pins for the headline numbers of the reproduction.

A fixed-seed smoke campaign must keep reproducing the paper's headline
findings (cloud dominance of the DHT, Pareto-concentrated provider
records, cloud-heavy provider classes).  The pins carry tolerances wide
enough to absorb intentional model tweaks but tight enough that a logic
regression — a broken crawl, a mis-merged shard, a seed leak between
parallel workers — moves a number out of band.

If a deliberate change shifts these values, re-derive them by running
``ScenarioConfig.smoke()`` and update the pins in the same commit.
"""

import pytest

from repro.scenario import report


@pytest.fixture(scope="module")
def figures(smoke_campaign):
    return {
        "crawl_stats": report.crawl_stats_report(smoke_campaign),
        "fig3": report.fig3_report(smoke_campaign),
        "fig14": report.fig14_report(smoke_campaign),
        "fig15": report.fig15_report(smoke_campaign),
        "fig16": report.fig16_report(smoke_campaign),
    }


class TestCrawlGoldens:
    def test_crawl_scale(self, figures):
        stats = figures["crawl_stats"]
        assert stats["num_crawls"] == 8.0
        assert stats["avg_discovered"] == pytest.approx(577.1, rel=0.10)
        assert stats["crawlable_fraction"] == pytest.approx(0.736, abs=0.08)
        assert stats["unique_peer_ids"] == pytest.approx(732, rel=0.10)


class TestCloudShareGoldens:
    """Fig. 3: the cloud share of the DHT under each counting method."""

    def test_an_cloud_share(self, figures):
        assert figures["fig3"]["A-N"]["cloud"] == pytest.approx(0.821, abs=0.05)

    def test_gip_cloud_share(self, figures):
        assert figures["fig3"]["G-IP"]["cloud"] == pytest.approx(0.718, abs=0.05)

    def test_methodology_ordering(self, figures):
        """The paper's core methodological point survives: counting
        announced nodes (A-N) overstates cloud presence relative to
        counting genuine addresses (G-IP / G-N)."""
        fig3 = figures["fig3"]
        assert fig3["A-N"]["cloud"] > fig3["G-IP"]["cloud"] > 0.5
        assert fig3["A-N"]["cloud"] > fig3["G-N"]["cloud"]

    def test_gip_has_no_both_bucket(self, figures):
        assert "both" not in figures["fig3"]["G-IP"]


class TestProviderGoldens:
    """Figs. 14-16: who actually serves content."""

    def test_provider_class_breakdown(self, figures):
        shares = figures["fig14"]["class_shares"]
        assert shares["cloud"] == pytest.approx(0.537, abs=0.08)
        assert shares["nat-ed"] == pytest.approx(0.317, abs=0.08)
        assert shares["cloud"] > shares["nat-ed"] > shares["non-cloud"]

    def test_relays_are_cloud_hosted(self, figures):
        assert figures["fig14"]["relay_cloud_share"] == pytest.approx(0.90, abs=0.08)

    def test_pareto_top1pct_record_share(self, figures):
        """Fig. 15: the top 1 % of providers hold a grossly outsized
        share of provider records."""
        top1 = figures["fig15"]["top1pct_record_share"]
        assert top1 == pytest.approx(0.243, abs=0.06)
        assert top1 > 0.10  # 1 % of providers, >10 % of records

    def test_cid_cloud_reliance(self, figures):
        fig16 = figures["fig16"]
        assert fig16["at_least_one_cloud"] == pytest.approx(0.977, abs=0.04)
        assert fig16["cloud_only"] == pytest.approx(0.606, abs=0.08)


class TestTrafficGoldens:
    def test_traffic_class_shares(self, smoke_campaign):
        shares = smoke_campaign.hydra_summary.class_shares
        assert shares["advertisement"] == pytest.approx(0.448, abs=0.06)
        assert shares["download"] == pytest.approx(0.498, abs=0.06)
        assert sum(shares.values()) == pytest.approx(1.0)
