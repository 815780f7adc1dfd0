"""Report-module units beyond the full-bundle integration test."""

import pytest

from repro.scenario import report as R


class TestSnapshotSelection:
    def test_fig7_respects_snapshot_index(self, smoke_campaign):
        last = R.fig7_report(smoke_campaign, snapshot_index=-1)
        first = R.fig7_report(smoke_campaign, snapshot_index=0)
        assert set(last) == set(first)
        # Different snapshots generally differ somewhere.
        assert last != first or len(smoke_campaign.crawls) == 1

    def test_fig8_repetitions_control_ci_arrays(self, smoke_campaign):
        f8 = R.fig8_report(smoke_campaign, repetitions=2)
        assert len(f8["random_ci95"]) == len(f8["random_mean_lcc"])


class TestShareConsistency:
    def test_fig3_methodology_shares_each_sum_to_one(self, smoke_campaign):
        f3 = R.fig3_report(smoke_campaign)
        for method in ("A-N", "G-IP", "G-N"):
            assert sum(f3[method].values()) == pytest.approx(1.0)

    def test_fig5_an_shares_sum_to_one(self, smoke_campaign):
        f5 = R.fig5_report(smoke_campaign)
        assert sum(f5["A-N"].values()) == pytest.approx(1.0)
        assert 0 <= f5["an_top3_share"] <= 1

    def test_fig12_shares_bounded(self, smoke_campaign):
        f12 = R.fig12_report(smoke_campaign)
        for key, value in f12.items():
            if isinstance(value, float):
                assert 0.0 <= value <= 1.0, key

    def test_fig13_each_panel_sums_to_one(self, smoke_campaign):
        f13 = R.fig13_report(smoke_campaign)
        for panel in ("dht_all", "dht_download", "dht_advertisement", "bitswap"):
            assert sum(f13[panel].values()) == pytest.approx(1.0)

    def test_fig14_shares_sum_to_one(self, smoke_campaign):
        f14 = R.fig14_report(smoke_campaign)
        assert sum(f14["class_shares"].values()) == pytest.approx(1.0)
        if f14["relay_provider_shares"]:
            assert sum(f14["relay_provider_shares"].values()) == pytest.approx(1.0)

    def test_fig17_provider_shares_sum_to_one(self, smoke_campaign):
        f17 = R.fig17_report(smoke_campaign)
        assert sum(f17["provider_shares"].values()) == pytest.approx(1.0)

    def test_fig18_19_shares_sum_to_one(self, smoke_campaign):
        f18 = R.fig18_19_report(smoke_campaign)
        for key in (
            "frontend_provider_shares",
            "overlay_provider_shares",
            "frontend_country_shares",
            "overlay_country_shares",
        ):
            assert sum(f18[key].values()) == pytest.approx(1.0)

    def test_sec5_class_shares_sum_to_one(self, smoke_campaign):
        s5 = R.sec5_report(smoke_campaign)
        assert s5["download_share"] + s5["advertisement_share"] + s5["other_share"] == pytest.approx(1.0)


class TestTop:
    def test_ties_rank_by_label_in_any_insertion_order(self):
        shares = {"IN": 0.2, "US": 0.4, "CN": 0.2, "DE": 0.1}
        reordered = dict(reversed(list(shares.items())))
        expected = [("US", 0.4), ("CN", 0.2), ("IN", 0.2), ("DE", 0.1)]
        assert R._top(shares) == R._top(reordered) == expected
