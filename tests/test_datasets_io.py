"""Dataset export/import round-trips."""

import random

import pytest

from repro.core import datasets
from repro.core.counting import CountingMethod, counts
from repro.core.crawler import CrawlDataset, DHTCrawler
from repro.core.traffic import summarize
from repro.ids.cid import CID
from repro.ids.peerid import PeerID


@pytest.fixture(scope="module")
def crawl_dataset(small_overlay):
    dataset = CrawlDataset()
    crawler = DHTCrawler(small_overlay, rng=random.Random(55))
    dataset.add(crawler.crawl(0))
    return dataset


class TestIdRoundTrips:
    def test_peerid(self):
        peer = PeerID.generate(random.Random(1))
        assert PeerID.from_base58(peer.to_base58()) == peer

    def test_peerid_rejects_garbage(self):
        with pytest.raises(ValueError):
            PeerID.from_base58("zzz")

    def test_cid(self):
        cid = CID.generate(random.Random(2))
        assert CID.from_base32(cid.to_base32()) == cid

    def test_cid_rejects_garbage(self):
        with pytest.raises(ValueError):
            CID.from_base32("qmfoo")
        with pytest.raises(ValueError):
            CID.from_base32("babcd")


class TestCrawlExport:
    def test_csv_round_trip_preserves_counting(self, crawl_dataset, tmp_path):
        path = tmp_path / "crawls.csv"
        written = datasets.write_crawl_csv(crawl_dataset, path)
        assert written > 0
        rows = datasets.read_crawl_rows(path)
        assert len(rows) == written
        # The counting pipeline produces identical results on the import.
        original = counts(
            [datasets.CrawlRow(c, p, ip) for c, p, ip in crawl_dataset.rows()],
            lambda ip: ip.split(".")[0],
            CountingMethod.G_IP,
        )
        reloaded = counts(rows, lambda ip: ip.split(".")[0], CountingMethod.G_IP)
        assert original == reloaded

    def test_jsonl_round_trip_preserves_structure(self, crawl_dataset, tmp_path):
        path = tmp_path / "crawls.jsonl"
        datasets.write_crawl_jsonl(crawl_dataset, path)
        reloaded = datasets.read_crawl_jsonl(path)
        original = crawl_dataset.snapshots[0]
        copy = reloaded.snapshots[0]
        assert copy.num_discovered == original.num_discovered
        assert copy.num_crawlable == original.num_crawlable
        assert set(copy.edges) == set(original.edges)
        some_peer = next(iter(original.edges))
        assert set(copy.edges[some_peer]) == set(original.edges[some_peer])


class TestLogExport:
    def test_hydra_round_trip(self, smoke_campaign, tmp_path):
        path = tmp_path / "hydra.jsonl"
        sample = smoke_campaign.hydra.log[:500]
        datasets.write_hydra_jsonl(sample, path)
        reloaded = datasets.read_hydra_jsonl(path)
        assert len(reloaded) == len(sample)
        assert summarize(reloaded).counts == summarize(sample).counts
        assert reloaded[0].sender == sample[0].sender
        assert reloaded[0].sender_ip == sample[0].sender_ip

    def test_bitswap_round_trip(self, smoke_campaign, tmp_path):
        path = tmp_path / "bitswap.jsonl"
        sample = smoke_campaign.bitswap_monitor.log[:300]
        datasets.write_bitswap_jsonl(sample, path)
        reloaded = datasets.read_bitswap_jsonl(path)
        assert [e.cid for e in reloaded] == [e.cid for e in sample]

    def test_provider_observations_round_trip(self, smoke_campaign, tmp_path):
        path = tmp_path / "providers.jsonl"
        sample = smoke_campaign.provider_observations[:50]
        datasets.write_provider_observations_jsonl(sample, path)
        reloaded = datasets.read_provider_observations_jsonl(path)
        assert len(reloaded) == len(sample)
        for original, copy in zip(sample, reloaded):
            assert copy.cid == original.cid
            assert {r.provider for r in copy.records} == {
                r.provider for r in original.records
            }
            assert {r.provider for r in copy.reachable} == {
                r.provider for r in original.reachable
            }
            # Circuit addresses survive the multiaddr round trip.
            assert [a.is_circuit for r in copy.records for a in r.addrs] == [
                a.is_circuit for r in original.records for a in r.addrs
            ]


class TestCampaignExport:
    def test_export_campaign_writes_everything(self, smoke_campaign, tmp_path):
        counts_by_artifact = datasets.export_campaign(smoke_campaign, tmp_path / "out")
        assert set(counts_by_artifact) == {
            "crawl_rows",
            "crawl_snapshots",
            "hydra_messages",
            "bitswap_messages",
            "provider_observations",
        }
        assert all(count > 0 for count in counts_by_artifact.values())
        assert (tmp_path / "out" / "crawls.csv").exists()
        assert (tmp_path / "out" / "hydra.jsonl").exists()
