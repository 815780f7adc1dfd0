"""Dataset export/import round-trips."""

import json
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


def _oracle_jsonl(payloads):
    """The JSONL bytes of the original hand-rolled dataset writers."""
    return "".join(json.dumps(payload) + "\n" for payload in payloads).encode()


def _oracle_crawl_payloads(dataset):
    for snapshot in dataset.snapshots:
        yield {
            "crawl_id": snapshot.crawl_id,
            "started_at": snapshot.started_at,
            "duration": snapshot.duration,
            "requests_sent": snapshot.requests_sent,
            "observations": [
                {
                    "peer": obs.peer.to_base58(),
                    "ips": list(obs.ips),
                    "crawlable": obs.crawlable,
                }
                for obs in snapshot.observations.values()
            ],
            "edges": {
                peer.to_base58(): [n.to_base58() for n in neighbors]
                for peer, neighbors in snapshot.edges.items()
            },
        }


def _oracle_provider_payloads(observations):
    for observation in observations:
        reachable = {record.provider.to_base58() for record in observation.reachable}
        yield {
            "cid": observation.cid.to_base32(),
            "collected_at": observation.collected_at,
            "resolvers_queried": observation.resolvers_queried,
            "walk_messages": observation.walk_messages,
            "records": [
                {
                    "provider": r.provider.to_base58(),
                    "addrs": [str(addr) for addr in r.addrs],
                    "published_at": r.published_at,
                }
                for r in observation.records
            ],
            "reachable": sorted(reachable),
        }


class TestFormatPin:
    """``export_campaign`` writes exactly the bytes of the original writers."""

    def test_export_bytes_match_original_writers(self, smoke_campaign, tmp_path):
        from row_oracles import bitswap_record, hydra_record

        out = tmp_path / "out"
        datasets.export_campaign(smoke_campaign, out)
        expected = {
            "hydra.jsonl": map(hydra_record, smoke_campaign.hydra.log),
            "bitswap.jsonl": map(bitswap_record, smoke_campaign.bitswap_monitor.log),
            "crawls.jsonl": _oracle_crawl_payloads(smoke_campaign.crawls),
            "providers.jsonl": _oracle_provider_payloads(
                smoke_campaign.provider_observations
            ),
        }
        for name, payloads in expected.items():
            assert (out / name).read_bytes() == _oracle_jsonl(payloads), name
