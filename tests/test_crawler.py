"""The DHT crawler over the simulated overlay."""

import random

import pytest

from repro.core.crawler import CrawlDataset, DHTCrawler, collect_crawl, execute_crawl_task
from repro.obs import MetricsRegistry, Observer, StreamAnalytics, Tracer


@pytest.fixture(scope="module")
def crawl(small_overlay):
    crawler = DHTCrawler(small_overlay, rng=random.Random(71))
    return crawler.crawl(crawl_id=0)


class TestCrawl:
    def test_discovers_most_online_servers(self, small_overlay, crawl):
        online = len(small_overlay.oracle)
        assert crawl.num_discovered >= 0.95 * online

    def test_crawlable_subset_matches_reachability(self, small_overlay, crawl):
        # Every crawlable peer is genuinely online and reachable.
        for peer, obs in crawl.observations.items():
            if obs.crawlable:
                node = small_overlay.online_by_peer.get(peer)
                assert node is not None and node.reachable

    def test_uncrawlable_leaves_present(self, crawl):
        assert crawl.num_crawlable < crawl.num_discovered

    def test_edges_only_for_crawled(self, crawl):
        assert set(crawl.edges) == {
            peer for peer, obs in crawl.observations.items() if obs.crawlable
        }

    def test_edges_are_complete_buckets(self, small_overlay, crawl):
        """The crafted-key sweep enumerates (almost) the whole table."""
        checked = 0
        for peer, neighbors in list(crawl.edges.items())[:20]:
            node = small_overlay.online_by_peer.get(peer)
            if node is None or node.routing_table is None:
                continue
            table_peers = {small_overlay.peer_of(key) for key in node.routing_table.keys()}
            recovered = len(set(neighbors) & table_peers) / max(len(table_peers), 1)
            assert recovered > 0.9
            checked += 1
        assert checked > 0

    def test_no_nat_clients_discovered(self, small_overlay, crawl):
        nat_peers = {n.peer for n in small_overlay.online_nat_clients()}
        assert not (set(crawl.observations) & nat_peers)

    def test_observations_carry_ips(self, crawl):
        with_ips = sum(1 for obs in crawl.observations.values() if obs.ips)
        assert with_ips > 0.9 * crawl.num_discovered

    def test_duration_model(self, crawl):
        # Latency-dominated part plus one timeout tail (unresponsive wait).
        assert crawl.duration > 180.0
        assert crawl.requests_sent > crawl.num_discovered


class TestTimeoutEffect:
    def test_short_timeout_reduces_crawlable(self, small_overlay):
        patient = DHTCrawler(small_overlay, timeout=300.0, rng=random.Random(72))
        hasty = DHTCrawler(small_overlay, timeout=0.05, rng=random.Random(72))
        full = patient.crawl(0)
        partial = hasty.crawl(0)
        assert partial.num_crawlable < full.num_crawlable


class TestDataset:
    def test_aggregates(self, crawl):
        dataset = CrawlDataset()
        dataset.add(crawl)
        assert len(dataset) == 1
        assert dataset.avg_discovered() == crawl.num_discovered
        assert dataset.avg_crawlable() == crawl.num_crawlable
        assert dataset.unique_peer_ids() == crawl.num_discovered
        assert dataset.unique_ips() > 0
        assert dataset.avg_ips_per_peer() >= 1.0

    def test_rows_shape(self, crawl):
        dataset = CrawlDataset()
        dataset.add(crawl)
        rows = list(dataset.rows())
        assert rows
        crawl_id, peer, ip = rows[0]
        assert crawl_id == 0
        assert isinstance(ip, str) and ip.count(".") == 3

    def test_empty_dataset(self):
        dataset = CrawlDataset()
        assert dataset.avg_discovered() == 0.0
        assert dataset.avg_ips_per_peer() == 0.0


class TestCollector:
    @pytest.fixture(scope="class")
    def task(self, small_overlay):
        return DHTCrawler(small_overlay, rng=random.Random(71)).task(3)

    def test_null_sinks_return_the_plain_snapshot(self, task):
        outcome = collect_crawl(task)
        assert outcome.snapshot == execute_crawl_task(task)
        assert (outcome.metrics, outcome.trace, outcome.stream) == (None, None, None)

    def test_all_sinks_leave_the_snapshot_unchanged(self, task):
        outcome = collect_crawl(task, metrics=True, trace=True, stream=True)
        assert outcome.snapshot == execute_crawl_task(task)
        assert outcome.metrics["counters"]["crawl.crawls"] == 1
        assert outcome.trace[0]["origin"] == f"crawl-{task.crawl_id}"
        assert outcome.stream["crawlable"] == outcome.snapshot.num_crawlable
        observer = Observer(MetricsRegistry(), Tracer(), StreamAnalytics())
        observer.merge(outcome)
        assert observer.metrics.snapshot()["counters"] == outcome.metrics["counters"]
        assert observer.crawl_trace == outcome.trace
        assert observer.stream.crawls == 1
