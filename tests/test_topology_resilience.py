"""Topology reconstruction (Fig. 7) and removal resilience (Fig. 8)."""

import random

import networkx as nx
import pytest

from repro.core import resilience, topology
from repro.core.crawler import CrawlSnapshot, DHTCrawler

from graph_oracles import build_digraph, build_undirected


@pytest.fixture(scope="module")
def snapshot(small_overlay):
    return DHTCrawler(small_overlay, rng=random.Random(81)).crawl(0)


class TestGraphs:
    def test_digraph_nodes_and_edges(self, snapshot):
        graph = build_digraph(snapshot)
        assert graph.number_of_nodes() == snapshot.num_discovered
        assert graph.number_of_edges() == sum(len(v) for v in snapshot.edges.values())

    def test_undirected_conversion(self, snapshot):
        directed = build_digraph(snapshot)
        undirected = build_undirected(snapshot)
        assert undirected.number_of_edges() <= directed.number_of_edges()

    def test_out_degree_bucket_bound(self, snapshot):
        """Out-degree is bounded by k·(populated buckets) — a small band."""
        outs = list(topology.out_degrees(snapshot).values())
        assert outs
        import statistics

        mean = statistics.mean(outs)
        assert topology.percentile(outs, 0.9) < 1.3 * mean  # narrow band

    def test_in_degree_skewed(self, snapshot):
        ins = list(topology.estimated_in_degrees(snapshot).values())
        assert max(ins) > 2 * topology.percentile(ins, 0.5)

    def test_adjacency_matches_undirected_graph(self, snapshot):
        adjacency = topology.undirected_adjacency(snapshot)
        assert adjacency == resilience.adjacency(build_undirected(snapshot))

    def test_adjacency_appends_unobserved_peers_in_edge_order(self, snapshot):
        observed = list(snapshot.observations)[:3]
        late, early = list(snapshot.observations)[3:5]
        partial = CrawlSnapshot(
            crawl_id=0,
            started_at=0.0,
            observations={peer: snapshot.observations[peer] for peer in observed},
            edges={
                observed[0]: (early, observed[1]),
                early: (late, observed[0]),
                observed[2]: (),
            },
        )
        adjacency = topology.undirected_adjacency(partial)
        assert adjacency == resilience.adjacency(build_undirected(partial))
        # observed peers 0..2, then `early` (3) and `late` (4) as first met.
        assert adjacency == [{1, 3}, {0}, set(), {0, 4}, {3}]

    def test_summary_keys(self, snapshot):
        summary = topology.degree_summary(snapshot)
        assert set(summary) == {
            "out_mean", "out_p10", "out_p90", "in_median", "in_p90", "in_max",
        }
        assert summary["in_p90"] <= summary["in_max"]


class TestCDFHelpers:
    def test_degree_cdf(self):
        cdf = topology.degree_cdf([1, 1, 2, 3])
        assert cdf == [(1, 0.5), (2, 0.75), (3, 1.0)]

    def test_cdf_empty(self):
        assert topology.degree_cdf([]) == []

    def test_percentile(self):
        values = list(range(101))
        assert topology.percentile(values, 0.0) == 0
        assert topology.percentile(values, 0.5) == 50
        assert topology.percentile(values, 1.0) == 100

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            topology.percentile([], 0.5)
        with pytest.raises(ValueError):
            topology.percentile([1], 2.0)


class TestRemoval:
    def test_random_removal_robust(self, snapshot):
        graph = resilience.adjacency(build_undirected(snapshot))
        trace = resilience.random_removal(graph, random.Random(0))
        # Robust to random failure: high LCC share deep into the removal.
        assert trace.share_at(0.5) > 0.9

    def test_targeted_removal_more_effective(self, snapshot):
        graph = resilience.adjacency(build_undirected(snapshot))
        random_trace = resilience.random_removal(graph, random.Random(1))
        targeted_trace = resilience.targeted_removal(graph)
        assert targeted_trace.partition_point() < random_trace.partition_point()
        assert targeted_trace.share_at(0.6) <= random_trace.share_at(0.6)

    def test_original_graph_untouched(self, snapshot):
        adjacency = topology.undirected_adjacency(snapshot)
        before = [set(neighbors) for neighbors in adjacency]
        resilience.targeted_removal(adjacency)
        resilience.random_removal(adjacency, random.Random(0))
        assert adjacency == before

    def test_trace_share_at_before_first_step(self):
        trace = resilience.RemovalTrace([0.0, 0.5], [1.0, 0.2])
        assert trace.share_at(0.4) == 1.0
        assert trace.share_at(0.9) == 0.2

    def test_partition_point_never(self):
        trace = resilience.RemovalTrace([0.0, 0.5], [1.0, 0.9])
        assert trace.partition_point() == 1.0

    def test_confidence_interval_protocol(self):
        graph = resilience.adjacency(nx.barabasi_albert_graph(200, 3, seed=5))
        fractions, means, halfwidths = resilience.random_removal_with_ci(
            graph, repetitions=5, rng=random.Random(2)
        )
        assert len(fractions) == len(means) == len(halfwidths)
        assert all(width >= 0 for width in halfwidths)
        assert means[0] == pytest.approx(1.0)

    def test_star_graph_partition(self):
        """A star fully partitions after one targeted removal."""
        graph = resilience.adjacency(nx.star_graph(50))
        trace = resilience.targeted_removal(graph, record_every=1)
        assert trace.lcc_share[1] < 0.05
