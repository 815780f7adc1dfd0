"""Additional resilience properties on synthetic graph families."""

import random

import networkx as nx
import pytest

from repro.core import resilience


class TestGraphFamilies:
    def test_scale_free_random_vs_targeted_gap(self):
        """Albert et al.'s finding, the paper's §4 framing: scale-free
        graphs shrug off random failure but crumble under targeted
        attack."""
        graph = resilience.adjacency(nx.barabasi_albert_graph(400, 2, seed=1))
        random_trace = resilience.random_removal(graph, random.Random(2))
        targeted_trace = resilience.targeted_removal(graph)
        assert random_trace.share_at(0.5) > targeted_trace.share_at(0.5)
        assert targeted_trace.partition_point() < random_trace.partition_point()

    def test_dense_random_graph_is_hard_to_partition(self):
        graph = resilience.adjacency(nx.gnp_random_graph(300, 0.1, seed=3))
        targeted_trace = resilience.targeted_removal(graph)
        assert targeted_trace.partition_point() > 0.5

    def test_ring_partitions_gracefully(self):
        graph = resilience.adjacency(nx.cycle_graph(100))
        trace = resilience.random_removal(graph, random.Random(4), record_every=1)
        # A ring loses large chunks quickly under random removal.
        assert trace.share_at(0.3) < 0.8

    def test_empty_graph(self):
        graph = resilience.adjacency(nx.Graph())
        trace = resilience.random_removal(graph, random.Random(5))
        assert trace.lcc_share == [0.0]

    def test_single_node(self):
        graph = nx.Graph()
        graph.add_node("only")
        trace = resilience.targeted_removal(resilience.adjacency(graph))
        assert trace.removed_fraction[0] == 0.0
        assert trace.lcc_share[0] == 1.0

    def test_record_every_controls_resolution(self):
        graph = resilience.adjacency(nx.gnp_random_graph(100, 0.2, seed=6))
        coarse = resilience.random_removal(graph, random.Random(7), record_every=50)
        fine = resilience.random_removal(graph, random.Random(7), record_every=5)
        assert len(fine.removed_fraction) > len(coarse.removed_fraction)
