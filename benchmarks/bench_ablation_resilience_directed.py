"""Ablation — directed vs undirected resilience graphs.

§4 caveat: the paper simplifies the graph to be undirected, which lets
Bitswap use every edge but ignores edge direction.  Comparing the
undirected interpretation against the strongly-connected view of the
directed graph bounds the effect of that simplification.
"""

import random

import networkx as nx

from repro.core import topology
from repro.core.resilience import targeted_removal

from _bench_utils import show


def _digraph(snapshot) -> nx.DiGraph:
    """The directed DHT graph of one snapshot: every discovered peer, and
    an edge per outgoing bucket entry of every crawled peer."""
    graph = nx.DiGraph()
    graph.add_nodes_from(snapshot.observations)
    graph.add_edges_from(
        (peer, neighbor) for peer, neighbors in snapshot.edges.items() for neighbor in neighbors
    )
    return graph


def _directed_core_share(digraph) -> float:
    """Share of nodes inside the largest strongly connected component."""
    if digraph.number_of_nodes() == 0:
        return 0.0
    largest = max((len(c) for c in nx.strongly_connected_components(digraph)), default=0)
    return largest / digraph.number_of_nodes()


def test_ablation_directed_vs_undirected(benchmark, campaign):
    snapshot = campaign.crawls.snapshots[-1]

    def compare():
        digraph = _digraph(snapshot)
        undirected = digraph.to_undirected()
        undirected_lcc = max(
            (len(c) for c in nx.connected_components(undirected)), default=0
        ) / undirected.number_of_nodes()
        return {
            "scc_share": _directed_core_share(digraph),
            "undirected_lcc": undirected_lcc,
            "partition_point": targeted_removal(
                topology.undirected_adjacency(snapshot)
            ).partition_point(),
        }

    results = benchmark.pedantic(compare, rounds=1, iterations=1)
    show(
        "Ablation — directed vs undirected graph",
        [
            ("largest SCC share (directed)", results["scc_share"], float("nan")),
            ("LCC share (undirected)", results["undirected_lcc"], 1.0),
            ("targeted partition point (undirected)", results["partition_point"], 0.60),
        ],
    )
    # The undirected view is (weakly) more connected by construction: the
    # uncrawlable leaves have no out-edges, so they sit outside the SCC.
    assert results["undirected_lcc"] >= results["scc_share"]
    # The directed core still spans the crawlable network.
    crawlable_share = snapshot.num_crawlable / snapshot.num_discovered
    assert results["scc_share"] > 0.8 * crawlable_share
