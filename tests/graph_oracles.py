"""networkx views of a crawl snapshot, the oracles of the graph tests.

The library builds its Fig. 7/8 inputs without networkx
(:func:`repro.core.topology.undirected_adjacency`); these are the graphs
that adjacency must equal.  networkx is a test dependency only.
"""

import networkx as nx

from repro.core.crawler import CrawlSnapshot


def build_digraph(snapshot: CrawlSnapshot) -> nx.DiGraph:
    """The directed DHT graph of one snapshot.

    Nodes: every discovered peer.  Edges: the outgoing bucket entries of
    every crawled peer.  Uncrawlable peers appear as leaves with only
    estimated in-edges — exactly the paper's graph.
    """
    graph = nx.DiGraph()
    graph.add_nodes_from(snapshot.observations)
    for peer, neighbors in snapshot.edges.items():
        for neighbor in neighbors:
            graph.add_edge(peer, neighbor)
    return graph


def build_undirected(snapshot: CrawlSnapshot) -> nx.Graph:
    """The undirected interpretation used by the resilience experiment
    (all observable connections usable for communication, §4)."""
    return build_digraph(snapshot).to_undirected()
