"""Overlay topology reconstruction and degree analysis (paper §4, Fig. 7).

From a crawl snapshot we learn the complete k-buckets (all outgoing DHT
connections) of every crawled node; in-degree is estimated by a node's
presence in other peers' buckets, which undercounts because not every
node is crawlable.

The module runs on the standard library alone.  The networkx graphs its
views must equal are built only by the tests (``tests/graph_oracles.py``).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Sequence, Set, Tuple

from repro.core.crawler import CrawlSnapshot
from repro.ids.peerid import PeerID


def undirected_adjacency(snapshot: CrawlSnapshot) -> List[Set[int]]:
    """The undirected DHT graph of one snapshot as an int adjacency (the
    input of :mod:`repro.core.resilience`).

    Edges are the outgoing bucket entries of every crawled peer, with
    their direction dropped: the paper's simplification that Bitswap
    can use every observed connection (§4).  Node ``i`` is the ``i``-th
    peer met: the observed peers in order, then any other peer in order
    of first appearance in the edges.
    """
    index = {peer: i for i, peer in enumerate(snapshot.observations)}
    adjacency: List[Set[int]] = [set() for _ in index]

    def node(peer: PeerID) -> int:
        i = index.get(peer)
        if i is None:
            i = index[peer] = len(adjacency)
            adjacency.append(set())
        return i

    for peer, neighbors in snapshot.edges.items():
        if not neighbors:
            continue  # an unobserved peer enters only through an edge
        source = node(peer)
        for neighbor in neighbors:
            target = node(neighbor)
            adjacency[source].add(target)
            adjacency[target].add(source)
    return adjacency


def out_degrees(snapshot: CrawlSnapshot) -> Dict[PeerID, int]:
    """Out-degree of every *crawled* node (complete buckets)."""
    return {peer: len(neighbors) for peer, neighbors in snapshot.edges.items()}


def estimated_in_degrees(snapshot: CrawlSnapshot) -> Dict[PeerID, int]:
    """In-degree estimated from presence in crawled peers' buckets."""
    counts: Counter = Counter()
    for neighbors in snapshot.edges.values():
        counts.update(neighbors)
    return {peer: counts.get(peer, 0) for peer in snapshot.observations}


def degree_cdf(degrees: Sequence[int]) -> List[Tuple[int, float]]:
    """``(degree, P[X <= degree])`` points of the empirical CDF."""
    if not degrees:
        return []
    ordered = sorted(degrees)
    total = len(ordered)
    cdf: List[Tuple[int, float]] = []
    for index, value in enumerate(ordered, start=1):
        if index == total or ordered[index] != value:
            cdf.append((value, index / total))
    return cdf


def percentile(degrees: Sequence[int], fraction: float) -> float:
    """The ``fraction`` percentile (0..1) of a degree sample."""
    if not degrees:
        raise ValueError("empty degree sample")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be within [0, 1]")
    ordered = sorted(degrees)
    index = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return float(ordered[index])


def degree_summary(snapshot: CrawlSnapshot) -> Dict[str, float]:
    """The Fig. 7 headline numbers for one snapshot."""
    outs = list(out_degrees(snapshot).values())
    ins = list(estimated_in_degrees(snapshot).values())
    return {
        "out_mean": sum(outs) / len(outs) if outs else 0.0,
        "out_p10": percentile(outs, 0.10) if outs else 0.0,
        "out_p90": percentile(outs, 0.90) if outs else 0.0,
        "in_median": percentile(ins, 0.50) if ins else 0.0,
        "in_p90": percentile(ins, 0.90) if ins else 0.0,
        "in_max": float(max(ins)) if ins else 0.0,
    }
