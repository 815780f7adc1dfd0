"""Node-removal resilience experiments (paper §4, Fig. 8).

Two removal strategies over the undirected snapshot graph: *random*
(uniform node) and *targeted* (highest current degree).  After each
removal the share of remaining nodes inside the largest connected
component is recorded.  Random removal barely dents the network (scale-
free robustness); targeted removal fully partitions it after ≈60 % of
nodes are gone.

Graphs are int adjacencies: ``adjacency[i]`` is the set of neighbours of
node ``i`` (``i`` itself for a self-loop), as built by
:func:`repro.core.topology.undirected_adjacency` or :func:`adjacency`.
Each curve is one removal order plus one reverse union-find pass
(:func:`removal_curve`): nodes are added back last-removed first and the
largest component is tracked, so a curve costs O((V + E)·α) instead of a
component scan per recorded step.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

#: ``adjacency[i]``: the neighbours of node ``i``.
Adjacency = Sequence[Set[int]]


@dataclass
class RemovalTrace:
    """LCC share after each removal step.

    :ivar removed_fraction: x-axis, fraction of original nodes removed.
    :ivar lcc_share: fraction of *remaining* nodes in the largest
        component (the paper's y-axis).
    """

    removed_fraction: List[float] = field(default_factory=list)
    lcc_share: List[float] = field(default_factory=list)

    def share_at(self, fraction: float) -> float:
        """LCC share at the last recorded removal fraction at or below
        ``fraction`` (1.0 before the first record)."""
        best = 1.0
        for x, y in zip(self.removed_fraction, self.lcc_share):
            if x <= fraction:
                best = y
            else:
                break
        return best

    def partition_point(self, threshold: float = 0.05) -> float:
        """First removal fraction at which the LCC share drops below
        ``threshold`` (≈ complete partitioning); 1.0 if never."""
        for x, y in zip(self.removed_fraction, self.lcc_share):
            if y < threshold:
                return x
        return 1.0


def adjacency(graph) -> List[Set[int]]:
    """The int adjacency of an undirected graph, nodes numbered in
    ``graph.nodes`` order (e.g. an ``nx.Graph``: anything with ``nodes``
    and ``adj``)."""
    index = {node: i for i, node in enumerate(graph.nodes)}
    return [{index[neighbor] for neighbor in graph.adj[node]} for node in graph.nodes]


def _record_step(adjacency: Adjacency, record_every: Optional[int]) -> int:
    if record_every is None:
        return max(1, len(adjacency) // 100)
    if record_every < 1:
        raise ValueError(f"record_every must be a positive integer, got {record_every}")
    return record_every


def removal_curve(
    adjacency: Adjacency, order: Sequence[int], record_every: int
) -> RemovalTrace:
    """The LCC share as the nodes of ``order`` are removed one by one;
    ``order`` lists distinct nodes and leaves at least one.

    Records after 0 removals, after every multiple of ``record_every``
    and after the step that leaves one node.  The pass runs backwards:
    the nodes never removed come first, then ``order`` is added back in
    reverse, each node unioned with its neighbours already present.
    """
    total = len(adjacency)
    if total == 0:
        return RemovalTrace([0.0], [0.0])
    steps = len(order)
    parent = list(range(total))
    size = [1] * total
    present = bytearray(total)
    largest = 0

    def add(node: int) -> None:
        nonlocal largest
        present[node] = 1
        root = node
        for neighbor in adjacency[node]:
            if not present[neighbor]:
                continue
            while parent[neighbor] != neighbor:
                parent[neighbor] = parent[parent[neighbor]]
                neighbor = parent[neighbor]
            if neighbor == root:
                continue
            if size[neighbor] > size[root]:
                root, neighbor = neighbor, root
            parent[neighbor] = root
            size[root] += size[neighbor]
        if size[root] > largest:
            largest = size[root]

    removed = bytearray(total)
    for node in order:
        removed[node] = 1
    for node in range(total):
        if not removed[node]:
            add(node)
    fractions: List[float] = []
    shares: List[float] = []
    for k in range(steps, -1, -1):
        if k < steps:
            add(order[k])
        remaining = total - k
        if k % record_every == 0 or remaining <= 1:
            fractions.append(k / total)
            shares.append(largest / remaining)
    fractions.reverse()
    shares.reverse()
    return RemovalTrace(fractions, shares)


def random_order(num_nodes: int, rng: random.Random) -> List[int]:
    """A uniform removal order of all but one node: each step draws one
    index into the remaining nodes, kept in original order."""
    remaining = list(range(num_nodes))
    return [remaining.pop(rng.randrange(len(remaining))) for _ in range(num_nodes - 1)]


def targeted_order(adjacency: Adjacency) -> List[int]:
    """Highest-current-degree-first removal of all but one node; ties go
    to the lowest node index.  A self-loop counts 2 towards a degree.

    The heap holds one ``(-degree, node)`` entry per remaining node.
    Degrees only fall, so an entry's degree is never below the node's
    current one: an outdated entry at the top is re-keyed, and an
    up-to-date one at the top is the maximum.
    """
    degree = [len(nbrs) + (node in nbrs) for node, nbrs in enumerate(adjacency)]
    heap = [(-d, node) for node, d in enumerate(degree)]
    heapq.heapify(heap)
    removed = bytearray(len(adjacency))
    order: List[int] = []
    for _ in range(len(adjacency) - 1):
        neg, node = heap[0]
        while -neg != degree[node]:
            heapq.heapreplace(heap, (-degree[node], node))
            neg, node = heap[0]
        heapq.heappop(heap)
        removed[node] = 1
        order.append(node)
        for neighbor in adjacency[node]:
            if not removed[neighbor]:
                degree[neighbor] -= 1
    return order


def random_removal(
    adjacency: Adjacency,
    rng: Optional[random.Random] = None,
    record_every: Optional[int] = None,
) -> RemovalTrace:
    """Remove uniformly random nodes until one is left."""
    step = _record_step(adjacency, record_every)
    order = random_order(len(adjacency), rng or random.Random(0))
    return removal_curve(adjacency, order, step)


def targeted_removal(
    adjacency: Adjacency, record_every: Optional[int] = None
) -> RemovalTrace:
    """Repeatedly remove the node with the highest current degree."""
    step = _record_step(adjacency, record_every)
    return removal_curve(adjacency, targeted_order(adjacency), step)


def random_removal_with_ci(
    adjacency: Adjacency,
    repetitions: int = 10,
    rng: Optional[random.Random] = None,
    record_every: Optional[int] = None,
) -> Tuple[List[float], List[float], List[float]]:
    """The paper's protocol: repeat random removal 10 times and report a
    95 % confidence interval around the mean LCC share.

    Returns ``(fractions, mean_share, halfwidth_95)`` aligned per step.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be a positive integer, got {repetitions}")
    rng = rng or random.Random(0)
    traces = [
        random_removal(adjacency, random.Random(rng.randrange(2**32)), record_every)
        for _ in range(repetitions)
    ]
    length = min(len(trace.lcc_share) for trace in traces)
    fractions = traces[0].removed_fraction[:length]
    means: List[float] = []
    halfwidths: List[float] = []
    for index in range(length):
        values = [trace.lcc_share[index] for trace in traces]
        mean = sum(values) / len(values)
        variance = sum((v - mean) ** 2 for v in values) / max(1, len(values) - 1)
        std_error = (variance / len(values)) ** 0.5
        means.append(mean)
        halfwidths.append(1.96 * std_error)
    return fractions, means, halfwidths
