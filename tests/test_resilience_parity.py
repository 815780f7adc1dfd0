"""The int-adjacency removal curves are exactly the networkx ones.

The oracle below is the networkx implementation the union-find pass
replaced: it copies the graph, picks each victim from the live graph and
scans every component at each recorded step.  Curves must agree with
``==`` — same removal orders, same recorded steps, same float shares.
"""

import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import resilience
from repro.core.resilience import RemovalTrace
from repro.scenario import report as R

from graph_oracles import build_undirected


# --- oracle: the networkx implementation --------------------------------------


def _lcc_share(graph: nx.Graph) -> float:
    remaining = graph.number_of_nodes()
    if remaining == 0:
        return 0.0
    largest = max((len(c) for c in nx.connected_components(graph)), default=0)
    return largest / remaining


def _run_removal(
    graph: nx.Graph, order_fn, record_every: int
) -> RemovalTrace:
    total = graph.number_of_nodes()
    trace = RemovalTrace()
    removed = 0
    trace.removed_fraction.append(0.0)
    trace.lcc_share.append(_lcc_share(graph))
    while graph.number_of_nodes() > 1:
        victim = order_fn(graph)
        if victim is None:
            break
        graph.remove_node(victim)
        removed += 1
        if removed % record_every == 0 or graph.number_of_nodes() <= 1:
            trace.removed_fraction.append(removed / total)
            trace.lcc_share.append(_lcc_share(graph))
    return trace


def oracle_random_removal(graph, rng=None, record_every=None):
    rng = rng or random.Random(0)
    work = graph.copy()
    step = record_every or max(1, work.number_of_nodes() // 100)

    def pick(current: nx.Graph):
        nodes = list(current.nodes)
        return rng.choice(nodes) if nodes else None

    return _run_removal(work, pick, step)


def oracle_targeted_removal(graph, record_every=None):
    work = graph.copy()
    step = record_every or max(1, work.number_of_nodes() // 100)

    def pick(current: nx.Graph):
        if current.number_of_nodes() == 0:
            return None
        return max(current.degree, key=lambda item: item[1])[0]

    return _run_removal(work, pick, step)


def oracle_random_removal_with_ci(graph, repetitions=10, rng=None, record_every=None):
    rng = rng or random.Random(0)
    traces = [
        oracle_random_removal(graph, random.Random(rng.randrange(2**32)), record_every)
        for _ in range(repetitions)
    ]
    length = min(len(trace.lcc_share) for trace in traces)
    fractions = traces[0].removed_fraction[:length]
    means = []
    halfwidths = []
    for index in range(length):
        values = [trace.lcc_share[index] for trace in traces]
        mean = sum(values) / len(values)
        variance = sum((v - mean) ** 2 for v in values) / max(1, len(values) - 1)
        std_error = (variance / len(values)) ** 0.5
        means.append(mean)
        halfwidths.append(1.96 * std_error)
    return fractions, means, halfwidths


# --- comparison helpers --------------------------------------------------------

RECORD_EVERY = [None, 1, 3, 7]


def assert_same_curves(graph: nx.Graph, seed: int = 0) -> None:
    adjacency = resilience.adjacency(graph)
    for record_every in RECORD_EVERY:
        new = resilience.random_removal(adjacency, random.Random(seed), record_every)
        old = oracle_random_removal(graph, random.Random(seed), record_every)
        assert new.removed_fraction == old.removed_fraction
        assert new.lcc_share == old.lcc_share
        new = resilience.targeted_removal(adjacency, record_every)
        old = oracle_targeted_removal(graph, record_every)
        assert new.removed_fraction == old.removed_fraction
        assert new.lcc_share == old.lcc_share


def labelled_graph(nodes, edges) -> nx.Graph:
    graph = nx.Graph()
    graph.add_nodes_from(nodes)
    graph.add_edges_from(edges)
    return graph


# --- fixed cases ---------------------------------------------------------------


class TestFixedGraphs:
    def test_empty(self):
        assert_same_curves(nx.Graph())

    def test_one_node(self):
        assert_same_curves(labelled_graph([0], []))

    def test_two_nodes(self):
        assert_same_curves(labelled_graph([0, 1], []))
        assert_same_curves(labelled_graph([0, 1], [(0, 1)]))

    def test_star(self):
        assert_same_curves(nx.star_graph(30), seed=3)

    def test_path(self):
        assert_same_curves(nx.path_graph(40), seed=4)

    def test_isolated_nodes(self):
        graph = nx.path_graph(10)
        graph.add_nodes_from(range(10, 25))
        graph.add_edge(30, 31)
        assert_same_curves(graph, seed=5)

    def test_self_loops(self):
        """A self-loop counts 2 towards the degree the targeted order reads."""
        graph = labelled_graph(range(6), [(0, 1), (1, 2), (3, 3), (3, 4), (5, 5), (4, 4)])
        assert_same_curves(graph, seed=6)

    def test_string_labels(self):
        labels = ["delta", "alpha", "charlie", "bravo", "echo", "foxtrot"]
        edges = [("alpha", "echo"), ("delta", "bravo"), ("echo", "charlie"), ("foxtrot", "alpha")]
        assert_same_curves(labelled_graph(labels, edges), seed=7)

    def test_scale_free(self):
        assert_same_curves(nx.barabasi_albert_graph(250, 3, seed=8), seed=9)

    def test_confidence_interval_protocol(self):
        graph = nx.barabasi_albert_graph(120, 2, seed=10)
        adjacency = resilience.adjacency(graph)
        for record_every in RECORD_EVERY:
            new = resilience.random_removal_with_ci(
                adjacency, repetitions=4, rng=random.Random(11), record_every=record_every
            )
            old = oracle_random_removal_with_ci(
                graph, repetitions=4, rng=random.Random(11), record_every=record_every
            )
            assert new == old


# --- random graphs -------------------------------------------------------------


@st.composite
def graphs(draw):
    size = draw(st.integers(min_value=0, max_value=24))
    labels = draw(st.permutations(range(size)))
    if draw(st.booleans()):
        labels = [f"p{label}" for label in labels]
    pairs = st.tuples(st.integers(0, max(size - 1, 0)), st.integers(0, max(size - 1, 0)))
    edges = draw(st.lists(pairs, max_size=3 * size)) if size else []
    return labelled_graph(labels, [(labels[u], labels[v]) for u, v in edges])


class TestRandomGraphs:
    @settings(max_examples=120, deadline=None)
    @given(graph=graphs(), seed=st.integers(0, 2**16))
    def test_removal_curves_equal(self, graph, seed):
        assert_same_curves(graph, seed)

    @settings(max_examples=60, deadline=None)
    @given(
        graph=graphs(),
        seed=st.integers(0, 2**16),
        repetitions=st.integers(1, 4),
        record_every=st.sampled_from(RECORD_EVERY),
    )
    def test_confidence_interval_equal(self, graph, seed, repetitions, record_every):
        new = resilience.random_removal_with_ci(
            resilience.adjacency(graph), repetitions, random.Random(seed), record_every
        )
        old = oracle_random_removal_with_ci(graph, repetitions, random.Random(seed), record_every)
        assert new == old


# --- the campaign figure --------------------------------------------------------


def test_fig8_report_equals_networkx_oracle(smoke_campaign):
    snapshot = smoke_campaign.crawls.snapshots[-1]
    graph = build_undirected(snapshot)
    fractions, means, halfwidths = oracle_random_removal_with_ci(graph, repetitions=3)
    random_trace = RemovalTrace(list(fractions), list(means))
    targeted_trace = oracle_targeted_removal(graph)
    expected = {
        "random_fractions": fractions,
        "random_mean_lcc": means,
        "random_ci95": halfwidths,
        "targeted_fractions": targeted_trace.removed_fraction,
        "targeted_lcc": targeted_trace.lcc_share,
        "random_lcc_at_90pct": random_trace.share_at(0.90),
        "targeted_partition_point": targeted_trace.partition_point(),
    }
    assert R.fig8_report(smoke_campaign, repetitions=3) == expected


# --- argument validation --------------------------------------------------------


class TestValidation:
    def test_zero_repetitions_rejected(self):
        adjacency = resilience.adjacency(nx.path_graph(5))
        with pytest.raises(ValueError, match="repetitions"):
            resilience.random_removal_with_ci(adjacency, repetitions=0)

    def test_full_report_zero_repetitions_rejected(self, smoke_campaign):
        with pytest.raises(ValueError, match="repetitions"):
            R.full_report(smoke_campaign, resilience_reps=0)

    @pytest.mark.parametrize("record_every", [0, -2])
    def test_non_positive_record_every_rejected(self, record_every):
        adjacency = resilience.adjacency(nx.path_graph(5))
        with pytest.raises(ValueError, match="record_every"):
            resilience.random_removal(adjacency, random.Random(0), record_every)
        with pytest.raises(ValueError, match="record_every"):
            resilience.targeted_removal(adjacency, record_every)
        with pytest.raises(ValueError, match="record_every"):
            resilience.random_removal_with_ci(adjacency, 2, record_every=record_every)

    def test_share_at_includes_equal_fraction(self):
        trace = RemovalTrace([0.0, 0.5, 0.9], [1.0, 0.8, 0.3])
        assert trace.share_at(0.5) == 0.8
        assert trace.share_at(0.89) == 0.8
