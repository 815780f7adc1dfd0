"""The one-pass Fig. 4 series and the per-IP label lookup are exact.

The oracle below is the implementation the incremental pass replaced:
it recounts every crawl-id prefix from scratch and calls
``property_of_ip`` per row.  Series must agree with ``==``, and every
counts dict must agree item by item, so the key order that ``shares``
sums in is pinned too.  A second group counts the work: one label lookup
per distinct IP, and at most one ``combine`` per row across a series.
"""

from collections import Counter, defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import cloud as cloud_analysis
from repro.core import counting, geo
from repro.core.counting import (
    CLOUD,
    NON_CLOUD,
    CountingMethod,
    CrawlRow,
    cloud_status_combine,
    majority_vote,
)
from repro.ids.peerid import PeerID


# --- oracle: the prefix-by-prefix implementation -----------------------------


def oracle_g_ip_counts(rows, property_of_ip) -> Dict[str, float]:
    """Unique IPs over the whole dataset, attributed individually."""
    seen_ips: Dict[str, str] = {}
    for row in rows:
        if row.ip not in seen_ips:
            seen_ips[row.ip] = property_of_ip(row.ip)
    counts: Counter = Counter(seen_ips.values())
    return {label: float(count) for label, count in counts.items()}


def oracle_g_n_counts(rows, property_of_ip, combine=majority_vote) -> Dict[str, float]:
    """Unique peers over the whole dataset, one label each."""
    labels_by_peer: Dict[PeerID, List[str]] = defaultdict(list)
    seen: set = set()
    for row in rows:
        key = (row.peer, row.ip)
        if key in seen:
            continue
        seen.add(key)
        labels_by_peer[row.peer].append(property_of_ip(row.ip))
    counts: Counter = Counter(combine(labels) for labels in labels_by_peer.values())
    return {label: float(count) for label, count in counts.items()}


def oracle_a_n_counts(
    rows, property_of_ip, combine=majority_vote, num_crawls: Optional[int] = None
) -> Dict[str, float]:
    """Per-crawl peer labels, averaged over all crawls (the paper's A-N)."""
    by_crawl: Dict[int, Dict[PeerID, List[str]]] = defaultdict(lambda: defaultdict(list))
    for row in rows:
        by_crawl[row.crawl_id][row.peer].append(property_of_ip(row.ip))
    crawls = num_crawls if num_crawls is not None else len(by_crawl)
    if crawls == 0:
        return {}
    totals: Counter = Counter()
    for peers in by_crawl.values():
        totals.update(combine(labels) for labels in peers.values())
    return {label: count / crawls for label, count in totals.items()}


def oracle_counts(rows, property_of_ip, method, combine=majority_vote, num_crawls=None):
    """Dispatch to the chosen methodology."""
    if method is CountingMethod.G_IP:
        return oracle_g_ip_counts(rows, property_of_ip)
    if method is CountingMethod.G_N:
        return oracle_g_n_counts(rows, property_of_ip, combine)
    return oracle_a_n_counts(rows, property_of_ip, combine, num_crawls)


def oracle_cumulative_ratio_series(
    rows: Sequence[CrawlRow],
    property_of_ip,
    method: CountingMethod,
    numerator_label: str = CLOUD,
    denominator_label: str = NON_CLOUD,
    combine=majority_vote,
) -> List[Tuple[int, float]]:
    """``(k, ratio)`` using only the first ``k`` crawls, for each ``k``."""
    crawl_ids = sorted({row.crawl_id for row in rows})
    series: List[Tuple[int, float]] = []
    for index, last_crawl in enumerate(crawl_ids, start=1):
        subset = [row for row in rows if row.crawl_id <= last_crawl]
        result = oracle_counts(subset, property_of_ip, method, combine, num_crawls=index)
        denominator = result.get(denominator_label, 0.0)
        numerator = result.get(numerator_label, 0.0)
        series.append((index, numerator / denominator if denominator else float("inf")))
    return series


# --- comparison helpers --------------------------------------------------------

METHODS = list(CountingMethod)
COMBINERS = [majority_vote, cloud_status_combine]


def make_peer(tag: int) -> PeerID:
    return PeerID(tag.to_bytes(32, "big"))


def assert_same_counts(rows, prop, combine, num_crawls=None) -> None:
    pairs = [
        (counting.g_ip_counts(rows, prop), oracle_g_ip_counts(rows, prop)),
        (counting.g_n_counts(rows, prop, combine), oracle_g_n_counts(rows, prop, combine)),
        (
            counting.a_n_counts(rows, prop, combine, num_crawls),
            oracle_a_n_counts(rows, prop, combine, num_crawls),
        ),
    ]
    for method in METHODS:
        pairs.append(
            (
                counting.counts(rows, prop, method, combine, num_crawls),
                oracle_counts(rows, prop, method, combine, num_crawls),
            )
        )
    for new, old in pairs:
        assert list(new.items()) == list(old.items())


def assert_same_series(rows, prop, numerator=CLOUD, denominator=NON_CLOUD) -> None:
    for method in METHODS:
        for combine in COMBINERS:
            new = counting.cumulative_ratio_series(
                rows, prop, method, numerator, denominator, combine
            )
            old = oracle_cumulative_ratio_series(
                rows, prop, method, numerator, denominator, combine
            )
            assert new == old, (method, combine.__name__)


# --- fixed cases ---------------------------------------------------------------


LABEL = {"c1": CLOUD, "c2": CLOUD, "n1": NON_CLOUD, "n2": NON_CLOUD, "n3": NON_CLOUD}


class TestFixedRows:
    def test_empty(self):
        assert_same_series([], LABEL.get)
        assert_same_counts([], LABEL.get, majority_vote)

    def test_denominator_missing_from_early_prefixes(self):
        """Only cloud IPs in the first two crawls: the ratio starts at inf."""
        p1, p2 = make_peer(1), make_peer(2)
        rows = [
            CrawlRow(3, p1, "c1"),
            CrawlRow(7, p1, "c1"),
            CrawlRow(7, p2, "c2"),
            CrawlRow(12, p2, "n1"),
            CrawlRow(12, p1, "c1"),
        ]
        assert_same_series(rows, LABEL.get)
        series = counting.cumulative_ratio_series(rows, LABEL.get, CountingMethod.G_IP)
        assert [ratio for _, ratio in series][:2] == [float("inf")] * 2

    def test_peer_label_changes_across_crawls(self):
        """A peer moves cloud → mixed → non-cloud; under G-N its one
        label moves with it, and the old label's count drops to zero."""
        p1, p2 = make_peer(1), make_peer(2)
        rows = [
            CrawlRow(0, p1, "c1"),
            CrawlRow(0, p2, "n1"),
            CrawlRow(2, p1, "n2"),
            CrawlRow(5, p1, "n3"),
            CrawlRow(5, p2, "c2"),
            CrawlRow(9, p1, "n2"),
        ]
        assert_same_series(rows, LABEL.get)
        assert_same_series(rows, LABEL.get, numerator=counting.BOTH)
        assert_same_counts(rows, LABEL.get, cloud_status_combine)

    def test_duplicate_rows_and_unsorted_input(self):
        p1, p2, p3 = make_peer(1), make_peer(2), make_peer(3)
        rows = [
            CrawlRow(4, p1, "c1"),
            CrawlRow(1, p2, "n1"),
            CrawlRow(4, p1, "c1"),
            CrawlRow(1, p3, "c1"),
            CrawlRow(1, p2, "n1"),
            CrawlRow(4, p3, "n2"),
            CrawlRow(1, p3, "c1"),
        ]
        assert_same_series(rows, LABEL.get)
        for combine in COMBINERS:
            assert_same_counts(rows, LABEL.get, combine)
            assert_same_counts(rows, LABEL.get, combine, num_crawls=5)

    def test_smoke_campaign_rows(self, smoke_campaign):
        rows = smoke_campaign.crawl_rows
        cloud_prop = cloud_analysis.cloud_status_property(smoke_campaign.world.cloud_db)
        assert_same_series(rows, cloud_prop)
        assert_same_series(rows, cloud_prop, numerator=counting.BOTH)
        assert_same_counts(rows, cloud_prop, cloud_status_combine)
        provider_prop = cloud_analysis.provider_property(smoke_campaign.world.cloud_db)
        country_prop = geo.country_property(smoke_campaign.world.geo_db)
        for prop in (provider_prop, country_prop):
            assert_same_counts(rows, prop, majority_vote)


# --- random rows ---------------------------------------------------------------

IPS = ["c1", "c2", "c3", "n1", "n2", "n3", "x1", "x2"]
LABELS = [CLOUD, NON_CLOUD, "DE", "US"]


@st.composite
def datasets(draw):
    """Rows over non-contiguous crawl ids, in any order, with duplicates,
    and an IP → label map drawn per example (so a peer's label can change
    as it moves between IPs)."""
    crawl_ids = sorted(draw(st.sets(st.integers(0, 60), min_size=1, max_size=7)))
    triples = st.tuples(
        st.sampled_from(crawl_ids), st.integers(1, 6), st.sampled_from(IPS)
    )
    raw = draw(st.lists(triples, max_size=40))
    if raw:
        repeats = draw(st.lists(st.sampled_from(raw), max_size=10))
        raw = draw(st.permutations(raw + repeats))
    rows = [CrawlRow(crawl, make_peer(peer), ip) for crawl, peer, ip in raw]
    label_of = {ip: draw(st.sampled_from(LABELS)) for ip in IPS}
    return rows, label_of


class TestRandomRows:
    @settings(max_examples=150, deadline=None)
    @given(
        data=datasets(),
        numerator=st.sampled_from(LABELS + [counting.BOTH]),
        denominator=st.sampled_from(LABELS + [counting.BOTH, "absent"]),
    )
    def test_series_equal(self, data, numerator, denominator):
        rows, label_of = data
        assert_same_series(rows, label_of.__getitem__, numerator, denominator)

    @settings(max_examples=100, deadline=None)
    @given(
        data=datasets(),
        combine=st.sampled_from(COMBINERS),
        extra_crawls=st.sampled_from([None, 0, 3]),
    )
    def test_counts_equal(self, data, combine, extra_crawls):
        rows, label_of = data
        num_crawls = (
            None if extra_crawls is None
            else len({row.crawl_id for row in rows}) + extra_crawls
        )
        assert_same_counts(rows, label_of.__getitem__, combine, num_crawls)


# --- work counts -----------------------------------------------------------------


class CountingProperty:
    """``property_of_ip`` that records every call."""

    def __init__(self, labels: Dict[str, str]):
        self.labels = labels
        self.calls: Counter = Counter()

    def __call__(self, ip: str) -> str:
        self.calls[ip] += 1
        return self.labels[ip]


class CountingCombine:
    """A combiner that records how often it runs."""

    def __init__(self, combine):
        self.combine = combine
        self.calls = 0

    def __call__(self, labels):
        self.calls += 1
        return self.combine(labels)


def stable_rows(num_crawls: int = 12) -> List[CrawlRow]:
    """Peers that keep announcing the same (often shared) IPs every crawl,
    plus one that rotates — duplicates across crawls, peers and rows."""
    rows = []
    for crawl in range(0, 3 * num_crawls, 3):
        for peer in range(1, 6):
            rows.append(CrawlRow(crawl, make_peer(peer), "c1" if peer % 2 else "n1"))
            rows.append(CrawlRow(crawl, make_peer(peer), "n2"))
        rows.append(CrawlRow(crawl, make_peer(9), "n3" if crawl % 2 else "c2"))
        rows.append(CrawlRow(crawl, make_peer(1), "c1"))
    return rows


class TestWorkCounts:
    @pytest.mark.parametrize("method", METHODS, ids=lambda m: m.value)
    def test_one_label_lookup_per_ip_in_counts(self, method):
        rows = stable_rows()
        prop = CountingProperty(LABEL)
        counting.counts(rows, prop, method, cloud_status_combine)
        assert prop.calls == Counter({ip: 1 for ip in {row.ip for row in rows}})

    @pytest.mark.parametrize("method", METHODS, ids=lambda m: m.value)
    def test_series_is_linear_in_rows(self, method):
        rows = stable_rows()
        prop = CountingProperty(LABEL)
        combine = CountingCombine(cloud_status_combine)
        series = counting.cumulative_ratio_series(
            rows, prop, method, combine=combine
        )
        assert len(series) == 12
        assert prop.calls == Counter({ip: 1 for ip in {row.ip for row in rows}})
        assert combine.calls <= len(rows)
