"""Counting methodologies (paper §3, Table 1).

Nodes announce multiple IP addresses which may differ in the derived
property (cloud provider, country).  The paper contrasts:

* **G-IP** (*Global, Unique IP*): count unique IPs and their mappings
  over the entire dataset — the methodology of Trautwein et al.  It
  overcounts peers with multiple or rotating IPs and includes churners.
* **G-N** (*Global, Unique Nodes*): assign each *peer* a single value by
  majority vote and count peers over all crawls — still overcounts
  peer-ID regenerators and churners.
* **A-N** (*Average over Crawls, Unique Nodes*): assign each peer a value
  per crawl and average the per-crawl counts over all crawls — the
  paper's proposal, which estimates a *typical* snapshot.

For the paper's Table 1 example (two crawls, peers ``p1``/``p2``), G-IP
yields ``DE=2, US=2`` while A-N yields ``DE=0.5, US=1``.

Every function derives one label per distinct IP (a single
``property_of_ip`` call each) and works on those.  A combiner, which
folds a peer's labels into one, must depend only on the *multiset* of
labels, not on their order: :func:`cumulative_ratio_series` feeds a
peer's G-N labels crawl by crawl, which need not be the row order.
Both shipped combiners (:func:`majority_vote`,
:func:`cloud_status_combine`) qualify.
"""

from __future__ import annotations

import enum
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.ids.peerid import PeerID


@dataclass(frozen=True)
class CrawlRow:
    """One (crawl, peer, ip) observation — the dataset shape of Table 1."""

    crawl_id: int
    peer: PeerID
    ip: str


class CountingMethod(enum.Enum):
    G_IP = "G-IP"
    G_N = "G-N"
    A_N = "A-N"


PropertyFn = Callable[[str], str]
# A peer's labels → its single label.  Must depend only on the multiset
# of labels (see the module docstring).
CombineFn = Callable[[Sequence[str]], str]


def majority_vote(labels: Sequence[str]) -> str:
    """The most frequent label; ties break lexicographically (stable)."""
    if not labels:
        raise ValueError("cannot vote over an empty label sequence")
    tallies = Counter(labels)
    top_count = max(tallies.values())
    # Deterministic tie-break: highest count, then smallest label.
    return min(label for label, count in tallies.items() if count == top_count)


def make_rows(observations: Iterable[Tuple[int, PeerID, str]]) -> List[CrawlRow]:
    return [CrawlRow(crawl_id, peer, ip) for crawl_id, peer, ip in observations]


def _ip_labels(rows: Sequence[CrawlRow], property_of_ip: PropertyFn) -> Dict[str, str]:
    """Each distinct IP's label, in first-seen order; one lookup per IP."""
    labels: Dict[str, str] = {}
    for row in rows:
        if row.ip not in labels:
            labels[row.ip] = property_of_ip(row.ip)
    return labels


# ---------------------------------------------------------------------------
# The three methodologies
# ---------------------------------------------------------------------------


def g_ip_counts(rows: Sequence[CrawlRow], property_of_ip: PropertyFn) -> Dict[str, float]:
    """Unique IPs over the whole dataset, attributed individually."""
    counts: Counter = Counter(_ip_labels(rows, property_of_ip).values())
    return {label: float(count) for label, count in counts.items()}


def g_n_counts(
    rows: Sequence[CrawlRow],
    property_of_ip: PropertyFn,
    combine: CombineFn = majority_vote,
) -> Dict[str, float]:
    """Unique peers over the whole dataset, one label each."""
    label_of = _ip_labels(rows, property_of_ip)
    labels_by_peer: Dict[PeerID, List[str]] = defaultdict(list)
    seen: set = set()
    for row in rows:
        key = (row.peer, row.ip)
        if key in seen:
            continue
        seen.add(key)
        labels_by_peer[row.peer].append(label_of[row.ip])
    counts: Counter = Counter(combine(labels) for labels in labels_by_peer.values())
    return {label: float(count) for label, count in counts.items()}


def a_n_counts(
    rows: Sequence[CrawlRow],
    property_of_ip: PropertyFn,
    combine: CombineFn = majority_vote,
    num_crawls: Optional[int] = None,
) -> Dict[str, float]:
    """Per-crawl peer labels, averaged over all crawls (the paper's A-N).

    ``num_crawls`` defaults to the number of distinct crawl IDs present;
    pass it explicitly when some crawls contain no rows.
    """
    label_of = _ip_labels(rows, property_of_ip)
    by_crawl: Dict[int, Dict[PeerID, List[str]]] = defaultdict(lambda: defaultdict(list))
    for row in rows:
        by_crawl[row.crawl_id][row.peer].append(label_of[row.ip])
    crawls = num_crawls if num_crawls is not None else len(by_crawl)
    if crawls == 0:
        return {}
    totals: Counter = Counter()
    for peers in by_crawl.values():
        totals.update(combine(labels) for labels in peers.values())
    return {label: count / crawls for label, count in totals.items()}


def counts(
    rows: Sequence[CrawlRow],
    property_of_ip: PropertyFn,
    method: CountingMethod,
    combine: CombineFn = majority_vote,
    num_crawls: Optional[int] = None,
) -> Dict[str, float]:
    """Dispatch to the chosen methodology."""
    if method is CountingMethod.G_IP:
        return g_ip_counts(rows, property_of_ip)
    if method is CountingMethod.G_N:
        return g_n_counts(rows, property_of_ip, combine)
    return a_n_counts(rows, property_of_ip, combine, num_crawls)


def shares(count_map: Dict[str, float]) -> Dict[str, float]:
    """Normalize counts to shares (empty map stays empty)."""
    total = sum(count_map.values())
    if total <= 0:
        return {}
    return {label: value / total for label, value in count_map.items()}


# ---------------------------------------------------------------------------
# Cloud-status combiner (the BOTH label of Fig. 3)
# ---------------------------------------------------------------------------

CLOUD = "cloud"
NON_CLOUD = "non-cloud"
BOTH = "both"


def cloud_status_combine(labels: Sequence[str]) -> str:
    """Peer-level cloud status: any mix of cloud and non-cloud → BOTH."""
    has_cloud = any(label == CLOUD for label in labels)
    has_non_cloud = any(label == NON_CLOUD for label in labels)
    if has_cloud and has_non_cloud:
        return BOTH
    return CLOUD if has_cloud else NON_CLOUD


# ---------------------------------------------------------------------------
# Fig. 4: ratio as a function of cumulative crawls
# ---------------------------------------------------------------------------


def cumulative_ratio_series(
    rows: Sequence[CrawlRow],
    property_of_ip: PropertyFn,
    method: CountingMethod,
    numerator_label: str = CLOUD,
    denominator_label: str = NON_CLOUD,
    combine: CombineFn = majority_vote,
) -> List[Tuple[int, float]]:
    """``(k, ratio)`` using only the first ``k`` crawls, for each ``k``.

    Under G-IP the ratio drifts as rotating-IP churners accumulate; under
    A-N it stays flat (paper Fig. 4).  Equal to :func:`counts` on each
    crawl-id prefix, but computed in one forward pass over the crawls
    with integer tallies, so the cost is O(rows), not O(crawls · rows).
    A missing or zero denominator gives ``inf``.
    """
    label_of = _ip_labels(rows, property_of_ip)
    rows_by_crawl: Dict[int, List[CrawlRow]] = defaultdict(list)
    for row in rows:
        rows_by_crawl[row.crawl_id].append(row)
    crawls = [rows_by_crawl[crawl_id] for crawl_id in sorted(rows_by_crawl)]
    if method is CountingMethod.G_IP:
        tallies = _g_ip_prefix_tallies(crawls, label_of)
    elif method is CountingMethod.G_N:
        tallies = _g_n_prefix_tallies(crawls, label_of, combine)
    else:
        tallies = _a_n_prefix_tallies(crawls, label_of, combine)
    series: List[Tuple[int, float]] = []
    for k, tally in enumerate(tallies, start=1):
        numerator, denominator = tally[numerator_label], tally[denominator_label]
        if not denominator:
            ratio = float("inf")
        elif method is CountingMethod.A_N:
            ratio = (numerator / k) / (denominator / k)
        else:
            ratio = float(numerator) / float(denominator)
        series.append((k, ratio))
    return series


# Each generator yields, after every crawl, the integer label tally of the
# crawls so far (the same Counter object, updated in place).


def _g_ip_prefix_tallies(
    crawls: List[List[CrawlRow]], label_of: Dict[str, str]
) -> Iterator[Counter]:
    """Unique IPs: each IP's label counts once, in its first crawl."""
    tally: Counter = Counter()
    seen: Set[str] = set()
    for crawl in crawls:
        for row in crawl:
            if row.ip not in seen:
                seen.add(row.ip)
                tally[label_of[row.ip]] += 1
        yield tally


def _g_n_prefix_tallies(
    crawls: List[List[CrawlRow]], label_of: Dict[str, str], combine: CombineFn
) -> Iterator[Counter]:
    """Unique peers: only peers that gained an IP in a crawl are
    re-combined, moving their count from the old label to the new."""
    tally: Counter = Counter()
    seen: Set[Tuple[PeerID, str]] = set()
    labels_by_peer: Dict[PeerID, List[str]] = defaultdict(list)
    label_by_peer: Dict[PeerID, str] = {}
    for crawl in crawls:
        changed: Dict[PeerID, None] = {}
        for row in crawl:
            key = (row.peer, row.ip)
            if key not in seen:
                seen.add(key)
                labels_by_peer[row.peer].append(label_of[row.ip])
                changed[row.peer] = None
        for peer in changed:
            if peer in label_by_peer:
                tally[label_by_peer[peer]] -= 1
            new = label_by_peer[peer] = combine(labels_by_peer[peer])
            tally[new] += 1
        yield tally


def _a_n_prefix_tallies(
    crawls: List[List[CrawlRow]], label_of: Dict[str, str], combine: CombineFn
) -> Iterator[Counter]:
    """Per-crawl peer labels, summed; the caller divides by ``k``."""
    tally: Counter = Counter()
    for crawl in crawls:
        labels_by_peer: Dict[PeerID, List[str]] = defaultdict(list)
        for row in crawl:
            labels_by_peer[row.peer].append(label_of[row.ip])
        tally.update(combine(labels) for labels in labels_by_peer.values())
        yield tally
