"""Streaming campaign analytics over the monitor event stream.

Batch campaigns answer the paper's questions *after* the run; this
module answers them *during* it.  A :class:`StreamAnalytics` engine
reads the paper's headline quantities (§4-§6) while the monitors log:

* exact headline shares — events, cloud % by volume, the per-provider
  split, the gateway share and the download / advertisement / other
  class split — read from the Hydra and Bitswap
  :class:`~repro.core.traffic.LogSummary` folds the monitors keep as
  they append (the same fold the batch §5 figures use);
* Space-Saving top-K heavy hitters over sender peer IDs, sender IPs and
  requested CIDs, with top-1 % concentration from them;
* a mergeable quantile sketch over per-window per-peer request volumes
  (the Fig. 10/11 Pareto tail, live) and — fed by the crawl workers —
  over per-crawled-peer routing-table out-degrees (Fig. 7's CCDF);
* linear-counting distinct-count estimates of peers, IPs and CIDs.

The engine itself holds only the approximate sketches; the exact
shares are derived from the folds when :meth:`StreamAnalytics.headline`
or :meth:`~StreamAnalytics.snapshot` is read.

The monitors reach the engine through the ``observe_hydra`` /
``observe_bitswap`` / ``note`` hooks of :mod:`repro.obs.observer`; an
observer without an engine holds :data:`NULL_STREAM`, whose operations
are bare no-op calls — streaming-off campaigns stay bit-identical and
inside the perf gate.  Campaigns build a real engine when
:attr:`ScenarioConfig.stream` (or ``--sketches-out`` / ``--live``) asks
for one.

Sketches are approximate *by design*; the exact batch analyses remain
the source of truth for final figures.  Their accuracy contracts —
top-10 recall 1.0 on fixture campaigns, quantile rank error within the
declared ``epsilon``, distinct counts within 5 % — are pinned by
``tests/test_stream.py``.

Cross-worker determinism: the monitor-side stream runs in the campaign
process, and crawl workers return compact sketch states
(collected by :func:`repro.core.crawler.collect_crawl`) that the campaign
merges in crawl order via :meth:`StreamAnalytics.merge_crawl_state` — so the
merged state is bit-identical at any worker count, mirroring the metric
snapshot and trace-record merges.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Collection, Dict, List, Optional

from repro.obs.sketch import LinearCounter, QuantileSketch, SpaceSaving

if TYPE_CHECKING:  # repro.core imports the observer, which imports this
    from repro.core.traffic import LogSummary

__all__ = [
    "DEFAULT_WINDOW_SECONDS",
    "NULL_STREAM",
    "NullStream",
    "SKETCHES_SCHEMA",
    "StreamAnalytics",
    "deterministic_sketches_view",
    "render_stream_report",
]

#: Default aggregation window: one campaign tick at 4 ticks/day, the
#: same quantum as the detection features and traffic timestamps.
DEFAULT_WINDOW_SECONDS = 21_600.0

#: Schema marker on sketch snapshots, so ``repro obs report`` can tell a
#: sketches file/endpoint from a metrics snapshot.
SKETCHES_SCHEMA = "repro.obs.sketches/1"

#: Quantile fractions reported for every quantile sketch.
_REPORT_FRACTIONS = (0.5, 0.9, 0.99)


class StreamAnalytics:
    """The collecting engine (see module docs).

    :param window_seconds: width of the per-peer request-rate windows.
    :param hydra: the Hydra log's fold (``HydraBooster.summary``); the
        campaign hands its monitors' folds over as it builds them.
    :param bitswap: the Bitswap log's fold (``BitswapMonitor.summary``).
    :param provider_of: ``ip -> provider slug or None`` (the cloud
        database lookup); ``None`` classifies everything non-cloud.
    :param gateway_peers: ``() -> peer IDs`` of the gateway-class nodes
        (Fig. 10's set), called when the gateway share is read; ``None``
        counts no sender as a gateway.
    :param topk_capacity: Space-Saving capacity per keyed summary.
        While fewer distinct keys than this have been seen, counts —
        and therefore the fixture-scale accuracy pins — are exact.
    :param quantile_k: :class:`QuantileSketch` size parameter.
    :param cardinality_bits: :class:`LinearCounter` bitmap width.
    """

    enabled = True

    def __init__(
        self,
        window_seconds: float = DEFAULT_WINDOW_SECONDS,
        *,
        hydra: Optional["LogSummary"] = None,
        bitswap: Optional["LogSummary"] = None,
        provider_of: Optional[Callable[[str], Optional[str]]] = None,
        gateway_peers: Optional[Callable[[], Collection[object]]] = None,
        topk_capacity: int = 1024,
        quantile_k: int = 256,
        cardinality_bits: int = 1 << 15,
    ) -> None:
        from repro.core.traffic import LogSummary

        self.window_seconds = window_seconds
        self.topk_capacity = topk_capacity
        self.hydra = hydra if hydra is not None else LogSummary()
        self.bitswap = bitswap if bitswap is not None else LogSummary()
        self._provider_of = provider_of
        self._gateway_peers = gateway_peers
        # -- hydra (DHT request) side -----------------------------------
        self.peer_hitters = SpaceSaving(topk_capacity)
        self.ip_hitters = SpaceSaving(topk_capacity)
        self.peer_distinct = LinearCounter(cardinality_bits)
        self.ip_distinct = LinearCounter(cardinality_bits)
        #: per-window per-peer request counts, flushed into the rate
        #: sketch when the stream crosses a window boundary.
        self.peer_rates = QuantileSketch(quantile_k)
        self._rate_window: Optional[int] = None
        self._rate_counts: Dict[str, int] = {}
        # -- bitswap (content request) side ------------------------------
        self.cid_hitters = SpaceSaving(topk_capacity)
        self.cid_distinct = LinearCounter(cardinality_bits)
        # -- crawl side (merged from worker states) ----------------------
        self.crawl_degree = QuantileSketch(quantile_k)
        self.crawls = 0
        self.crawl_discovered = 0
        self.crawl_crawlable = 0
        # -- runtime notes (never part of the deterministic view) --------
        self.notes: Dict[str, int] = {}
        # memoised classifications: every cache is keyed by a value
        # object (str / PeerID / CID with a digest-derived hash), never
        # iterated, so PYTHONHASHSEED cannot reach any output.
        self._peer_keys: Dict[bytes, str] = {}
        self._cid_keys: Dict[object, str] = {}
        self._providers: Dict[str, str] = {}
        # Bound-method caches for the per-event hot path (observe_hydra
        # runs once per monitor event; each saves an attribute walk and
        # a method bind per call).
        self._peer_hitters_update = self.peer_hitters.update
        self._ip_hitters_update = self.ip_hitters.update

    # -- event intake -----------------------------------------------------

    @property
    def events(self) -> int:
        return self.hydra.total + self.bitswap.total

    def _peer_key(self, peer) -> str:
        key = self._peer_keys.get(peer.digest)
        if key is None:
            key = self._peer_keys[peer.digest] = str(peer)
            # Linear counting is idempotent per key, so the distinct
            # sketch only needs to hash each peer once — on the memo
            # miss — which keeps the per-event hot path hash-free.
            self.peer_distinct.update(key)
        return key

    def _provider(self, ip: str) -> str:
        looked_up = self._provider_of(ip) if self._provider_of else None
        return looked_up or "non-cloud"

    def observe_hydra(self, envelope) -> None:
        """Fold one logged DHT request (a ``MessageEnvelope``) in.

        This runs once per monitor event, so it is written flat: memo
        dicts bound to locals, slow work (``str()``, BLAKE2b hashing,
        cloud lookups) only on memo misses.  The end-to-end budget
        (streaming-on campaign within 1.10x of off) is gated by
        ``bench_obs_stream.py``.
        """
        ip = envelope.sender_ip
        if ip not in self._providers:
            self._providers[ip] = self._provider(ip)
            # First sighting of this IP (see _peer_key on idempotence).
            self.ip_distinct.update(ip)
        sender = envelope.sender
        peer_key = self._peer_keys.get(sender.digest)
        if peer_key is None:
            peer_key = self._peer_key(sender)
        self._peer_hitters_update(peer_key)
        self._ip_hitters_update(ip)
        window = int(envelope.timestamp // self.window_seconds)
        if self._rate_window is None:
            self._rate_window = window
        elif window != self._rate_window:
            self._flush_rate_window()
            self._rate_window = window
        self._rate_counts[peer_key] = self._rate_counts.get(peer_key, 0) + 1

    def observe_bitswap(self, timestamp: float, node, cid) -> None:
        """Fold one logged Bitswap want broadcast in."""
        key = self._cid_keys.get(cid)
        if key is None:
            key = self._cid_keys[cid] = str(cid)
            # First sighting of this CID (see _peer_key on idempotence).
            self.cid_distinct.update(key)
        self.cid_hitters.update(key)

    def _flush_rate_window(self) -> None:
        """Move the closed window's per-peer volumes into the rate sketch.

        Sorted by peer key so the sketch state is a pure function of the
        window's *contents*, independent of event arrival order within
        the window.
        """
        for key in sorted(self._rate_counts):
            self.peer_rates.update(float(self._rate_counts[key]))
        self._rate_counts.clear()

    def finalize(self, now: Optional[float] = None) -> None:
        """Flush the open aggregation window (end of campaign)."""
        if self._rate_counts:
            self._flush_rate_window()
        self._rate_window = None

    def merge_crawl_state(self, state: Dict[str, object]) -> None:
        """Fold one crawl worker's sketch state in (call in crawl order)."""
        self.crawl_degree.merge(QuantileSketch.from_state(state["degree"]))
        self.crawls += int(state.get("crawls", 1))
        self.crawl_discovered += int(state.get("discovered", 0))
        self.crawl_crawlable += int(state.get("crawlable", 0))

    def note(self, name: str, amount: int = 1) -> None:
        """Record a runtime note (surfaced on ``/status`` only; run-shape
        quantities like exec retries are environment-dependent, so notes
        never enter the deterministic snapshot view)."""
        self.notes[name] = self.notes.get(name, 0) + amount

    # -- live estimates ----------------------------------------------------

    def _top_fraction_share(
        self, hitters: SpaceSaving, distinct: LinearCounter, fraction: float
    ) -> float:
        """Estimated share of volume held by the top ``fraction`` of keys.

        While the summary is not full it tracks *every* key seen, so the
        key count — and the share — is exact, matching the batch
        :func:`repro.core.pareto.top_share` (same ceil semantics); once
        keys have been evicted the linear counter supplies the
        denominator estimate.
        """
        if not hitters.total:
            return 0.0
        if len(hitters) < hitters.capacity:
            population = len(hitters)
        else:
            population = max(len(hitters), int(round(distinct.estimate())))
        top_count = max(1, math.ceil(fraction * population - 1e-9))
        return hitters.top_sum(top_count) / hitters.total

    def headline(self) -> Dict[str, object]:
        """The paper's headline shares, so far.

        The exact shares are one pass over the Hydra fold's distinct
        (class, sender, IP) keys.  Read-only (no window flush), so the
        heartbeat and the live endpoints can call it freely without
        perturbing sketch state.
        """
        hydra = self.hydra
        total = hydra.total
        providers = self._providers
        # No record, no gateway share (and the campaign's gateway set
        # needs the overlay, which exists once the monitors do).
        gateways = self._gateway_peers() if total and self._gateway_peers else ()
        volumes: Dict[str, int] = {}
        gateway_volume = 0
        for (_, sender, ip), count in hydra.counts.items():
            provider = providers.get(ip) or self._provider(ip)
            volumes[provider] = volumes.get(provider, 0) + count
            if sender in gateways:
                gateway_volume += count
        non_cloud = volumes.pop("non-cloud", 0)
        # Cloud providers by volume share, descending (ties by name).
        shares = sorted(
            ((label, volume / total) for label, volume in volumes.items()),
            key=lambda item: (-item[1], item[0]),
        )
        return {
            "events": self.events,
            "hydra_requests": total,
            "bitswap_broadcasts": self.bitswap.total,
            "cloud_share_by_volume": (total - non_cloud) / total if total else 0.0,
            "gateway_share_by_volume": gateway_volume / total if total else 0.0,
            "top_provider": shares[0][0] if shares else None,
            "provider_shares_by_volume": dict(shares),
            "class_shares": dict(sorted(hydra.class_shares.items())),
            "top1pct_peer_share": self._top_fraction_share(
                self.peer_hitters, self.peer_distinct, 0.01
            ),
            "top1pct_ip_share": self._top_fraction_share(
                self.ip_hitters, self.ip_distinct, 0.01
            ),
            "distinct_peers_est": round(self.peer_distinct.estimate(), 1),
            "distinct_ips_est": round(self.ip_distinct.estimate(), 1),
            "distinct_cids_est": round(self.cid_distinct.estimate(), 1),
        }

    def _quantile_block(self, sketch: QuantileSketch) -> Dict[str, object]:
        block: Dict[str, object] = dict(sketch.quantiles(_REPORT_FRACTIONS))
        block["n"] = sketch.n
        block["epsilon"] = sketch.epsilon
        return block

    def snapshot(self) -> Dict[str, object]:
        """The full JSON-compatible sketch snapshot (see also
        :func:`deterministic_sketches_view`)."""
        return {
            "schema": SKETCHES_SCHEMA,
            "window_seconds": self.window_seconds,
            "events": self.events,
            "headline": self.headline(),
            "quantiles": {
                "peer_requests_per_window": self._quantile_block(self.peer_rates),
                "crawl_out_degree": self._quantile_block(self.crawl_degree),
            },
            "top": {
                "peers": [list(entry) for entry in self.peer_hitters.top(10)],
                "ips": [list(entry) for entry in self.ip_hitters.top(10)],
                "cids": [list(entry) for entry in self.cid_hitters.top(10)],
            },
            "crawl": {
                "crawls": self.crawls,
                "discovered": self.crawl_discovered,
                "crawlable": self.crawl_crawlable,
            },
            "sketches": {
                "peer_hitters": self.peer_hitters.to_state(),
                "ip_hitters": self.ip_hitters.to_state(),
                "cid_hitters": self.cid_hitters.to_state(),
                "peer_rates": self.peer_rates.to_state(),
                "crawl_degree": self.crawl_degree.to_state(),
                "peer_distinct": self.peer_distinct.to_state(),
                "ip_distinct": self.ip_distinct.to_state(),
                "cid_distinct": self.cid_distinct.to_state(),
            },
            "runtime": dict(sorted(self.notes.items())),
        }


class NullStream:
    """The disabled engine: every operation is a bare no-op call."""

    enabled = False

    def observe_hydra(self, envelope) -> None:
        pass

    def observe_bitswap(self, timestamp, node, cid) -> None:
        pass

    def note(self, name: str, amount: int = 1) -> None:
        pass

    def merge_crawl_state(self, state) -> None:
        pass

    def finalize(self, now=None) -> None:
        pass

    def headline(self) -> Dict[str, object]:
        return {}

    def snapshot(self) -> Dict[str, object]:
        return {"schema": SKETCHES_SCHEMA, "events": 0}


#: The process-wide disabled engine (shared, stateless).
NULL_STREAM = NullStream()


# -- snapshot views and rendering -------------------------------------------


def deterministic_sketches_view(snapshot: Dict[str, object]) -> Dict[str, object]:
    """The portion of a sketch snapshot that must be bit-identical across
    worker counts and hash seeds — everything except the ``runtime``
    notes, which record run shape (retries, pool rebuilds)."""
    return {key: value for key, value in snapshot.items() if key != "runtime"}


def _format_share(value) -> str:
    return f"{value:7.4f}" if isinstance(value, float) else f"{value!s:>7}"


def render_stream_report(snapshot: Dict[str, object]) -> str:
    """Render a sketch snapshot as the ``repro obs report`` text view.

    Accepts exactly what :meth:`StreamAnalytics.snapshot` produces — the
    same renderer serves a finished campaign's ``CampaignResult.sketches``,
    a ``--sketches-out`` file, and a live ``/sketches`` poll.
    """
    lines: List[str] = []
    window = snapshot.get("window_seconds")
    events = snapshot.get("events", 0)
    header = f"streaming sketches · {events:,} events"
    if window:
        header += f" · window {window:g}s"
    lines.append(header)
    headline = snapshot.get("headline") or {}
    if headline:
        lines.append("")
        lines.append("headline estimates")
        for key in (
            "cloud_share_by_volume",
            "gateway_share_by_volume",
            "top1pct_peer_share",
            "top1pct_ip_share",
            "distinct_peers_est",
            "distinct_ips_est",
            "distinct_cids_est",
        ):
            if key in headline:
                lines.append(f"  {key:<28} {_format_share(headline[key])}")
        top_provider = headline.get("top_provider")
        if top_provider:
            lines.append(f"  {'top_provider':<28} {top_provider:>7}")
        for label, table in (
            ("request classes", headline.get("class_shares") or {}),
            ("provider shares", headline.get("provider_shares_by_volume") or {}),
        ):
            if table:
                lines.append("")
                lines.append(label)
                for name, share in sorted(
                    table.items(), key=lambda item: (-item[1], item[0])
                ):
                    lines.append(f"  {name:<28} {share:7.4f}")
    quantiles = snapshot.get("quantiles") or {}
    if quantiles:
        lines.append("")
        lines.append("quantiles")
        for name, block in sorted(quantiles.items()):
            points = " · ".join(
                f"{key} {block[key]:g}"
                for key in sorted(k for k in block if k.startswith("p"))
            )
            lines.append(
                f"  {name:<28} {points}  (n={block.get('n', 0):,}, "
                f"ε={block.get('epsilon', 0):g})"
            )
    top = snapshot.get("top") or {}
    for kind in ("peers", "ips", "cids"):
        entries = top.get(kind) or []
        if not entries:
            continue
        lines.append("")
        lines.append(f"top {kind} (space-saving; count is an upper bound)")
        for key, count, error in entries:
            lines.append(f"  {str(key):<56} {count:>9,} (±{error:,})")
    crawl = snapshot.get("crawl") or {}
    if crawl.get("crawls"):
        lines.append("")
        lines.append(
            f"crawls merged: {crawl['crawls']} · discovered {crawl['discovered']:,}"
            f" · crawlable {crawl['crawlable']:,}"
        )
    runtime = snapshot.get("runtime") or {}
    if runtime:
        lines.append("")
        lines.append("runtime notes (non-deterministic)")
        for name, value in sorted(runtime.items()):
            lines.append(f"  {name:<28} {value:>9,}")
    return "\n".join(lines)
