"""Streaming campaign analytics over the monitor event stream.

Batch campaigns answer the paper's questions *after* the run; this
module answers them *during* it.  A :class:`StreamAnalytics` engine
reads the paper's headline quantities (§4-§6) while the monitors log:

* exact §5 numbers read from the Hydra and Bitswap
  :class:`~repro.core.traffic.LogSummary` folds the monitors keep as
  they append (the same fold the batch §5 figures use): events, cloud %
  by volume, the per-provider split, the gateway share, the download /
  advertisement / other class split, top-1 % peer and IP concentration
  (Figs. 10-11), the top peers and IPs by volume and the distinct peer,
  IP and CID counts (Fig. 9);
* an exact per-CID count of the Bitswap broadcasts (the top CIDs),
  which the fold does not keep;
* a mergeable quantile sketch over per-window per-peer request volumes
  (the Fig. 10/11 Pareto tail, live) and — fed by the crawl workers —
  over per-crawled-peer routing-table out-degrees (Fig. 7's CCDF).

The per-event hooks keep only the CID counts and the open rate window;
everything else is derived from the folds when
:meth:`StreamAnalytics.headline` or :meth:`~StreamAnalytics.snapshot` is
read.  The simulated network bounds the number of distinct senders, so
exact volumes cost no more memory than the folds already hold.

The monitors reach the engine through the ``observe_hydra`` /
``observe_bitswap`` / ``note`` hooks of :mod:`repro.obs.observer`; an
observer without an engine holds :data:`NULL_STREAM`, whose operations
are bare no-op calls — streaming-off campaigns stay bit-identical and
inside the perf gate.  Campaigns build a real engine when
:attr:`ScenarioConfig.stream` or ``live`` asks for one (``--stream``,
``--sketches-out`` or ``--live`` on the command line).  The final
snapshot lands on ``CampaignResult.sketches``; the caller writes it
(``repro campaign --sketches-out``).

Only the two quantile blocks are approximate (rank error within the
declared ``epsilon``); ``tests/test_stream.py`` pins every other number
``==`` to the batch analyses.

Cross-worker determinism: the monitor-side stream runs in the campaign
process, and crawl workers return compact sketch states
(collected by :func:`repro.core.crawler.collect_crawl`) that the campaign
merges in crawl order via :meth:`StreamAnalytics.merge_crawl_state` — so the
merged state is bit-identical at any worker count, mirroring the metric
snapshot and trace-record merges.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Callable, Collection, Dict, List, Optional, Tuple

from repro.obs.sketch import QuantileSketch

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
SKETCHES_SCHEMA = "repro.obs.sketches/2"

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
    ) -> None:
        from repro.core.traffic import LogSummary

        self.window_seconds = window_seconds
        self.hydra = hydra if hydra is not None else LogSummary()
        self.bitswap = bitswap if bitswap is not None else LogSummary()
        self._provider_of = provider_of
        self._gateway_peers = gateway_peers
        # -- hydra (DHT request) side -----------------------------------
        #: per-window request counts by sender digest, flushed into the
        #: rate sketch when the stream crosses a window boundary.
        self.peer_rates = QuantileSketch()
        self._rate_window: Optional[float] = None
        self._rate_counts: Dict[bytes, int] = {}
        # -- bitswap (content request) side ------------------------------
        #: logged broadcasts per CID digest, in first-seen order, and the
        #: first CID seen per digest (``CID.__hash__`` runs in Python).
        self.cid_counts: Dict[bytes, int] = {}
        self._cids: Dict[bytes, object] = {}
        # -- crawl side (merged from worker states) ----------------------
        self.crawl_degree = QuantileSketch()
        self.crawls = 0
        self.crawl_discovered = 0
        self.crawl_crawlable = 0
        # -- runtime notes (never part of the deterministic view) --------
        self.notes: Dict[str, int] = {}
        # memoised lookups: every cache is keyed by a value object (str
        # or digest bytes), never iterated, so PYTHONHASHSEED cannot
        # reach any output.  _peer_keys maps a sender digest to
        # str(peer), the rate flush's sort key.
        self._peer_keys: Dict[bytes, str] = {}
        self._providers: Dict[str, str] = {}

    # -- event intake -----------------------------------------------------

    @property
    def events(self) -> int:
        return self.hydra.total + self.bitswap.total

    def _provider(self, ip: str) -> str:
        looked_up = self._provider_of(ip) if self._provider_of else None
        return looked_up or "non-cloud"

    def observe_hydra(self, envelope) -> None:
        """Count one logged DHT request (a ``MessageEnvelope``) in the
        open rate window.

        This runs once per monitor event, so it is written flat: one
        dict update per event, ``str()`` of the sender only the first
        time it is seen.  The end-to-end budget (streaming-on campaign
        within 1.10x of off) is gated by ``bench_obs_stream.py``.
        """
        window = envelope.timestamp // self.window_seconds
        if window != self._rate_window:
            self._flush_rate_window()
            self._rate_window = window
        sender = envelope.sender
        digest = sender.digest
        counts = self._rate_counts
        count = counts.get(digest)
        if count is None:
            if digest not in self._peer_keys:
                self._peer_keys[digest] = str(sender)
            counts[digest] = 1
        else:
            counts[digest] = count + 1

    def observe_bitswap(self, cid) -> None:
        """Count one logged Bitswap want broadcast."""
        digest = cid.digest
        counts = self.cid_counts
        count = counts.get(digest)
        if count is None:
            self._cids[digest] = cid
            counts[digest] = 1
        else:
            counts[digest] = count + 1

    def _flush_rate_window(self) -> None:
        """Move the closed window's per-peer volumes into the rate sketch.

        Sorted by ``str(peer)`` so the sketch state is a pure function
        of the window's *contents*, independent of event arrival order
        within the window.
        """
        counts = self._rate_counts
        for digest in sorted(counts, key=self._peer_keys.__getitem__):
            self.peer_rates.update(float(counts[digest]))
        counts.clear()

    def finalize(self, now: Optional[float] = None) -> None:
        """Flush the open aggregation window (end of campaign)."""
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

    # -- live reads ---------------------------------------------------------

    def _read(self) -> Tuple[Dict[str, object], Dict[object, int], Dict[str, int]]:
        """The headline, with the peer and IP volumes it was derived from.

        Two passes over the Hydra fold's distinct (class, sender, IP)
        keys.  Read-only for the analytics (no window flush), so the
        heartbeat and the live endpoints can call it freely.
        """
        from repro.core.pareto import top_share

        hydra = self.hydra
        total = hydra.total
        providers = self._providers
        # No record, no gateway share (and the campaign's gateway set
        # needs the overlay, which exists once the monitors do).
        gateways = self._gateway_peers() if total and self._gateway_peers else ()
        peer_volumes = hydra.peer_volumes()
        ip_volumes = hydra.ip_volumes()
        volumes: Dict[str, int] = {}
        for ip, count in ip_volumes.items():
            provider = providers.get(ip)
            if provider is None:
                provider = providers[ip] = self._provider(ip)
            volumes[provider] = volumes.get(provider, 0) + count
        gateway_volume = sum(
            count for sender, count in peer_volumes.items() if sender in gateways
        )
        non_cloud = volumes.pop("non-cloud", 0)
        # Cloud providers by volume share, descending (ties by name).
        shares = sorted(
            ((label, volume / total) for label, volume in volumes.items()),
            key=lambda item: (-item[1], item[0]),
        )
        headline = {
            "events": self.events,
            "hydra_requests": total,
            "bitswap_broadcasts": self.bitswap.total,
            "cloud_share_by_volume": (total - non_cloud) / total if total else 0.0,
            "gateway_share_by_volume": gateway_volume / total if total else 0.0,
            "top_provider": shares[0][0] if shares else None,
            "provider_shares_by_volume": dict(shares),
            "class_shares": dict(sorted(hydra.class_shares.items())),
            "top1pct_peer_share": top_share(peer_volumes, 0.01),
            "top1pct_ip_share": top_share(ip_volumes, 0.01),
            "distinct_peers_est": hydra.unique_peers,
            "distinct_ips_est": hydra.unique_ips,
            "distinct_cids_est": self.bitswap.unique_cids,
        }
        return headline, peer_volumes, ip_volumes

    def headline(self) -> Dict[str, object]:
        """The paper's headline shares and counts, so far (exact)."""
        return self._read()[0]

    def _quantile_block(self, sketch: QuantileSketch) -> Dict[str, object]:
        block: Dict[str, object] = dict(sketch.quantiles(_REPORT_FRACTIONS))
        block["n"] = sketch.n
        block["epsilon"] = sketch.epsilon
        return block

    def snapshot(self) -> Dict[str, object]:
        """The full JSON-compatible sketch snapshot (see also
        :func:`deterministic_sketches_view`)."""
        headline, peer_volumes, ip_volumes = self._read()
        return {
            "schema": SKETCHES_SCHEMA,
            "window_seconds": self.window_seconds,
            "events": self.events,
            "headline": headline,
            "quantiles": {
                "peer_requests_per_window": self._quantile_block(self.peer_rates),
                "crawl_out_degree": self._quantile_block(self.crawl_degree),
            },
            "top": {
                "peers": _top(peer_volumes),
                "ips": _top(ip_volumes),
                "cids": _top(self.cid_counts, lambda digest: str(self._cids[digest])),
            },
            "crawl": {
                "crawls": self.crawls,
                "discovered": self.crawl_discovered,
                "crawlable": self.crawl_crawlable,
            },
            "sketches": {
                "peer_rates": self.peer_rates.to_state(),
                "crawl_degree": self.crawl_degree.to_state(),
            },
            "runtime": dict(sorted(self.notes.items())),
        }


def _top(volumes: Dict[object, int], label=str) -> List[List[object]]:
    """The 10 largest volumes as ``[label(key), count]`` pairs, by
    descending count (ties by the label)."""
    ranked = heapq.nsmallest(
        10, volumes.items(), key=lambda item: (-item[1], label(item[0]))
    )
    return [[label(key), count] for key, count in ranked]


class NullStream:
    """The disabled engine: every operation is a bare no-op call."""

    enabled = False

    def observe_hydra(self, envelope) -> None:
        pass

    def observe_bitswap(self, cid) -> None:
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
        lines.append("headline")
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
        lines.append(f"top {kind}")
        for key, count in entries:
            lines.append(f"  {str(key):<56} {count:>9,}")
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
