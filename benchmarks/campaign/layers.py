"""Outside-in per-layer tracing for the campaign benchmark.

:func:`install` wraps the public entry points of each layer (see
:data:`PROBES`) from the benchmark's own files, so ``src/`` stays as it
is.  Every wrapper records a call count, inclusive time and self time;
self time is inclusive time minus the time of nested wrapped calls, kept
on a span stack.  Coarse calls (a bootstrap, a tick, a crawl, a figure)
also leave a span with name, start, end and parent; calls made once per
event (a Hydra record, a log append, a join) are only aggregated.  All
spans stay in memory until :func:`write_chrome_trace` writes them.

The wrappers record only inside :meth:`Recorder.phase`, and they never
change arguments or results, so a traced campaign is the same campaign:
the benchmark checks that its output digest matches the untraced one.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.scenario import report


@dataclass(frozen=True)
class Probe:
    """One wrapped entry point."""

    #: aggregation key; several targets may share one (both tick engines).
    key: str
    #: ``module:attribute`` or ``module:Class.method`` to patch.
    target: str
    #: emit a span per call (coarse calls only).
    span: bool = False
    #: evaluated on the call's arguments before the call (outside timing).
    before: Optional[Callable[[tuple], object]] = None
    #: named work counters from (args, result, before), after the call.
    work: Optional[Callable[[tuple, object, object], Dict[str, float]]] = None


def _requests(engine) -> int:
    return engine.stats["downloads"] + engine.stats["publishes"]


def _tick_before(args: tuple) -> Tuple[int, int]:
    engine = args[0]
    return _requests(engine), len(engine.overlay.online_by_peer)


def _tick_work(args: tuple, result, before) -> Dict[str, float]:
    requests, online = before
    return {
        "workload.requests": _requests(args[0]) - requests,
        "workload.node_ticks": online,
    }


PROBES: Tuple[Probe, ...] = (
    Probe("world.build", "repro.world.population:PopulationBuilder.build", span=True),
    Probe(
        "netsim.bootstrap",
        "repro.netsim.network:Overlay.bootstrap",
        span=True,
        work=lambda args, result, before: {
            "netsim.bootstrap_nodes": len(args[0].online_by_peer)
        },
    ),
    Probe(
        "netsim.run_until",
        "repro.netsim.clock:EventScheduler.run_until",
        span=True,
        work=lambda args, result, before: {"netsim.events": result},
    ),
    Probe("netsim.bring_online", "repro.netsim.network:Overlay.bring_online"),
    Probe("netsim.take_offline", "repro.netsim.network:Overlay.take_offline"),
    Probe("netsim.refresh_node", "repro.netsim.network:Overlay.refresh_node"),
    Probe("netsim.advertise_presence", "repro.netsim.network:Overlay.advertise_presence"),
    Probe("netsim.rotate_addresses", "repro.netsim.network:Overlay.rotate_addresses"),
    Probe(
        "workload.run_tick",
        "repro.workload.engine:TrafficEngine.run_tick",
        span=True,
        before=_tick_before,
        work=_tick_work,
    ),
    Probe(
        "workload.run_tick",
        "repro.workload.engine:VectorizedTrafficEngine.run_tick",
        span=True,
        before=_tick_before,
        work=_tick_work,
    ),
    Probe(
        "workload.reprovide",
        "repro.workload.engine:TrafficEngine.platform_reprovide_pass",
        span=True,
    ),
    Probe(
        "workload.reprovide",
        "repro.workload.engine:TrafficEngine.user_reprovide_pass",
        span=True,
    ),
    Probe(
        "workload.reprovide",
        "repro.workload.engine:VectorizedTrafficEngine.user_reprovide_pass",
        span=True,
    ),
    Probe("workload.openloop", "repro.workload.openloop:OpenLoopDriver.run_tick", span=True),
    # Lookups are patched at the binding each caller imported.
    Probe("kademlia.lookup", "repro.monitors.provider_fetcher:iterative_find_providers"),
    Probe("kademlia.lookup", "repro.indexer.resolution:iterative_find_providers"),
    Probe("crawler.freeze", "repro.core.crawler:DHTCrawler.task", span=True),
    Probe(
        "crawler.execute",
        "repro.scenario.run:execute_crawl_task",
        span=True,
        work=lambda args, result, before: {"crawler.requests": result.requests_sent},
    ),
    Probe("monitors.hydra_record", "repro.monitors.hydra:HydraBooster.record"),
    Probe(
        "monitors.bitswap_observe",
        "repro.monitors.bitswap_monitor:BitswapMonitor.observe_broadcast",
        work=lambda args, result, before: {"monitors.bitswap_records": int(result)},
    ),
    Probe("monitors.provider_fetch", "repro.monitors.provider_fetcher:ProviderRecordFetcher.fetch"),
    Probe("store.append", "repro.store.eventlog:EventLog.append"),
    Probe("store.flush", "repro.store.backend:StorageBackend.flush"),
    Probe("store.flush", "repro.store.backend:JsonlBackend.flush"),
    Probe("store.flush", "repro.store.backend:SqliteBackend.flush"),
    Probe(
        "oneshot.gateway_probe",
        "repro.monitors.gateway_probe:GatewayProber.run_campaign",
        span=True,
    ),
    Probe("oneshot.dns_scan", "repro.dns.scanner:ActiveScanner.scan", span=True),
    Probe("oneshot.ens_scrape", "repro.ens.scraper:ENSContenthashScraper.scrape", span=True),
) + tuple(
    # One span per figure: full_report looks each *_report up at call time.
    Probe(f"analysis.{name[: -len('_report')]}", f"repro.scenario.report:{name}", span=True)
    for name, fn in sorted(vars(report).items())
    if name.endswith("_report")
    and name != "full_report"
    and getattr(fn, "__module__", None) == report.__name__
)


@dataclass(slots=True)
class _Frame:
    key: str
    start: float
    span_id: int
    child: float = 0.0


class Recorder:
    """Counts, inclusive/self times and spans of the wrapped calls."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.counters: Dict[str, float] = defaultdict(float)
        #: (id, parent id or -1, name, start, end) in seconds.
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self.recording = False
        self._stack: List[_Frame] = []
        self._active: set = set()
        self._next_span = 0

    @contextmanager
    def phase(self, name: str):
        """Record wrapped calls inside this block, under a root span."""
        self.recording = True
        frame = self._enter(name, span=True)
        try:
            yield
        finally:
            self._exit(frame)
            self.recording = False

    def _enter(self, key: str, span: bool) -> _Frame:
        span_id = -1
        if span:
            span_id = self._next_span
            self._next_span += 1
        self._active.add(key)
        frame = _Frame(key, time.perf_counter(), span_id)
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self._active.discard(frame.key)
        elapsed = end - frame.start
        self.calls[frame.key] += 1
        self.inclusive[frame.key] += elapsed
        self.self_time[frame.key] += elapsed - frame.child
        if self._stack:
            self._stack[-1].child += elapsed
        if frame.span_id >= 0:
            parent = next(
                (f.span_id for f in reversed(self._stack) if f.span_id >= 0), -1
            )
            self.spans.append((frame.span_id, parent, frame.key, frame.start, end))

    def wrap(self, probe: Probe, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # Re-entry under the same key (the vectorized engine delegating
            # to the scalar one) counts once, as the outer call.
            if not self.recording or probe.key in self._active:
                return fn(*args, **kwargs)
            before = probe.before(args) if probe.before is not None else None
            frame = self._enter(probe.key, probe.span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if probe.work is not None:
                for name, value in probe.work(args, result, before).items():
                    self.counters[name] += value
            return result

        return wrapper

    def timed_scan(self, log, iterator: Iterator) -> Iterator:
        """Yield from ``iterator``, timing only the time spent inside
        ``next()`` (the consumer's loop body is not store time)."""
        if not self.recording:
            yield from iterator
            return
        if not log.backend.stores_objects:
            # Memory logs hand back stored objects and decode nothing;
            # a pass counts when records come back from storage.
            self.counters["store.scan_passes"] += 1
        owner = self._stack[-1] if self._stack else None
        clock = time.perf_counter
        spent = 0.0
        records = 0
        try:
            while True:
                start = clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    spent += clock() - start
                    return
                spent += clock() - start
                records += 1
                yield item
        finally:
            self.calls["store.scan"] += 1
            self.inclusive["store.scan"] += spent
            self.self_time["store.scan"] += spent
            self.counters["store.scanned_records"] += records
            if owner is not None:
                owner.child += spent


def _resolve(target: str) -> Tuple[object, str]:
    module_name, _, path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute


@contextmanager
def install(recorder: Recorder):
    """Patch every probe (and log iteration) for the block; restore after."""
    from repro.store.eventlog import EventLog

    patched: List[Tuple[object, str, object]] = []
    try:
        for probe in PROBES:
            owner, attribute = _resolve(probe.target)
            # vars(), not getattr: restore exactly what the owner defined.
            original = vars(owner)[attribute]
            patched.append((owner, attribute, original))
            setattr(owner, attribute, recorder.wrap(probe, original))
        original_iter = EventLog.__iter__
        patched.append((EventLog, "__iter__", original_iter))

        def __iter__(log):
            return recorder.timed_scan(log, original_iter(log))

        EventLog.__iter__ = __iter__
        yield recorder
    finally:
        for owner, attribute, original in reversed(patched):
            setattr(owner, attribute, original)


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator / denominator * scale if denominator else 0.0


NETSIM_EVENTS = (
    "bring_online",
    "take_offline",
    "refresh_node",
    "advertise_presence",
    "rotate_addresses",
)


def layer_metrics(recorder: Recorder, exec_errors: int) -> Dict[str, float]:
    """The per-layer metrics of one traced campaign.

    Times are inclusive: an entry point's wall time with everything it
    calls, which is what a change to that layer can save.
    :func:`function_table` has the self times.
    """
    t = recorder.inclusive
    n = recorder.calls
    c = recorder.counters
    m: Dict[str, float] = {
        "world.build_s": t["world.build"],
        "netsim.bootstrap_s": t["netsim.bootstrap"],
        "netsim.bootstrap_us_per_node": _ratio(
            t["netsim.bootstrap"], c["netsim.bootstrap_nodes"], 1e6
        ),
        "netsim.events": c["netsim.events"],
        "netsim.run_until_s": t["netsim.run_until"],
        "netsim.us_per_event": _ratio(t["netsim.run_until"], c["netsim.events"], 1e6),
    }
    for name in NETSIM_EVENTS:
        m[f"netsim.{name}_n"] = n[f"netsim.{name}"]
        m[f"netsim.{name}_s"] = t[f"netsim.{name}"]
    m.update(
        {
            "workload.busy_s": t["workload.run_tick"] + t["workload.reprovide"],
            "workload.run_tick_s": t["workload.run_tick"],
            "workload.reprovide_s": t["workload.reprovide"],
            "workload.openloop_s": t["workload.openloop"],
            "workload.requests": c["workload.requests"],
            "workload.us_per_request": _ratio(
                t["workload.run_tick"], c["workload.requests"], 1e6
            ),
            "workload.node_ticks": c["workload.node_ticks"],
            "workload.us_per_node_tick": _ratio(
                t["workload.run_tick"], c["workload.node_ticks"], 1e6
            ),
            "kademlia.lookups": n["kademlia.lookup"],
            "kademlia.lookup_s": t["kademlia.lookup"],
            "kademlia.us_per_lookup": _ratio(
                t["kademlia.lookup"], n["kademlia.lookup"], 1e6
            ),
            "crawler.crawls": n["crawler.execute"],
            "crawler.freeze_s": t["crawler.freeze"],
            "crawler.execute_s": t["crawler.execute"],
            "crawler.requests": c["crawler.requests"],
            "crawler.us_per_request": _ratio(
                t["crawler.execute"], c["crawler.requests"], 1e6
            ),
            "exec.errors": exec_errors,
            "monitors.hydra_records": n["monitors.hydra_record"],
            "monitors.bitswap_records": c["monitors.bitswap_records"],
            "monitors.hydra_record_s": t["monitors.hydra_record"],
            "monitors.provider_fetches": n["monitors.provider_fetch"],
            "monitors.provider_fetch_s": t["monitors.provider_fetch"],
            "monitors.us_per_fetch": _ratio(
                t["monitors.provider_fetch"], n["monitors.provider_fetch"], 1e6
            ),
            "store.appends": n["store.append"],
            "store.append_s": t["store.append"],
            "store.flush_s": t["store.flush"],
            "store.scan_passes": c["store.scan_passes"],
            "store.scanned_records": c["store.scanned_records"],
            "store.scan_s": t["store.scan"],
            "store.us_per_scanned_record": _ratio(
                t["store.scan"], c["store.scanned_records"], 1e6
            ),
            "oneshot.gateway_probe_s": t["oneshot.gateway_probe"],
            "oneshot.dns_scan_s": t["oneshot.dns_scan"],
            "oneshot.ens_scrape_s": t["oneshot.ens_scrape"],
        }
    )
    for probe in PROBES:
        if probe.key.startswith("analysis."):
            m[f"{probe.key}_s"] = t[probe.key]
    return m


def unit(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if "us_per_" in name:
        return "us"
    if name in ("trace.overhead", "host.cpu_over_wall", "host.slowdown"):
        return "ratio"
    return "count"


#: Times of work that some workload never does (the tick loop with
#: traffic off, `OpenLoopDriver` on closed-loop workloads) read
#: exactly 0 s on every run there; they stay in ``<workload>.layers.json``
#: and the printed table, and the reported line carries their work
#: counts and ``workload.busy_s`` instead.
UNREPORTED = (
    "workload.run_tick_s",
    "workload.openloop_s",
    "workload.us_per_request",
    "workload.us_per_node_tick",
)


def function_table(recorder: Recorder) -> List[Dict[str, object]]:
    """Every wrapped key with its count and times, by self time."""
    rows = [
        {
            "key": key,
            "calls": recorder.calls[key],
            "inclusive_s": recorder.inclusive[key],
            "self_s": recorder.self_time[key],
        }
        for key in recorder.calls
    ]
    rows.sort(key=lambda row: row["self_s"], reverse=True)
    return rows


def write_chrome_trace(recorder: Recorder, path, meta: Dict[str, object]) -> None:
    """Write the spans as Chrome trace-event JSON (loadable in Perfetto)."""
    origin = min((span[3] for span in recorder.spans), default=0.0)
    names = {span[0]: span[2] for span in recorder.spans}
    events: List[Dict[str, object]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 1,
            "args": {"name": f"campaign {meta.get('workload', '')}"},
        }
    ]
    for span_id, parent, name, start, end in sorted(recorder.spans, key=lambda s: s[3]):
        events.append(
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "args": {"id": span_id, "parent": names.get(parent)},
            }
        )
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta}, handle)
