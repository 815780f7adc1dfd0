"""The metrics registry: counters, gauges, fixed-bucket histograms, spans.

A :class:`MetricsRegistry` is a plain in-process container — no threads,
no sockets, no dependencies — that instrumented code reports into through
the hooks of :mod:`repro.obs.observer` (``inc``, ``observe``, ``span``,
...).  An observer without a registry holds :data:`NULL_REGISTRY`, a null
object whose operations are single no-op method calls — cheap enough to
leave the instrumentation permanently compiled into the hot paths.
Campaigns collect into a real registry only when
:attr:`ScenarioConfig.metrics` asks for one, so the default simulation
path is observationally (and bit-)identical to the uninstrumented code.

Snapshots are flat JSON-compatible dicts (see :meth:`MetricsRegistry.
snapshot`) and merge deterministically: merging per-task snapshots in
task order yields the same totals no matter which worker produced them —
the same contract as :meth:`CrawlDataset.merge` of crawl snapshots.
Wall-clock quantities (span timings and ``*_seconds`` histograms) are
inherently non-deterministic; :func:`deterministic_view` strips them,
leaving the portion that must be bit-identical across worker counts.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NONDETERMINISTIC_COUNTERS",
    "NULL_REGISTRY",
    "NullRegistry",
    "TIME_BUCKETS",
    "deterministic_view",
]

#: Default histogram buckets for count-like quantities (upper bounds;
#: one implicit overflow bucket catches everything above the last bound).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000,
    25_000, 50_000, 100_000,
)

#: Default buckets for durations in seconds.
TIME_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 180.0, 600.0,
)


class Counter:
    """A monotonically increasing number."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """A fixed-bucket histogram of observed values.

    ``buckets`` are inclusive upper bounds; ``counts`` has one extra
    trailing slot for observations above the last bound.  Fixed buckets
    keep snapshots mergeable: two histograms with the same bounds merge
    by element-wise addition.
    """

    __slots__ = ("buckets", "counts", "count", "total", "min", "max")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.buckets: Tuple[float, ...] = tuple(buckets)
        if not self.buckets or list(self.buckets) != sorted(set(self.buckets)):
            raise ValueError(f"histogram buckets must be sorted and unique: {buckets!r}")
        self.counts: List[int] = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.total: float = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class _SpanTimer:
    """Context manager recording one wall-clock interval into a registry.

    Nested spans build a ``/``-separated phase path (``campaign/crawls``),
    so the report can attribute time hierarchically.  When the block
    raises, the interval is still recorded but tagged as an error — the
    span's error count increments, as does a per-exception-type counter
    (``span.errors.<ExcName>``) — so ``render_report`` can surface where
    failures happened, not just where time went.
    """

    __slots__ = ("_registry", "_name", "_start")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        self._registry = registry
        self._name = name

    def __enter__(self) -> "_SpanTimer":
        self._registry._span_stack.append(self._name)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        elapsed = time.perf_counter() - self._start
        registry = self._registry
        stack = registry._span_stack
        failed = exc_type is not None
        registry.record_span("/".join(stack), elapsed, errors=1 if failed else 0)
        if failed:
            registry.inc(f"span.errors.{exc_type.__name__}")
        stack.pop()


class _NullSpan:
    """The stateless no-op span (reentrant; one shared instance)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


_NULL_SPAN = _NullSpan()


class MetricsRegistry:
    """A collecting registry (see module docs)."""

    enabled = True

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}
        #: phase path -> [count, total_seconds, error_count].
        self.spans: Dict[str, List[float]] = {}
        self._span_stack: List[str] = []

    # -- instrument-facing API ---------------------------------------------

    def counter(self, name: str) -> Counter:
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter()
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self.gauges.get(name)
        if gauge is None:
            gauge = self.gauges[name] = Gauge()
        return gauge

    def histogram(self, name: str, buckets: Optional[Sequence[float]] = None) -> Histogram:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(
                buckets if buckets is not None else DEFAULT_BUCKETS
            )
        return histogram

    def inc(self, name: str, amount: float = 1) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(
        self, name: str, value: float, buckets: Optional[Sequence[float]] = None
    ) -> None:
        self.histogram(name, buckets).observe(value)

    def span(self, name: str) -> _SpanTimer:
        return _SpanTimer(self, name)

    def record_span(self, path: str, seconds: float, errors: int = 0) -> None:
        stat = self.spans.get(path)
        if stat is None:
            self.spans[path] = [1, seconds, errors]
        else:
            stat[0] += 1
            stat[1] += seconds
            stat[2] += errors

    # -- snapshots and merging ---------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """The registry's state as a flat JSON-compatible dict."""
        return {
            "counters": {name: c.value for name, c in sorted(self.counters.items())},
            "gauges": {name: g.value for name, g in sorted(self.gauges.items())},
            "histograms": {
                name: {
                    "buckets": list(h.buckets),
                    "counts": list(h.counts),
                    "count": h.count,
                    "sum": h.total,
                    "min": h.min,
                    "max": h.max,
                }
                for name, h in sorted(self.histograms.items())
            },
            "spans": {
                path: {"count": stat[0], "seconds": stat[1], "errors": stat[2]}
                for path, stat in sorted(self.spans.items())
            },
        }

    def merge_snapshot(self, snapshot: Dict[str, object]) -> None:
        """Fold another registry's snapshot into this one.

        Counters, histograms and spans add; gauges take the merged value
        (last write wins).  Merging per-task snapshots in task order is
        deterministic regardless of which worker produced each one.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.inc(name, value)
        for name, value in snapshot.get("gauges", {}).items():
            self.set_gauge(name, value)
        for name, data in snapshot.get("histograms", {}).items():
            histogram = self.histogram(name, data["buckets"])
            if list(histogram.buckets) != list(data["buckets"]):
                raise ValueError(
                    f"cannot merge histogram {name!r}: bucket bounds differ"
                )
            for position, count in enumerate(data["counts"]):
                histogram.counts[position] += count
            histogram.count += data["count"]
            histogram.total += data["sum"]
            for bound, pick in (("min", min), ("max", max)):
                theirs = data.get(bound)
                if theirs is not None:
                    ours = getattr(histogram, bound)
                    setattr(
                        histogram, bound, theirs if ours is None else pick(ours, theirs)
                    )
        for path, data in snapshot.get("spans", {}).items():
            stat = self.spans.get(path)
            if stat is None:
                self.spans[path] = [data["count"], data["seconds"], data.get("errors", 0)]
            else:
                stat[0] += data["count"]
                stat[1] += data["seconds"]
                stat[2] += data.get("errors", 0)


class NullRegistry:
    """The disabled registry: every operation is a bare no-op call."""

    enabled = False

    def counter(self, name: str) -> Counter:  # pragma: no cover - convenience
        return Counter()

    def gauge(self, name: str) -> Gauge:  # pragma: no cover - convenience
        return Gauge()

    def histogram(self, name, buckets=None) -> Histogram:  # pragma: no cover
        return Histogram(buckets if buckets is not None else DEFAULT_BUCKETS)

    def inc(self, name: str, amount: float = 1) -> None:
        pass

    def set_gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float, buckets=None) -> None:
        pass

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def record_span(self, path: str, seconds: float, errors: int = 0) -> None:
        pass

    def snapshot(self) -> Dict[str, object]:
        return {"counters": {}, "gauges": {}, "histograms": {}, "spans": {}}

    def merge_snapshot(self, snapshot: Dict[str, object]) -> None:
        pass


#: The process-wide disabled registry (shared, stateless).
NULL_REGISTRY = NullRegistry()


# -- determinism helpers ----------------------------------------------------

#: Counters that measure run shape rather than simulation content: worker
#: crashes, retries and pool rebuilds depend on the host environment
#: (load, memory pressure), not on the seed — a retried task still
#: produces bit-identical *outputs*, but these counters record that the
#: retry happened.
NONDETERMINISTIC_COUNTERS = frozenset(
    {"exec.retries", "exec.failures", "exec.pool_rebuilds"}
)


def deterministic_view(snapshot: Dict[str, object]) -> Dict[str, object]:
    """The portion of a snapshot that is reproducible across runs.

    Span timings, gauges, ``*_seconds`` histograms and the
    :data:`NONDETERMINISTIC_COUNTERS` measure wall clock or run shape
    (worker counts, environment-dependent retries); everything else is a
    pure function of the simulation, so it must be bit-identical at any
    worker count.
    """
    return {
        "counters": {
            name: value
            for name, value in snapshot.get("counters", {}).items()
            if name not in NONDETERMINISTIC_COUNTERS
        },
        "histograms": {
            name: data
            for name, data in snapshot.get("histograms", {}).items()
            if not name.endswith("_seconds")
        },
    }
