"""Structured event tracing: causal spans, ring buffers, deterministic sampling.

Where :mod:`repro.obs.metrics` aggregates (counters, histograms, phase
timers), this module records *events*: each DHT lookup, crawl and
provider fetch becomes a causal tree of typed :class:`TraceEvent`\\ s —
begin/end span pairs plus instant events — carrying both the simulated
clock and the wall clock.  The result is the event layer the paper's own
operators leaned on (Nebula's per-crawl telemetry, the Hydra
dashboards): enough to explain *why* a single lookup resolved the way it
did, to open a campaign in ``ui.perfetto.dev``, and to mechanically
audit protocol invariants after the fact (``repro obs audit``).

Instrumented code calls the ``trace_span`` / ``trace_event`` hooks of
:mod:`repro.obs.observer`, which dispatch to the installed observer's
tracer — by default :data:`NULL_TRACER`, a null object whose operations
are bare no-op calls, so tracing-off runs stay bit-identical and inside
the perf-smoke gate.  Three properties keep tracing-on runs usable at
paper scale:

* **bounded memory** — events land in a ring buffer (``deque(maxlen)``):
  when full, the oldest events are evicted and counted as *dropped*, so
  an hour-long campaign cannot exhaust RAM.  :meth:`Tracer.meta_record`
  reports emitted/dropped so consumers know whether the stream is whole;
* **deterministic sampling** — ``sample=N`` keeps ~1/N of the causal
  trees, chosen by hashing the root-span index through
  :func:`repro.exec.seeds.derive_seed`.  The decision depends only on
  ``(seed, trace index)``, never on wall clock or worker scheduling, so
  workers=1 and workers=N sample the *same* trees;
* **deterministic identity** — trace/span ids are allocated from
  per-tracer monotonic counters in event order.  Per-crawl-task tracers
  are merged in crawl order by the campaign runner (exactly like the
  metric snapshots), and :func:`deterministic_trace_view` strips the
  wall clock plus the environment-shaped ``exec.*`` lifecycle events,
  leaving a view pinned bit-identical across worker counts.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Deque, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "BEGIN",
    "END",
    "INSTANT",
    "DEFAULT_CAPACITY",
    "NONDETERMINISTIC_EVENT_PREFIXES",
    "NULL_TRACER",
    "NullTracer",
    "TraceEvent",
    "Tracer",
    "deterministic_trace_view",
    "event_to_record",
    "read_trace",
    "record_to_event",
    "write_trace",
]

#: Event phases (mirroring the Chrome trace-event vocabulary).
BEGIN = "B"
END = "E"
INSTANT = "I"

#: Default ring-buffer capacity (events); a smoke campaign emits ~50 k.
DEFAULT_CAPACITY = 65536

#: A flat JSON-compatible trace record (mirrors ``repro.store.Record``).
Record = Dict[str, object]


class TraceEvent:
    """One typed event: a span begin/end or an instant.

    ``trace_id`` groups a causal tree (one per root span), ``span_id``
    identifies the span a begin/end pair belongs to (0 for instants,
    which borrow their enclosing span via ``parent_id``), and ``seq`` is
    the tracer-local emission index.  ``sim_time`` is the simulated
    clock at emission; ``wall_time`` is ``time.perf_counter()`` and is
    excluded from every determinism contract.
    """

    __slots__ = (
        "etype",
        "name",
        "origin",
        "trace_id",
        "span_id",
        "parent_id",
        "seq",
        "sim_time",
        "wall_time",
        "attrs",
    )

    def __init__(
        self,
        etype: str,
        name: str,
        origin: str,
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        seq: int,
        sim_time: float,
        wall_time: float,
        attrs: Dict[str, object],
    ) -> None:
        self.etype = etype
        self.name = name
        self.origin = origin
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.seq = seq
        self.sim_time = sim_time
        self.wall_time = wall_time
        self.attrs = attrs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceEvent({self.etype} {self.name!r} origin={self.origin}"
            f" trace={self.trace_id} span={self.span_id}"
            f" parent={self.parent_id} sim={self.sim_time})"
        )


def event_to_record(event: TraceEvent) -> Record:
    """Flatten a :class:`TraceEvent` into a storage record."""
    return {
        "type": event.etype,
        "name": event.name,
        "origin": event.origin,
        "trace": event.trace_id,
        "span": event.span_id,
        "parent": event.parent_id,
        "seq": event.seq,
        "sim": event.sim_time,
        "wall": event.wall_time,
        "attrs": dict(event.attrs),
    }


def record_to_event(record: Record) -> TraceEvent:
    """Rebuild a :class:`TraceEvent` from its storage record."""
    return TraceEvent(
        etype=record["type"],
        name=record["name"],
        origin=record.get("origin", ""),
        trace_id=record.get("trace", 0),
        span_id=record.get("span", 0),
        parent_id=record.get("parent"),
        seq=record.get("seq", 0),
        sim_time=record.get("sim", 0.0),
        wall_time=record.get("wall", 0.0),
        attrs=dict(record.get("attrs") or {}),
    )


class _TraceSpan:
    """Context manager emitting one begin/end pair into a tracer.

    Entering allocates a span id (when the enclosing tree is sampled)
    and pushes it on the tracer's span stack so nested spans and instant
    events attach to it; exiting emits the end event, tagged with
    ``error=True`` and the exception type name when the block raised.
    :meth:`note` attaches attributes to the end event — use it for
    results only known at exit (termination reason, message counts).
    """

    __slots__ = ("_tracer", "_name", "_attrs", "_notes", "trace_id", "span_id", "_parent", "_sampled")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, object]) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._notes: Optional[Dict[str, object]] = None

    def __enter__(self) -> "_TraceSpan":
        tracer = self._tracer
        stack = tracer._stack
        if stack:
            parent_id, trace_id, sampled = stack[-1]
        else:
            index = tracer._trace_count
            tracer._trace_count = index + 1
            trace_id = index + 1
            parent_id = None
            sampled = tracer._sampled(index)
        if sampled:
            span_id = tracer._next_span
            tracer._next_span = span_id + 1
        else:
            span_id = 0
            tracer.muted += 1
        self.trace_id = trace_id
        self.span_id = span_id
        self._parent = parent_id
        self._sampled = sampled
        stack.append((span_id, trace_id, sampled))
        if sampled:
            tracer._emit(BEGIN, self._name, trace_id, span_id, parent_id, self._attrs)
        return self

    def note(self, **attrs: object) -> None:
        """Attach attributes to the span's *end* event."""
        if self._notes is None:
            self._notes = attrs
        else:
            self._notes.update(attrs)

    def __exit__(self, exc_type, exc, tb) -> None:
        tracer = self._tracer
        tracer._stack.pop()
        if not self._sampled:
            return
        attrs = self._notes if self._notes is not None else {}
        if exc_type is not None:
            attrs = dict(attrs)
            attrs["error"] = True
            attrs["error_type"] = exc_type.__name__
        tracer._emit(END, self._name, self.trace_id, self.span_id, self._parent, attrs)


class _NullSpan:
    """The stateless no-op span (reentrant; one shared instance)."""

    __slots__ = ()
    trace_id = 0
    span_id = 0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass

    def note(self, **attrs: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """A collecting tracer (see module docs).

    ``origin`` names the event source (``main`` for the campaign runner,
    ``crawl-<id>`` for per-crawl-task tracers) and becomes the Perfetto
    process; ``clock`` supplies the simulated time (defaults to 0.0 so
    unit tests need no scheduler); ``seed``/``sample`` drive the
    deterministic root-span sampling; ``capacity`` bounds the ring
    buffer.
    """

    enabled = True

    def __init__(
        self,
        origin: str = "main",
        seed: int = 0,
        sample: int = 1,
        capacity: int = DEFAULT_CAPACITY,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"trace capacity must be >= 1: {capacity!r}")
        self.origin = origin
        self.seed = seed
        self.sample = max(1, int(sample))
        self.capacity = capacity
        self._clock = clock
        self._buffer: Deque[TraceEvent] = deque(maxlen=capacity)
        #: Events appended to the buffer (including ones later evicted).
        self.emitted = 0
        #: Events suppressed by sampling (never entered the buffer).
        self.muted = 0
        self._seq = 0
        self._next_span = 1
        self._trace_count = 0
        self._stack: List[Tuple[int, int, bool]] = []

    # -- sampling ----------------------------------------------------------

    def _sampled(self, trace_index: int) -> bool:
        """Whether causal tree ``trace_index`` is kept.

        Hash-based so the kept set is a stable pseudo-random 1/N of all
        trees: a pure function of ``(seed, trace_index)`` — identical at
        any worker count.
        """
        if self.sample <= 1:
            return True
        from repro.exec.seeds import derive_seed

        return derive_seed(self.seed, "trace-sample", trace_index) % self.sample == 0

    # -- emission ----------------------------------------------------------

    def _emit(
        self,
        etype: str,
        name: str,
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        attrs: Dict[str, object],
    ) -> None:
        self._seq += 1
        clock = self._clock
        self._buffer.append(
            TraceEvent(
                etype,
                name,
                self.origin,
                trace_id,
                span_id,
                parent_id,
                self._seq,
                clock() if clock is not None else 0.0,
                time.perf_counter(),
                attrs,
            )
        )
        self.emitted += 1

    def span(self, name: str, **attrs: object) -> _TraceSpan:
        """A new span; root spans open a new causal tree."""
        return _TraceSpan(self, name, attrs)

    def event(self, name: str, **attrs: object) -> None:
        """An instant event attached to the enclosing span (if any).

        Inside an unsampled tree the event is muted; outside any span it
        is always emitted (trace 0 — e.g. the exec lifecycle events,
        which have no enclosing protocol span in the parent process).
        """
        stack = self._stack
        if stack:
            span_id, trace_id, sampled = stack[-1]
            if not sampled:
                self.muted += 1
                return
            self._emit(INSTANT, name, trace_id, 0, span_id, attrs)
        else:
            self._emit(INSTANT, name, 0, 0, None, attrs)

    # -- introspection and export ------------------------------------------

    @property
    def dropped(self) -> int:
        """Events evicted from the ring buffer."""
        return self.emitted - len(self._buffer)

    def __len__(self) -> int:
        return len(self._buffer)

    def events(self) -> List[TraceEvent]:
        """The buffered events, oldest first."""
        return list(self._buffer)

    def meta_record(self) -> Record:
        """Accounting for the stream: was it sampled? is it whole?"""
        return {
            "type": "meta",
            "origin": self.origin,
            "emitted": self.emitted,
            "dropped": self.dropped,
            "muted": self.muted,
            "capacity": self.capacity,
            "sample": self.sample,
            "traces": self._trace_count,
        }

    def records(self, include_meta: bool = True) -> List[Record]:
        """The buffered events as storage records (meta record first)."""
        records: List[Record] = [self.meta_record()] if include_meta else []
        records.extend(event_to_record(event) for event in self._buffer)
        return records


class NullTracer:
    """The disabled tracer: every operation is a bare no-op call."""

    enabled = False
    origin = "null"
    sample = 1
    capacity = 0
    emitted = 0
    muted = 0
    dropped = 0

    def span(self, name: str, **attrs: object) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **attrs: object) -> None:
        pass

    def __len__(self) -> int:
        return 0

    def events(self) -> List[TraceEvent]:
        return []

    def records(self, include_meta: bool = True) -> List[Record]:
        return []

    def meta_record(self) -> Record:  # pragma: no cover - convenience
        return {"type": "meta", "origin": self.origin, "emitted": 0, "dropped": 0,
                "muted": 0, "capacity": 0, "sample": 1, "traces": 0}


#: The process-wide disabled tracer (shared, stateless).
NULL_TRACER = NullTracer()


# -- determinism helpers -----------------------------------------------------

#: Event-name prefixes that record run *shape* rather than simulation
#: content: task completion order and retry counts depend on worker
#: scheduling and host environment, not on the seed (the exec analogue
#: of :data:`repro.obs.metrics.NONDETERMINISTIC_COUNTERS`).
NONDETERMINISTIC_EVENT_PREFIXES: Tuple[str, ...] = ("exec.",)


def deterministic_trace_view(records: Iterable[Record]) -> List[Tuple]:
    """The portion of a trace pinned bit-identical across worker counts.

    Strips wall-clock timestamps and emission sequence numbers, drops
    meta records and the environment-shaped ``exec.*`` lifecycle events,
    and keeps (origin, type, name, ids, sim time, attrs) tuples in
    stream order.  Only meaningful when no origin dropped events
    (``meta["dropped"] == 0``): eviction order inside a full ring buffer
    depends on the interleaving with nondeterministic events.
    """
    view: List[Tuple] = []
    for record in records:
        if record.get("type") == "meta":
            continue
        name = str(record.get("name", ""))
        if name.startswith(NONDETERMINISTIC_EVENT_PREFIXES):
            continue
        attrs = record.get("attrs") or {}
        view.append(
            (
                record.get("origin"),
                record.get("type"),
                name,
                record.get("trace"),
                record.get("span"),
                record.get("parent"),
                record.get("sim"),
                tuple(sorted(attrs.items())),
            )
        )
    return view


# -- persistence -------------------------------------------------------------


def write_trace(records: Iterable[Record], destination) -> int:
    """Persist a trace record stream; returns the record count.

    ``destination`` is a :class:`~repro.store.backend.StorageBackend` or
    a path (``.trace`` and ``.jsonl`` are JSONL, ``.sqlite`` / ``.db``
    SQLite); see :func:`repro.store.write_records`.  Any previous content
    is replaced.
    """
    from repro.store import write_records

    return write_records(records, destination)


def read_trace(source) -> List[Record]:
    """Load a trace record stream written by :func:`write_trace`."""
    from repro.store import read_records

    return list(read_records(source))
