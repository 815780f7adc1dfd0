"""The observation bus: one installed :class:`Observer` with three sinks.

Instrumented code reports through the module-level hooks below —
metrics (:func:`inc`, :func:`observe`, :func:`set_gauge`, :func:`span`),
causal tracing (:func:`trace_span`, :func:`trace_event`,
:func:`get_tracer`) and the monitor event stream (:func:`observe_hydra`,
:func:`observe_bitswap`, :func:`note`).  Every hook dispatches to the
*installed* observer, which holds an optional
:class:`~repro.obs.metrics.MetricsRegistry`, :class:`~repro.obs.trace.
Tracer` and :class:`~repro.obs.stream.StreamAnalytics`; a missing sink is
the corresponding null object.  The default is :data:`NULL_OBSERVER`, so
an uninstrumented run pays one global read and one no-op call per hook
and stays bit-identical to a run without the instrumentation.

:func:`use_observer` is the only way to install one::

    from repro.obs import MetricsRegistry, Observer, use_observer

    observer = Observer(metrics=MetricsRegistry())
    with use_observer(observer):
        ...
    print(observer.metrics.snapshot())

Work that runs on other processes (the crawl tasks) collects into private
sinks and ships them back; :meth:`Observer.merge` folds those outcomes in,
in task order, which keeps every deterministic view identical at any
worker count.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from repro.obs.metrics import NULL_REGISTRY
from repro.obs.stream import NULL_STREAM
from repro.obs.trace import NULL_TRACER

__all__ = [
    "NULL_OBSERVER",
    "Observer",
    "get_observer",
    "get_tracer",
    "inc",
    "note",
    "observe",
    "observe_bitswap",
    "observe_hydra",
    "set_gauge",
    "span",
    "trace_event",
    "trace_span",
    "use_observer",
]


# Exact-arity no-ops: a ``*args`` no-op costs about three times as much
# per call, and these run once per monitor event.
def _ignore_hydra(envelope) -> None:
    pass


def _ignore_bitswap(timestamp, node, cid, logged) -> None:
    pass


def _monitor_hooks(metrics, stream):
    """The per-monitor-event hooks of an observer whose sinks collect.

    Closures over the sinks, not bound methods stored on the observer: a
    bound method would point back at it, and every enabled observer (one
    per crawl task among them) would become cyclic garbage.
    """
    inc = metrics.inc
    stream_hydra = stream.observe_hydra
    stream_bitswap = stream.observe_bitswap

    def observe_hydra(envelope) -> None:
        inc("hydra.messages_logged")
        stream_hydra(envelope)

    def observe_bitswap(timestamp, node, cid, logged) -> None:
        inc("bitswap.broadcasts_seen")
        if logged:
            inc("bitswap.broadcasts_logged")
            stream_bitswap(cid)

    return observe_hydra, observe_bitswap


class Observer:
    """Optional ``metrics``, ``tracer`` and ``stream`` sinks behind one bus.

    The hot-path hooks are bound onto the instance at construction, so a
    module-level hook costs one global read plus one call into the sink;
    the sinks are fixed for the observer's lifetime.  Nothing the
    observer holds refers back to it, so it is freed by reference
    counting alone.
    """

    def __init__(self, metrics=None, tracer=None, stream=None) -> None:
        self.metrics = NULL_REGISTRY if metrics is None else metrics
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.stream = NULL_STREAM if stream is None else stream
        #: whether any sink collects.
        self.enabled = self.metrics.enabled or self.tracer.enabled or self.stream.enabled
        #: crawl-task trace records merged by :meth:`merge`, in merge order.
        self.crawl_trace: List[Dict[str, object]] = []
        self.inc = self.metrics.inc
        self.set_gauge = self.metrics.set_gauge
        self.observe = self.metrics.observe
        self.span = self.metrics.span
        self.trace_span = self.tracer.span
        self.trace_event = self.tracer.event
        self.note = self.stream.note
        # One call per monitor event, whatever the sinks.
        if self.enabled:
            self.observe_hydra, self.observe_bitswap = _monitor_hooks(
                self.metrics, self.stream
            )
        else:
            self.observe_hydra = _ignore_hydra
            self.observe_bitswap = _ignore_bitswap

    def merge(self, outcome) -> None:
        """Fold one task's privately collected sinks in (call in task order).

        ``outcome`` carries ``metrics`` (a registry snapshot), ``trace``
        (a record list) and ``stream`` (a crawl sketch state); each is
        ``None`` when that sink was not collected.
        """
        if outcome.metrics is not None:
            self.metrics.merge_snapshot(outcome.metrics)
        if outcome.trace is not None:
            self.crawl_trace.extend(outcome.trace)
        if outcome.stream is not None:
            self.stream.merge_crawl_state(outcome.stream)

    def collected(self) -> Tuple[Optional[Dict], Optional[List[Dict]], Optional[Dict]]:
        """``(metrics snapshot, trace records, sketch snapshot)``; ``None``
        for each sink that does not collect.

        The trace is this observer's own records followed by the merged
        crawl-task records, so it is deterministic at any worker count.
        """
        metrics = self.metrics.snapshot() if self.metrics.enabled else None
        trace = self.tracer.records() + self.crawl_trace if self.tracer.enabled else None
        sketches = self.stream.snapshot() if self.stream.enabled else None
        return metrics, trace, sketches


#: The process-wide observer that collects nothing (shared, stateless).
NULL_OBSERVER = Observer()

_OBSERVER = NULL_OBSERVER
#: ``_OBSERVER.tracer`` in its own global, so the guard every trace site
#: runs (``get_tracer().enabled``) is one global read.
_TRACER = NULL_TRACER


def get_observer() -> Observer:
    """The installed observer (:data:`NULL_OBSERVER` by default)."""
    return _OBSERVER


@contextmanager
def use_observer(observer: Observer) -> Iterator[Observer]:
    """Install ``observer`` for the duration of the ``with`` block."""
    global _OBSERVER, _TRACER
    previous = _OBSERVER
    _OBSERVER, _TRACER = observer, observer.tracer
    try:
        yield observer
    finally:
        _OBSERVER, _TRACER = previous, previous.tracer


# -- module-level hooks --------------------------------------------------------
# What the instrumented paths call.  With nothing installed each is one
# global read plus one no-op call; sites that build an attrs dict per
# trace event also guard on ``get_tracer().enabled``.


def inc(name: str, amount: float = 1) -> None:
    _OBSERVER.inc(name, amount)


def set_gauge(name: str, value: float) -> None:
    _OBSERVER.set_gauge(name, value)


def observe(name: str, value: float, buckets=None) -> None:
    _OBSERVER.observe(name, value, buckets)


def span(name: str):
    return _OBSERVER.span(name)


def get_tracer():
    return _TRACER


def trace_span(name: str, **attrs: object):
    return _OBSERVER.trace_span(name, **attrs)


def trace_event(name: str, **attrs: object) -> None:
    _OBSERVER.trace_event(name, **attrs)


def observe_hydra(envelope) -> None:
    _OBSERVER.observe_hydra(envelope)


def observe_bitswap(timestamp: float, node, cid, logged: bool) -> None:
    _OBSERVER.observe_bitswap(timestamp, node, cid, logged)


def note(name: str, amount: int = 1) -> None:
    _OBSERVER.note(name, amount)
