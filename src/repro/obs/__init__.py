"""Campaign observability: one observation bus with three sinks.

The paper's measurement pipelines are long-running campaigns (38 days,
101 crawls, 200 k daily CID samples at paper scale); operating — and
optimising — them requires telemetry, just like the Nebula crawler's
per-crawl metrics and the Hydra operators' dashboards the paper itself
relies on (§3, §5.1).  This package provides the zero-dependency
substrate.

Instrumented code reports through the hooks of
:mod:`repro.obs.observer` to the one installed :class:`Observer`, which
holds up to three sinks:

* ``metrics`` — a :class:`MetricsRegistry`: counters, gauges,
  fixed-bucket histograms and hierarchical wall-time spans
  (``campaign/simulate/provider-fetch``), exported as a record stream,
  a flat JSON snapshot or the ``repro obs report`` table;
* ``tracer`` — a :class:`Tracer`: causal per-lookup/per-crawl event
  trees in a bounded ring buffer, with a Chrome trace-event / Perfetto
  exporter (:func:`chrome_trace`) and a trace-replaying invariant
  auditor (:func:`audit_trace`, ``repro obs audit``);
* ``stream`` — a :class:`StreamAnalytics` engine: exact headline
  shares, top lists and distinct counts read from the monitors' §5
  fold, plus mergeable quantile sketches, live on the
  :class:`ControlServer` (``--live``).

A missing sink is its null object, and :data:`NULL_OBSERVER` — every
sink null — is installed by default, so each hook costs one global read
and one no-op call and campaign outputs stay bit-identical.
:func:`use_observer` is the one install point::

    import repro.obs as obs

    observer = obs.Observer(metrics=obs.MetricsRegistry())
    with obs.use_observer(observer), obs.span("my-phase"):
        ...
    print(obs.render_report(observer.metrics.snapshot()))

Campaigns build and install their own observer from
``ScenarioConfig(metrics=..., trace=..., stream=...)``.  Each crawl task
collects into private sinks (:func:`repro.core.crawler.collect_crawl`)
and :meth:`Observer.merge` folds them in crawl order, so
:func:`deterministic_view`, :func:`deterministic_trace_view` and
:func:`deterministic_sketches_view` are bit-identical at any worker
count.  :class:`Heartbeat` carries the campaign status to the ``--progress``
line (:class:`ProgressReporter`) and the live control plane.
"""

from repro.obs.export import (
    metrics_to_records,
    read_metrics,
    records_to_snapshot,
    render_report,
    write_metrics,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    NONDETERMINISTIC_COUNTERS,
    NULL_REGISTRY,
    TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    deterministic_view,
)
from repro.obs.sketch import QuantileSketch
from repro.obs.stream import (
    DEFAULT_WINDOW_SECONDS,
    NULL_STREAM,
    NullStream,
    SKETCHES_SCHEMA,
    StreamAnalytics,
    deterministic_sketches_view,
    render_stream_report,
)
from repro.obs.trace import (
    DEFAULT_CAPACITY,
    NONDETERMINISTIC_EVENT_PREFIXES,
    NULL_TRACER,
    NullTracer,
    TraceEvent,
    Tracer,
    deterministic_trace_view,
    read_trace,
    write_trace,
)
from repro.obs.observer import (
    NULL_OBSERVER,
    Observer,
    get_observer,
    get_tracer,
    inc,
    observe,
    set_gauge,
    span,
    trace_event,
    trace_span,
    use_observer,
)
from repro.obs.audit import AuditReport, audit_trace
from repro.obs.perfetto import chrome_trace, write_chrome_trace
from repro.obs.progress import Heartbeat, ProgressReporter
from repro.obs.serve import ControlServer, StreamPublisher

__all__ = [
    "AuditReport",
    "ControlServer",
    "Counter",
    "DEFAULT_BUCKETS",
    "DEFAULT_CAPACITY",
    "DEFAULT_WINDOW_SECONDS",
    "Gauge",
    "Heartbeat",
    "Histogram",
    "MetricsRegistry",
    "NONDETERMINISTIC_COUNTERS",
    "NONDETERMINISTIC_EVENT_PREFIXES",
    "NULL_OBSERVER",
    "NULL_REGISTRY",
    "NULL_STREAM",
    "NULL_TRACER",
    "NullRegistry",
    "NullStream",
    "NullTracer",
    "Observer",
    "ProgressReporter",
    "QuantileSketch",
    "SKETCHES_SCHEMA",
    "StreamAnalytics",
    "StreamPublisher",
    "TIME_BUCKETS",
    "TraceEvent",
    "Tracer",
    "audit_trace",
    "chrome_trace",
    "deterministic_sketches_view",
    "deterministic_trace_view",
    "deterministic_view",
    "get_observer",
    "get_tracer",
    "inc",
    "metrics_to_records",
    "observe",
    "read_metrics",
    "read_trace",
    "records_to_snapshot",
    "render_report",
    "render_stream_report",
    "set_gauge",
    "span",
    "trace_event",
    "trace_span",
    "use_observer",
    "write_chrome_trace",
    "write_metrics",
    "write_trace",
]
