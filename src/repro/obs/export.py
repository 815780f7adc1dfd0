"""Metrics exporters: store-backed event streams, JSON, summary tables.

A metrics snapshot travels in three shapes:

* a **record stream** — one flat record per metric, stored through any
  :mod:`repro.store` backend (JSONL file, SQLite database, memory), so
  metrics ride the same storage substrate as the monitor logs;
* a **flat JSON snapshot** — the dict from
  :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`, written verbatim
  to a ``.json`` file;
* a **human-readable report** — the per-phase timing tree plus counter /
  gauge / histogram tables that ``repro obs report`` prints.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Iterable, List

#: A flat JSON-compatible metric record (mirrors ``repro.store.Record``;
#: the store layer is imported lazily so ``repro.obs`` has no import-time
#: dependencies beyond the stdlib).
Record = Dict[str, object]

#: File suffixes stored as flat JSON rather than a record stream.
_FLAT_JSON_SUFFIXES = {".json"}


def metrics_to_records(snapshot: Dict[str, object]) -> List[Record]:
    """Flatten a snapshot into one storage record per metric."""
    records: List[Record] = []
    for name, value in snapshot.get("counters", {}).items():
        records.append({"kind": "counter", "name": name, "value": value})
    for name, value in snapshot.get("gauges", {}).items():
        records.append({"kind": "gauge", "name": name, "value": value})
    for name, data in snapshot.get("histograms", {}).items():
        records.append({"kind": "histogram", "name": name, **data})
    for path, data in snapshot.get("spans", {}).items():
        records.append(
            {
                "kind": "span",
                "name": path,
                "count": data["count"],
                "seconds": data["seconds"],
                "errors": data.get("errors", 0),
            }
        )
    return records


def records_to_snapshot(records: Iterable[Record]) -> Dict[str, object]:
    """Rebuild a snapshot dict from a metric record stream."""
    snapshot: Dict[str, object] = {
        "counters": {},
        "gauges": {},
        "histograms": {},
        "spans": {},
    }
    for record in records:
        kind, name = record.get("kind"), record.get("name")
        if kind == "counter":
            snapshot["counters"][name] = record["value"]
        elif kind == "gauge":
            snapshot["gauges"][name] = record["value"]
        elif kind == "histogram":
            snapshot["histograms"][name] = {
                key: record[key]
                for key in ("buckets", "counts", "count", "sum", "min", "max")
            }
        elif kind == "span":
            snapshot["spans"][name] = {
                "count": record["count"],
                "seconds": record["seconds"],
                "errors": record.get("errors", 0),
            }
        else:
            raise ValueError(f"unknown metric record kind: {kind!r}")
    return snapshot


def _is_flat_json(location) -> bool:
    return isinstance(location, (str, os.PathLike)) and (
        Path(location).suffix.lower() in _FLAT_JSON_SUFFIXES
    )


def write_metrics(snapshot: Dict[str, object], destination) -> int:
    """Persist a snapshot; returns the number of metrics written.

    ``destination`` is a :class:`~repro.store.backend.StorageBackend` or
    a path — ``.json`` stores the flat snapshot, ``.jsonl`` / ``.sqlite``
    / ``.db`` store the record stream through
    :func:`repro.store.write_records` (replacing any previous content,
    not appending to it).
    """
    records = metrics_to_records(snapshot)
    if _is_flat_json(destination):
        path = Path(destination)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(snapshot, handle, indent=2, sort_keys=True)
        return len(records)
    from repro.store import write_records

    return write_records(records, destination)


def read_metrics(source) -> Dict[str, object]:
    """Load a snapshot written by :func:`write_metrics`."""
    if _is_flat_json(source):
        with open(source) as handle:
            return json.load(handle)
    from repro.store import read_records

    return records_to_snapshot(read_records(source))


# ---------------------------------------------------------------------------
# the human-readable report
# ---------------------------------------------------------------------------


def _format_seconds(seconds: float) -> str:
    if seconds >= 100:
        return f"{seconds:9.0f}s"
    if seconds >= 0.1:
        return f"{seconds:9.2f}s"
    return f"{seconds * 1000:8.2f}ms"


def _span_rows(spans: Dict[str, Dict[str, float]]) -> List[str]:
    """The phase-timing tree: indented by depth, with self-time.

    Self-time is a phase's total minus the time of its *direct*
    children, attributing every second to exactly one row.
    """
    children_total: Dict[str, float] = {}
    for path, data in spans.items():
        if "/" in path:
            parent = path.rsplit("/", 1)[0]
            children_total[parent] = children_total.get(parent, 0.0) + data["seconds"]
    rows = []
    for path in sorted(spans):
        data = spans[path]
        depth = path.count("/")
        label = ("  " * depth) + path.rsplit("/", 1)[-1]
        self_seconds = data["seconds"] - children_total.get(path, 0.0)
        rows.append(
            f"  {label:<38} {data['count']:>7} {_format_seconds(data['seconds'])}"
            f" {_format_seconds(self_seconds)} {data.get('errors', 0):>7}"
        )
    return rows


def _top_names(table: Dict[str, object], key, top: "int | None") -> List[str]:
    """Row order for a metric table: by name, or by ``key`` desc when capped."""
    if top is None:
        return sorted(table)
    ranked = sorted(table, key=lambda name: (-key(table[name]), name))
    return ranked[:top]


def render_report(snapshot: Dict[str, object], top: "int | None" = None) -> str:
    """Render a snapshot as the ``repro obs report`` summary table.

    With ``top=N`` the counter/gauge/histogram tables are sorted by
    magnitude (value, value, observation count) and capped at N rows;
    the phase tree keeps its hierarchy and is never capped.
    """
    lines: List[str] = []
    spans = snapshot.get("spans", {})
    if spans:
        lines.append("phase timings")
        lines.append(
            f"  {'phase':<38} {'count':>7} {'total':>10} {'self':>10} {'errors':>7}"
        )
        lines.extend(_span_rows(spans))
    counters = snapshot.get("counters", {})
    if counters:
        if lines:
            lines.append("")
        lines.append("counters")
        for name in _top_names(counters, float, top):
            value = counters[name]
            text = f"{value:.0f}" if float(value).is_integer() else f"{value:.3f}"
            lines.append(f"  {name:<46} {text:>14}")
    gauges = snapshot.get("gauges", {})
    if gauges:
        lines.append("")
        lines.append("gauges")
        for name in _top_names(gauges, float, top):
            lines.append(f"  {name:<46} {gauges[name]:>14g}")
    histograms = snapshot.get("histograms", {})
    if histograms:
        lines.append("")
        lines.append("histograms")
        lines.append(
            f"  {'name':<34} {'count':>9} {'mean':>12} {'min':>10} {'max':>10}"
        )
        for name in _top_names(histograms, lambda data: data["count"], top):
            data = histograms[name]
            count = data["count"]
            mean = data["sum"] / count if count else 0.0
            low = data["min"] if data["min"] is not None else 0.0
            high = data["max"] if data["max"] is not None else 0.0
            lines.append(
                f"  {name:<34} {count:>9} {mean:>12.2f} {low:>10.2f} {high:>10.2f}"
            )
    if not lines:
        lines.append("(no metrics recorded)")
    return "\n".join(lines)
