"""Live campaign progress: a single-line heartbeat on stderr.

Paper-scale campaigns run for hours with no output until the figures
land.  :class:`ProgressReporter` gives the operator a pulse without
touching determinism: it writes a one-line, carriage-return-overwritten
status to *stderr* (stdout stays clean for piped results), throttled on
the wall clock so the tick loop pays one ``time.monotonic()`` call per
update in the common (suppressed) case::

    [simulate] day 3/8 · tick 98/288 · crawl 29/81 | 12,410 ev/s · buf 37% · eta 1m42s

The events/s rate and ring-buffer occupancy come from the observer's
tracer when tracing is enabled; with streaming analytics on
(``--stream`` / ``--live``, see :mod:`repro.obs.stream`) the line grows
stream headline fields (running cloud share and top provider)::

    [simulate] day 3/8 · tick 98/288 | 61,021 ev · cloud 62% · top aws · eta 1m42s

With both off the heartbeat shows phase and progress only.  Nothing
here feeds back into the simulation — the stream is only *read* — no
RNG draws, no sim-clock reads — so ``--progress`` never perturbs
outputs.
"""

from __future__ import annotations

import sys
import time
from typing import Optional, Tuple

from repro.obs.observer import NULL_OBSERVER, Observer

__all__ = ["ProgressReporter", "format_duration"]


def format_duration(seconds: float) -> str:
    """``95`` → ``1m35s``; ``4000`` → ``1h06m``; sub-minute → ``42s``."""
    seconds = max(0, int(round(seconds)))
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    if seconds >= 60:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds}s"


class ProgressReporter:
    """Render campaign progress as one overwritten stderr line.

    ``observer`` supplies the tracer and streaming sinks the line reads
    (see module docs); ``interval`` is the minimum wall-clock gap between
    renders; ``clock`` and ``stream`` are injectable for tests.
    """

    def __init__(
        self,
        stream=None,
        interval: float = 0.5,
        clock=time.monotonic,
        observer: Observer = NULL_OBSERVER,
    ) -> None:
        self._observer = observer
        self._stream = stream if stream is not None else sys.stderr
        self._interval = interval
        self._clock = clock
        self._started: Optional[float] = None
        self._last_render: Optional[float] = None
        self._last_emitted = 0
        self._last_emitted_at: Optional[float] = None
        self._rate: Optional[float] = None
        self._line_width = 0
        self.renders = 0

    # -- internals ---------------------------------------------------------

    def _events_per_second(self, tracer, now: float) -> Optional[float]:
        if not tracer.enabled:
            return None
        emitted = tracer.emitted + tracer.muted
        if self._last_emitted_at is not None:
            elapsed = now - self._last_emitted_at
            if elapsed > 0:
                self._rate = (emitted - self._last_emitted) / elapsed
        self._last_emitted = emitted
        self._last_emitted_at = now
        return self._rate

    @staticmethod
    def _stream_extras(analytics) -> list:
        """Stream headline heartbeat fields (read-only; see module docs)."""
        if analytics is None or not getattr(analytics, "enabled", False):
            return []
        extras = []
        try:
            headline = analytics.headline()
        except Exception:  # pragma: no cover - heartbeat must never raise
            return []
        events = headline.get("events", 0)
        if events:
            extras.append(f"{events:,} ev")
        cloud = headline.get("cloud_share_by_volume")
        if cloud is not None:
            extras.append(f"cloud {cloud:.0%}")
        top = headline.get("top_provider")
        if top:
            extras.append(f"top {top}")
        return extras

    def _write(self, line: str) -> None:
        # Pad to the widest line so a shrinking status leaves no residue.
        self._line_width = max(self._line_width, len(line))
        self._stream.write("\r" + line.ljust(self._line_width))
        try:
            self._stream.flush()
        except Exception:  # pragma: no cover - stream without flush
            pass
        self.renders += 1

    # -- public API --------------------------------------------------------

    def update(
        self,
        phase: str,
        step: int,
        total: int,
        day: Optional[Tuple[int, int]] = None,
        crawls: Optional[Tuple[int, int]] = None,
        force: bool = False,
    ) -> None:
        """Report progress; renders at most once per ``interval`` seconds.

        ``step``/``total`` drive the ETA (elapsed time scaled by the
        remaining fraction); ``day`` and ``crawls`` are optional
        ``(current, total)`` pairs for the phase-specific detail.  With
        streaming enabled the stream's headline fields (event count,
        running cloud share, top provider) are appended.
        """
        now = self._clock()
        if self._started is None:
            self._started = now
        if (
            not force
            and self._last_render is not None
            and now - self._last_render < self._interval
        ):
            return
        self._last_render = now
        parts = [f"[{phase}]"]
        if day is not None:
            parts.append(f"day {day[0]}/{day[1]}")
        parts.append(f"tick {step}/{total}")
        if crawls is not None:
            parts.append(f"crawl {crawls[0]}/{crawls[1]}")
        detail = " · ".join(parts[1:])
        line = f"{parts[0]} {detail}" if detail else parts[0]
        tracer = self._observer.tracer
        rate = self._events_per_second(tracer, now)
        extras = []
        if rate is not None:
            extras.append(f"{rate:,.0f} ev/s")
            if tracer.capacity:
                extras.append(f"buf {len(tracer) / tracer.capacity:3.0%}")
        extras.extend(self._stream_extras(self._observer.stream))
        if step and total > step:
            eta = (now - self._started) * (total - step) / step
            extras.append(f"eta {format_duration(eta)}")
        if extras:
            line = f"{line} | {' · '.join(extras)}"
        self._write(line)

    def finish(self, message: Optional[str] = None) -> None:
        """Terminate the status line (optionally replacing it first)."""
        if message is not None:
            self._write(message)
        if self.renders:
            self._stream.write("\n")
            try:
                self._stream.flush()
            except Exception:  # pragma: no cover
                pass
