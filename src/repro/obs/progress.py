"""Live campaign progress: one status, one wall-clock throttle, two readers.

Paper-scale campaigns run for hours with no output until the figures
land.  A :class:`Heartbeat` holds the campaign's status — ``state``,
``phase`` and ``(done, total)`` pairs for ``day``, ``tick`` and
``crawls`` — and hands it to its readers at most once per ``interval``
wall-clock seconds, so the tick loop pays one ``time.monotonic()`` call
per beat in the common (suppressed) case.  A phase change beats with
``force``: every reader sees it, and it does not delay the next regular
beat.

:class:`ProgressReporter` is the ``--progress`` reader: a one-line,
carriage-return-overwritten status on *stderr* (stdout stays clean for
piped results)::

    [simulate] day 3/8 · tick 98/288 · crawl 29/81 | 12,410 ev/s · buf 37% · eta 1m42s

The events/s rate and ring-buffer occupancy come from the observer's
tracer when tracing is enabled; with streaming analytics on
(``--stream`` / ``--live``, see :mod:`repro.obs.stream`) the line grows
stream headline fields (running cloud share and top provider)::

    [simulate] day 3/8 · tick 98/288 | 61,021 ev · cloud 62% · top aws · eta 1m42s

With both off the line shows phase and progress only.  The live control
plane (``--live``, :mod:`repro.obs.serve`) is the other reader: the
campaign publishes the same status on ``/status``.  Nothing here feeds
back into the simulation — the sinks are only *read* — no RNG draws, no
sim-clock reads — so a heartbeat never perturbs outputs.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, Iterable, Optional

from repro.obs.observer import NULL_OBSERVER, Observer

__all__ = ["Heartbeat", "ProgressReporter", "format_duration"]

#: A heartbeat reader: called with the status and the wall-clock time.
Reader = Callable[[Dict[str, object], float], None]


def format_duration(seconds: float) -> str:
    """``95`` → ``1m35s``; ``4000`` → ``1h06m``; sub-minute → ``42s``."""
    seconds = max(0, int(round(seconds)))
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    if seconds >= 60:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds}s"


class Heartbeat:
    """The campaign status and the one throttle its readers share.

    ``interval`` is the minimum wall-clock gap between regular beats;
    ``clock`` is injectable for tests.
    """

    def __init__(
        self,
        readers: Iterable[Reader] = (),
        interval: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.readers = list(readers)
        self.status: Dict[str, object] = {
            "state": "running",
            "phase": None,
            "day": None,
            "tick": None,
            "crawls": None,
        }
        self._interval = interval
        self._clock = clock
        self._last: Optional[float] = None

    def beat(self, force: bool = False, **changes: object) -> None:
        """Update the status, then hand it to every reader unless a
        regular beat ran less than ``interval`` seconds ago."""
        self.status.update(changes)
        if not self.readers:
            return
        now = self._clock()
        if not force:
            if self._last is not None and now - self._last < self._interval:
                return
            self._last = now
        for reader in self.readers:
            reader(self.status, now)


class ProgressReporter:
    """Render the heartbeat status as one overwritten stderr line.

    ``observer`` supplies the tracer and streaming sinks the line reads
    (see module docs); ``stream`` is injectable for tests.
    """

    def __init__(self, stream=None, observer: Observer = NULL_OBSERVER) -> None:
        self._observer = observer
        self._stream = stream if stream is not None else sys.stderr
        self._started: Optional[float] = None
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

    def __call__(self, status: Dict[str, object], now: float) -> None:
        """Render ``status`` (a :class:`Heartbeat` reader).

        The tick pair drives the ETA (elapsed time scaled by the
        remaining fraction).  With streaming enabled the stream's
        headline fields (event count, running cloud share, top provider)
        are appended.
        """
        if self._started is None:
            self._started = now
        line = f"[{status['phase']}]"
        fields = [
            f"{label} {pair[0]}/{pair[1]}"
            for label, key in (("day", "day"), ("tick", "tick"), ("crawl", "crawls"))
            if (pair := status[key]) is not None
        ]
        if fields:
            line = f"{line} {' · '.join(fields)}"
        tracer = self._observer.tracer
        rate = self._events_per_second(tracer, now)
        extras = []
        if rate is not None:
            extras.append(f"{rate:,.0f} ev/s")
            if tracer.capacity:
                extras.append(f"buf {len(tracer) / tracer.capacity:3.0%}")
        extras.extend(self._stream_extras(self._observer.stream))
        step, total = status["tick"] or (0, 0)
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
