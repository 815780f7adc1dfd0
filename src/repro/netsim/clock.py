"""Simulated time.

Time is measured in seconds from the campaign start.  The scheduler is a
plain priority queue of timestamped callbacks; the campaign driver advances
it day by day, interleaving measurement activities (crawls, provider
fetches) at their scheduled instants.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

SECONDS_PER_HOUR = 3600.0
SECONDS_PER_DAY = 24 * SECONDS_PER_HOUR


class Clock:
    """Monotonic simulated clock."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = start

    @property
    def now(self) -> float:
        return self._now

    @property
    def day(self) -> int:
        """The current simulated day index (0-based)."""
        return int(self._now // SECONDS_PER_DAY)

    def advance_to(self, timestamp: float) -> None:
        if timestamp < self._now:
            raise ValueError(f"clock cannot move backwards: {timestamp} < {self._now}")
        self._now = timestamp


class EventScheduler:
    """A heap of (time, callback) events driving the simulation."""

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self.clock = clock or Clock()
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._counter = itertools.count()

    def schedule(self, timestamp: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at simulated ``timestamp`` (absolute seconds)."""
        if timestamp < self.clock.now:
            raise ValueError("cannot schedule an event in the past")
        heapq.heappush(self._heap, (timestamp, next(self._counter), callback))

    def schedule_in(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` after ``delay`` simulated seconds."""
        self.schedule(self.clock.now + delay, callback)

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def next_event_time(self) -> Optional[float]:
        return self._heap[0][0] if self._heap else None

    def run_until(self, timestamp: float) -> int:
        """Execute every event up to and including ``timestamp``.

        The clock lands exactly on ``timestamp`` afterwards.  Returns the
        number of events executed.
        """
        executed = 0
        while self._heap and self._heap[0][0] <= timestamp:
            event_time, _, callback = heapq.heappop(self._heap)
            self.clock.advance_to(event_time)
            callback()
            executed += 1
        self.clock.advance_to(timestamp)
        return executed
