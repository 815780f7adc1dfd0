"""The typed, list-compatible facade over a storage backend.

The monitors (and everything downstream of them) treat their logs as
ordered sequences: ``len(log)``, ``log[pos:]``, ``for e in log``,
``reversed(log)``, ``log.append(e)``.  :class:`EventLog` keeps exactly
that contract while delegating storage to any
:class:`~repro.store.backend.StorageBackend` — in memory the objects are
stored verbatim (zero overhead versus the seed's plain list); on disk
they round-trip through the log's codec.  A disk write hands the backend
one ``(event.timestamp, codec.encode(event))`` row: the record's JSON
text, rendered in one step.  Every disk read decodes through
``codec.decode_all``, so one read parses each distinct peer ID and CID
string once.  Events carry a ``timestamp`` attribute.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, List, Optional

from repro.store.backend import MemoryBackend, StorageBackend


class EventLog:
    """Sequence-like append-only log of typed events."""

    def __init__(self, codec, backend: Optional[StorageBackend] = None) -> None:
        self.codec = codec
        self.backend = backend if backend is not None else MemoryBackend()
        self._native = self.backend.stores_objects

    # -- writes -------------------------------------------------------------

    def append(self, event) -> None:
        if self._native:
            self.backend.append(event)
        else:
            self.backend.append_text(event.timestamp, self.codec.encode(event))

    def extend(self, events) -> None:
        if self._native:
            self.backend.extend(events)
        else:
            encode = self.codec.encode
            self.backend.extend_text((event.timestamp, encode(event)) for event in events)

    # -- reads --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.backend)

    def _decoded(self, records) -> Iterator:
        if self._native:
            return iter(records)
        return self.codec.decode_all(records)

    def __iter__(self) -> Iterator:
        return self._decoded(self.backend.scan())

    def __reversed__(self) -> Iterator:
        return self._decoded(self.backend.scan_reversed())

    def __getitem__(self, index):
        if isinstance(index, slice):
            if index.step not in (None, 1):
                return list(self)[index]
            start, stop, _ = index.indices(len(self))
            return list(self._decoded(self.backend.slice(start, stop)))
        length = len(self)
        if index < 0:
            index += length
        if not 0 <= index < length:
            raise IndexError("EventLog index out of range")
        rows = self.backend.slice(index, index + 1)
        if not rows:
            raise IndexError("EventLog index out of range")
        return next(self._decoded(rows))

    def window(self, start: float, end: float) -> Iterator:
        """Events with ``start <= timestamp < end``.

        Disk backends push the filter down to their timestamp index; the
        in-memory log walks backwards from the tail and stops early,
        matching the seed's hot loop (logs are append-ordered by time).
        """
        if not self._native:
            return self._decoded(self.backend.scan_range(start, end))

        def backwards() -> Iterator:
            collected: List = []
            for event in self.backend.scan_reversed():
                ts = event.timestamp
                if ts < start:
                    break
                if ts < end:
                    collected.append(event)
            return iter(reversed(collected))

        return backwards()

    def tail(self, count: int) -> List:
        """The newest ``count`` events, oldest-first."""
        if count <= 0:
            return []
        newest = list(self._decoded(islice(self.backend.scan_reversed(), count)))
        newest.reverse()
        return newest

    # -- lifecycle ----------------------------------------------------------

    def flush(self) -> None:
        self.backend.flush()

    def close(self) -> None:
        self.backend.close()
