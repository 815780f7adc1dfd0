"""Pluggable append-only storage backends for event logs.

A campaign's hottest data structures are the monitor logs: the Hydra
DHT log and the Bitswap log grow by one record per captured message and
are then scanned (sometimes many times) by the §5 analyses.  The seed
kept them as Python lists, which caps campaigns at RAM.  A
:class:`StorageBackend` abstracts the storage so the same
:class:`~repro.store.eventlog.EventLog` facade can keep records

* in memory (the default — as fast as the original list),
* in an append-only JSONL file (streaming, human-inspectable, the same
  format :mod:`repro.core.datasets` publishes), or
* in a SQLite database (stdlib ``sqlite3``, WAL, batched inserts,
  indexed timestamps for time-window pushdown).

Backends store flat JSON-compatible dict records, appended either as
dicts or, by :class:`~repro.store.eventlog.EventLog`, as
``(timestamp, JSON text)`` rows its codec rendered, so a disk log's
write path neither builds a dict nor calls ``json.dumps``.  Object
encoding and decoding lives in :mod:`repro.store.codecs`.  All backends
preserve append order, which the analyses rely on (logs are
time-ordered).
"""

from __future__ import annotations

import json
import sqlite3
from abc import ABC, abstractmethod
from itertools import islice
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

Record = Dict[str, object]

#: Records buffered before a disk backend flushes a batch.
DEFAULT_BATCH_SIZE = 2048


class StorageBackend(ABC):
    """Append-only ordered record storage."""

    #: True when the backend keeps Python objects verbatim (no codec
    #: round-trip needed).  Only the in-memory backend does.
    stores_objects = False

    @abstractmethod
    def append(self, record: Record) -> None:
        """Append one record."""

    def extend(self, records: Iterable[Record]) -> None:
        for record in records:
            self.append(record)

    def append_text(self, ts: Optional[float], text: str) -> None:
        """Append the record whose ``json.dumps`` is ``text``; ``ts`` is its
        ``"ts"`` field (``None`` when it has no numeric one)."""
        self.append(json.loads(text))

    def extend_text(self, rows: Iterable[Tuple[Optional[float], str]]) -> None:
        """:meth:`append_text` each ``(ts, text)`` row in order."""
        for ts, text in rows:
            self.append_text(ts, text)

    @abstractmethod
    def scan(self) -> Iterator[Record]:
        """Iterate all records in append order."""

    def scan_reversed(self) -> Iterator[Record]:
        """Iterate all records newest-first (default: materialises)."""
        return iter(reversed(list(self.scan())))

    def scan_range(self, start: float, end: float) -> Iterator[Record]:
        """Records with ``start <= record["ts"] < end`` in append order.

        Backends with a timestamp index push the filter down.
        """
        for record in self.scan():
            ts = record.get("ts")
            if isinstance(ts, (int, float)) and start <= ts < end:
                yield record

    def slice(self, start: int, stop: Optional[int]) -> List[Record]:
        """Records ``start:stop`` (non-negative indices, append order)."""
        return list(islice(self.scan(), start, stop))

    @abstractmethod
    def __len__(self) -> int:
        """Number of records stored (including any unflushed buffer)."""

    def flush(self) -> None:
        """Persist any buffered records."""

    def close(self) -> None:
        self.flush()

    def clear(self) -> None:
        raise NotImplementedError(f"{type(self).__name__} cannot be cleared")


class MemoryBackend(StorageBackend):
    """A plain list — the seed's behaviour, kept as the zero-cost default."""

    stores_objects = True

    def __init__(self) -> None:
        self.records: List[Record] = []

    def append(self, record: Record) -> None:
        self.records.append(record)

    def extend(self, records: Iterable[Record]) -> None:
        self.records.extend(records)

    def scan(self) -> Iterator[Record]:
        return iter(self.records)

    def scan_reversed(self) -> Iterator[Record]:
        return reversed(self.records)

    def slice(self, start: int, stop: Optional[int]) -> List[Record]:
        return self.records[start:stop]

    def __len__(self) -> int:
        return len(self.records)

    def clear(self) -> None:
        self.records.clear()


class _BufferedBackend(StorageBackend):
    """A disk backend's write buffer: ``(ts, JSON text)`` rows wait there
    for a batched write.

    ``_count`` counts stored plus buffered records.  A slice that starts
    at or after the stored count is read from the buffer alone: no
    flush, no commit and no disk query (the gateway prober slices the
    Bitswap log's newest records once per probe).
    """

    def __init__(self, batch_size: int, count: int) -> None:
        self.batch_size = max(1, batch_size)
        self._buffer: List[Tuple[Optional[float], str]] = []
        self._count = count

    def append(self, record: Record) -> None:
        ts = record.get("ts")
        self.append_text(ts if isinstance(ts, (int, float)) else None, json.dumps(record))

    def append_text(self, ts: Optional[float], text: str) -> None:
        self._buffer.append((ts, text))
        self._count += 1
        if len(self._buffer) >= self.batch_size:
            self.flush()

    def slice(self, start: int, stop: Optional[int]) -> List[Record]:
        stored = self._count - len(self._buffer)
        if start < stored:
            self.flush()
            return self._slice_stored(start, stop)
        end = None if stop is None else max(0, stop - stored)
        return [json.loads(text) for _, text in self._buffer[start - stored:end]]

    def _slice_stored(self, start: int, stop: Optional[int]) -> List[Record]:
        return super().slice(start, stop)

    def __len__(self) -> int:
        return self._count


class JsonlBackend(_BufferedBackend):
    """Append-only JSON-lines file with a buffered writer.

    Opening an existing file resumes appending to it; the line format is
    exactly what :mod:`repro.core.datasets` publishes, so a campaign's
    live log *is* its published dataset.  Blank lines are skipped (and
    not counted); a line that is not JSON raises ``ValueError`` naming
    the file and the line number.
    """

    def __init__(self, path, batch_size: int = DEFAULT_BATCH_SIZE) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        count = 0
        if self.path.exists():
            with open(self.path, "rb") as handle:
                count = sum(1 for line in handle if line.strip())
        super().__init__(batch_size, count)

    def flush(self) -> None:
        if not self._buffer:
            return
        with open(self.path, "a") as handle:
            handle.write("\n".join([text for _, text in self._buffer]) + "\n")
        self._buffer.clear()

    def _decode(self, line, number: int) -> Record:
        try:
            return json.loads(line)
        except ValueError as error:
            raise ValueError(
                f"{self.path}: line {number} is not a JSON record ({error})"
            ) from error

    def scan(self) -> Iterator[Record]:
        self.flush()
        with open(self.path) as handle:
            for number, line in enumerate(handle, 1):
                if line.strip():
                    yield self._decode(line, number)

    def scan_reversed(self) -> Iterator[Record]:
        self.flush()
        offsets: List[int] = []
        with open(self.path, "rb") as handle:
            position = 0
            for line in handle:
                offsets.append(position)
                position += len(line)
            for number in range(len(offsets), 0, -1):
                handle.seek(offsets[number - 1])
                line = handle.readline().decode()
                if line.strip():
                    yield self._decode(line, number)

    def clear(self) -> None:
        self._buffer.clear()
        self._count = 0
        self.path.write_bytes(b"")


class SqliteBackend(_BufferedBackend):
    """SQLite-backed log: one table of ``(seq, ts, payload)`` rows.

    The payload is the JSON record; the timestamp is mirrored into an
    indexed column so time-window scans are pushed down to the engine.
    Inserts are buffered and written with ``executemany``.  ``seq`` is
    the rowid: the table is append-only, so each row gets one past the
    largest (no ``AUTOINCREMENT`` bookkeeping), and ``ORDER BY seq`` is
    append order.  Files made with the earlier ``AUTOINCREMENT`` schema
    open and append unchanged.
    """

    def __init__(
        self,
        path=":memory:",
        table: str = "events",
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        self.path = str(path)
        if not table.replace("_", "").isalnum():
            raise ValueError(f"invalid table name: {table!r}")
        self.table = table
        if self.path != ":memory:":
            Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(self.path)
        if self.path != ":memory:":
            self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute(
            f"CREATE TABLE IF NOT EXISTS {self.table} "
            "(seq INTEGER PRIMARY KEY, ts REAL, payload TEXT NOT NULL)"
        )
        self._conn.execute(
            f"CREATE INDEX IF NOT EXISTS {self.table}_ts ON {self.table} (ts)"
        )
        count = self._conn.execute(f"SELECT COUNT(*) FROM {self.table}").fetchone()[0]
        super().__init__(batch_size, count)

    def flush(self) -> None:
        if not self._buffer:
            return
        with self._conn:
            self._conn.executemany(
                f"INSERT INTO {self.table} (ts, payload) VALUES (?, ?)", self._buffer
            )
        self._buffer.clear()

    def scan(self) -> Iterator[Record]:
        self.flush()
        cursor = self._conn.execute(
            f"SELECT payload FROM {self.table} ORDER BY seq"
        )
        for (payload,) in cursor:
            yield json.loads(payload)

    def scan_reversed(self) -> Iterator[Record]:
        self.flush()
        cursor = self._conn.execute(
            f"SELECT payload FROM {self.table} ORDER BY seq DESC"
        )
        for (payload,) in cursor:
            yield json.loads(payload)

    def scan_range(self, start: float, end: float) -> Iterator[Record]:
        self.flush()
        cursor = self._conn.execute(
            f"SELECT payload FROM {self.table} WHERE ts >= ? AND ts < ? ORDER BY seq",
            (start, end),
        )
        for (payload,) in cursor:
            yield json.loads(payload)

    def _slice_stored(self, start: int, stop: Optional[int]) -> List[Record]:
        limit = -1 if stop is None else max(0, stop - start)
        cursor = self._conn.execute(
            f"SELECT payload FROM {self.table} ORDER BY seq LIMIT ? OFFSET ?",
            (limit, start),
        )
        return [json.loads(payload) for (payload,) in cursor]

    def close(self) -> None:
        self.flush()
        self._conn.close()

    def clear(self) -> None:
        self._buffer.clear()
        self._count = 0
        with self._conn:
            self._conn.execute(f"DELETE FROM {self.table}")
