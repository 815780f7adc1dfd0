"""Hash-free sharding across several storage backends.

Writes are spread round-robin so every shard carries an equal slice of
the log (a monitor log has no natural partition key worth preserving:
its readers want the whole log, a time window or its newest rows).
Each record is stamped with a global sequence number on the way in, and
a k-way merge on that number restores exact append order on the way
out, so a sharded log is indistinguishable from a single-backend log to
every consumer.  An index slice needs no merge: round-robin writes put
global row ``g`` at row ``g // n`` of shard ``g % n``, so each shard is
sliced for exactly the rows it contributes.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Iterator, List, Optional, Sequence

from repro.store.backend import Record, StorageBackend

#: Key under which the global sequence number travels inside records.
SEQ_FIELD = "_seq"


class ShardedBackend(StorageBackend):
    """Round-robin writes over ``shards``, order-preserving merged reads."""

    def __init__(self, shards: Sequence[StorageBackend]) -> None:
        if not shards:
            raise ValueError("a sharded backend needs at least one shard")
        if any(shard.stores_objects for shard in shards):
            # Sequence stamping mutates dict records; object-native
            # shards would leak the stamp into callers' objects.
            raise ValueError("sharding requires record (dict) backends")
        self.shards: List[StorageBackend] = list(shards)
        self._next_seq = count(sum(len(shard) for shard in self.shards))
        self._next_shard = len(self) % len(self.shards)

    def append(self, record: Record) -> None:
        stamped = dict(record)
        stamped[SEQ_FIELD] = next(self._next_seq)
        self.shards[self._next_shard].append(stamped)
        self._next_shard = (self._next_shard + 1) % len(self.shards)

    def _merge(self, iterators: List[Iterator[Record]], reverse: bool) -> Iterator[Record]:
        streams = [
            (((-r[SEQ_FIELD] if reverse else r[SEQ_FIELD]), r) for r in iterator)
            for iterator in iterators
        ]
        for _, record in heapq.merge(*streams):
            yield _unstamped(record)

    def scan(self) -> Iterator[Record]:
        return self._merge([shard.scan() for shard in self.shards], reverse=False)

    def scan_reversed(self) -> Iterator[Record]:
        return self._merge(
            [shard.scan_reversed() for shard in self.shards], reverse=True
        )

    def scan_range(self, start: float, end: float) -> Iterator[Record]:
        return self._merge(
            [shard.scan_range(start, end) for shard in self.shards], reverse=False
        )

    def slice(self, start: int, stop: Optional[int]) -> List[Record]:
        """Records ``start:stop``, reading only those rows from each shard.

        Shards whose lengths are not in round-robin shape (files written
        by something else) take the merge scan instead.
        """
        n = len(self.shards)
        lengths = [len(shard) for shard in self.shards]
        total = sum(lengths)
        if any(length != (total - i + n - 1) // n for i, length in enumerate(lengths)):
            return super().slice(start, stop)
        stop = total if stop is None else min(stop, total)
        if start >= stop:
            return []
        rows: List[Record] = [{}] * (stop - start)
        for i, shard in enumerate(self.shards):
            first = start + (i - start) % n  # shard i's first global row >= start
            if first < stop:
                part = shard.slice(first // n, (stop - 1 - i) // n + 1)
                rows[first - start :: n] = [_unstamped(record) for record in part]
        return rows

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def flush(self) -> None:
        for shard in self.shards:
            shard.flush()

    def close(self) -> None:
        for shard in self.shards:
            shard.close()

    def clear(self) -> None:
        for shard in self.shards:
            shard.clear()
        self._next_seq = count(0)
        self._next_shard = 0


def _unstamped(record: Record) -> Record:
    """A copy of ``record`` without its sequence stamp (the shard's own
    record is left as stored)."""
    clean = dict(record)
    clean.pop(SEQ_FIELD, None)
    return clean
