"""Storage subsystem: pluggable event-log backends.

Spec strings name a backend; :func:`parse_spec` is the single parser and
:func:`open_store` the single factory everything routes through
(``ScenarioConfig.storage``, the monitors' ``store=`` parameters, sweep
task rebasing and the CLI)::

    memory                      # Python objects in RAM (the default)
    jsonl:/data/hydra.jsonl     # append-only JSON lines
    sqlite:/data/hydra.sqlite   # stdlib sqlite3, WAL, indexed timestamps
    sqlite::memory:             # sqlite without a file

``campaign_stores`` maps one spec onto the per-log backends a
measurement campaign needs (treating the spec's path as a directory).

Whole record files go through one write path and one read path:
:func:`write_records` *replaces* a file's (or backend's) contents with a
record stream, and :func:`read_records` streams them back in append
order.  :func:`write_events` is the write path for typed events: it
renders them through a codec exactly as a live
:class:`~repro.store.eventlog.EventLog` does, so an exported monitor log
holds the bytes a disk-backed campaign wrote.  A path picks its backend
by suffix (:func:`open_file_backend`: ``.jsonl``/``.trace`` are JSON
lines, ``.sqlite``/``.db`` SQLite).  JSONL files hold one
``json.dumps(record)`` per line (the codecs render that same text);
blank lines are skipped, and a corrupt line (e.g. a truncated last line
left by a crash mid-flush) raises ``ValueError`` naming the file and its
1-based line number.  The published datasets, trace files, metric
streams and ``repro store convert`` all use these functions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, Optional, Tuple, Union

from repro.store.backend import (
    JsonlBackend,
    MemoryBackend,
    Record,
    SqliteBackend,
    StorageBackend,
)
from repro.store.codecs import (
    ATTACK_CODEC,
    BITSWAP_CODEC,
    HYDRA_CODEC,
    BitswapEntryCodec,
    GroundTruthCodec,
    HydraMessageCodec,
    IdTable,
)
from repro.store.eventlog import EventLog

__all__ = [
    "ATTACK_CODEC",
    "BITSWAP_CODEC",
    "BitswapEntryCodec",
    "EventLog",
    "GroundTruthCodec",
    "HYDRA_CODEC",
    "HydraMessageCodec",
    "IdTable",
    "JsonlBackend",
    "MemoryBackend",
    "Record",
    "SqliteBackend",
    "StorageBackend",
    "StorageSpec",
    "campaign_stores",
    "open_file_backend",
    "open_store",
    "parse_spec",
    "read_records",
    "task_storage_spec",
    "write_events",
    "write_records",
]

#: File suffixes understood by path-based auto-detection (``.trace`` is
#: the conventional extension for JSONL trace-record streams).
_SUFFIX_KINDS = {".jsonl": "jsonl", ".sqlite": "sqlite", ".db": "sqlite", ".trace": "jsonl"}

#: Spec kinds that store records in files (rebasable).
_FILE_KINDS = ("jsonl", "sqlite")


@dataclass(frozen=True)
class StorageSpec:
    """A parsed storage spec (see module docs for the string forms).

    ``kind`` is ``memory``, ``jsonl`` or ``sqlite``.  ``path`` is
    ``None`` for the memory backend and may be SQLite's anonymous
    ``:memory:`` marker.
    """

    kind: str
    path: Optional[str] = None

    @property
    def is_memory(self) -> bool:
        return self.kind == "memory"

    @property
    def on_disk(self) -> bool:
        """Whether the spec names actual files (rebasable)."""
        return self.kind in _FILE_KINDS and self.path != ":memory:"

    def with_path(self, path) -> "StorageSpec":
        return replace(self, path=str(path))

    def to_string(self) -> str:
        """The canonical spec string (round-trips through parse_spec)."""
        if self.is_memory:
            return "memory"
        return f"{self.kind}:{self.path}"


def parse_spec(spec: Union[str, StorageSpec]) -> StorageSpec:
    """Parse a storage spec string into a :class:`StorageSpec`.

    The single place spec syntax is understood; raises ``ValueError`` on
    malformed specs.  Already-parsed specs pass through unchanged.
    """
    if isinstance(spec, StorageSpec):
        return spec
    kind, _, rest = spec.partition(":")
    if kind == "memory":
        if rest:
            raise ValueError(f"memory backend takes no path: {spec!r}")
        return StorageSpec(kind="memory")
    if kind in _FILE_KINDS:
        if not rest:
            raise ValueError(f"{kind} backend needs a path: {spec!r}")
        if rest == ":memory:" and kind != "sqlite":
            raise ValueError(f"only sqlite supports :memory:: {spec!r}")
        return StorageSpec(kind=kind, path=rest)
    raise ValueError(f"unknown storage backend spec: {spec!r}")


def open_store(
    spec: Union[str, StorageSpec, StorageBackend, None] = None,
) -> StorageBackend:
    """The one storage factory: spec string, parsed spec, or pass-through.

    ``None`` opens a fresh in-memory backend; an existing
    :class:`StorageBackend` is returned unchanged, so every ``store=``
    parameter can accept either a backend instance or a spec string.
    """
    if spec is None:
        return MemoryBackend()
    if isinstance(spec, StorageBackend):
        return spec
    parsed = parse_spec(spec)
    if parsed.is_memory:
        return MemoryBackend()
    opener = JsonlBackend if parsed.kind == "jsonl" else SqliteBackend
    return opener(parsed.path)


def open_file_backend(path) -> StorageBackend:
    """Open an existing log file, picking the backend from its suffix."""
    suffix = Path(path).suffix.lower()
    kind = _SUFFIX_KINDS.get(suffix)
    if kind is None:
        raise ValueError(
            f"cannot infer backend from suffix {suffix!r} (expected one of "
            f"{sorted(_SUFFIX_KINDS)})"
        )
    return open_store(StorageSpec(kind=kind, path=str(path)))


def task_storage_spec(spec: str, task: object) -> str:
    """Rebase a campaign storage spec into a per-task subdirectory.

    A sweep runs many campaigns against one storage spec; writing them
    all into the same directory would interleave unrelated logs.  Each
    task therefore gets ``<dir>/task-<id>``::

        task_storage_spec("sqlite:out/run", 3)  ->  "sqlite:out/run/task-3"

    ``memory`` passes through unchanged (nothing to collide on).
    """
    parsed = parse_spec(spec)
    if parsed.is_memory:
        return parsed.to_string()
    if not parsed.on_disk:
        raise ValueError(f"cannot rebase storage spec per task: {spec!r}")
    return parsed.with_path(Path(parsed.path) / f"task-{task}").to_string()


def campaign_stores(
    spec: Union[str, StorageSpec],
    names: Tuple[str, ...] = ("hydra", "bitswap"),
) -> Dict[str, StorageBackend]:
    """Per-log backends for a campaign from a single storage spec.

    ``memory`` yields independent in-memory backends; for disk specs the
    path is a *directory* and each log gets its own file in it, e.g.
    ``sqlite:out/run1`` → ``out/run1/hydra.sqlite`` and
    ``out/run1/bitswap.sqlite``.  Only the campaign process appends to
    these logs (crawl workers never write them), so the layout is the
    same at any worker count.
    """
    parsed = parse_spec(spec)
    if parsed.is_memory:
        return {name: MemoryBackend() for name in names}
    if parsed.path == ":memory:":
        return {name: open_store(parsed) for name in names}
    suffix = "jsonl" if parsed.kind == "jsonl" else "sqlite"
    return {
        name: open_store(parsed.with_path(Path(parsed.path) / f"{name}.{suffix}"))
        for name in names
    }


def write_records(
    records: Iterable[Record], destination: Union[StorageBackend, str, Path]
) -> int:
    """Replace ``destination``'s contents with ``records``; returns the count.

    ``destination`` is a :class:`StorageBackend` or a path (backend by
    suffix).  A backend opened here is closed again; one passed in is
    flushed and left open.
    """
    return _rewrite(destination, lambda backend: backend.extend(records))


def write_events(
    events: Iterable, codec, destination: Union[StorageBackend, str, Path]
) -> int:
    """Like :func:`write_records`, for typed ``events`` that ``codec``
    renders: the rows are the ones an :class:`EventLog` over the same
    codec appends."""
    return _rewrite(destination, lambda backend: EventLog(codec, backend).extend(events))


def _rewrite(
    destination: Union[StorageBackend, str, Path], fill: Callable[[StorageBackend], None]
) -> int:
    if isinstance(destination, StorageBackend):
        backend = destination
    else:
        backend = open_file_backend(destination)
    try:
        backend.clear()
        fill(backend)
        backend.flush()
        return len(backend)
    finally:
        if backend is not destination:
            backend.close()


def read_records(source: Union[StorageBackend, str, Path]) -> Iterator[Record]:
    """Every record of ``source`` in append order.

    ``source`` is a :class:`StorageBackend` or the path of an existing
    record file (backend by suffix); a file opened here is closed once
    the iterator is exhausted.
    """
    if isinstance(source, StorageBackend):
        return iter(source.scan())
    if not Path(source).exists():
        # Opening a SQLite backend would create an empty database.
        raise FileNotFoundError(f"no such record file: {source}")
    return _scan_and_close(open_file_backend(source))


def _scan_and_close(backend: StorageBackend) -> Iterator[Record]:
    try:
        yield from backend.scan()
    finally:
        backend.close()
