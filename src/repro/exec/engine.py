"""The process-pool execution engine.

``ParallelExecutor`` fans picklable, *pure* tasks out over a pool of
worker processes and collects results keyed by task ID.  With
``workers=1`` every task runs inline in the calling process — the exact
same function with the exact same arguments — so serial and parallel
execution are bit-identical as long as tasks derive their randomness
from :func:`repro.exec.seeds.derive_seed` rather than shared RNG state.

Failure handling is structured, not hung: a task that raises is retried
(``retries`` times) and then surfaced as an :class:`ExecError`; a worker
process that dies outright (OOM-kill, segfault, ``os._exit``) breaks the
pool, which the engine rebuilds.  A break fails every task in flight and
does not say which one killed the worker, so those tasks are re-run one
at a time on the rebuilt pool: only a task that breaks the pool while
running alone is charged an attempt, and a poison task cannot use up the
retries of the tasks queued beside it.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.obs import observer as obs
from repro.obs.metrics import TIME_BUCKETS

# Task lifecycle is traced with *instant* events only (exec.submit /
# exec.retry / exec.done / exec.failed), never spans: completion order
# and retry counts depend on worker scheduling and the host environment,
# and span-id allocation from nondeterministic events would leak into the
# ids of deterministic ones.  The deterministic trace view excludes the
# whole ``exec.`` prefix for the same reason (see
# :data:`repro.obs.trace.NONDETERMINISTIC_EVENT_PREFIXES`).


@dataclass(frozen=True)
class ExecError:
    """A task that failed after exhausting its retries."""

    task_id: Hashable
    error: str
    attempts: int
    #: ``"task"`` — the function raised; ``"worker"`` — the worker
    #: process died (the pool was rebuilt).
    stage: str = "task"

    def __str__(self) -> str:
        return f"task {self.task_id!r} failed after {self.attempts} attempt(s) [{self.stage}]: {self.error}"


class ParallelExecutor:
    """Deterministic fan-out of pure tasks over worker processes.

    :param workers: pool size; ``1`` executes inline (no subprocesses).
    :param retries: how often a failed task is re-run before it becomes
        an :class:`ExecError`.
    :param mp_context: multiprocessing start method (``"fork"`` where
        available, else the platform default).
    """

    def __init__(
        self,
        workers: int = 1,
        retries: int = 1,
        mp_context: Optional[str] = None,
    ) -> None:
        self.workers = max(1, int(workers))
        self.retries = max(0, int(retries))
        if mp_context is None:
            methods = multiprocessing.get_all_start_methods()
            mp_context = "fork" if "fork" in methods else methods[0]
        self._mp_method = mp_context
        self._pool: Optional[ProcessPoolExecutor] = None
        #: bumped on every rebuild so that the flood of BrokenProcessPool
        #: errors one dead worker causes tears the pool down only once.
        self._generation = 0
        #: future -> (task id, fn, args, attempt, pool generation,
        #: submit time, whether it runs alone on the pool)
        self._pending: Dict[
            Future, Tuple[Hashable, Callable, tuple, int, int, float, bool]
        ] = {}
        #: tasks in flight when a worker died, waiting to re-run alone.
        self._suspects: List[Tuple[Hashable, Callable, tuple, int]] = []
        self._results: Dict[Hashable, Any] = {}
        self._errors: List[ExecError] = []

    # ------------------------------------------------------------------
    # pool lifecycle
    # ------------------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context(self._mp_method),
            )
        return self._pool

    def _rebuild_pool(self, generation: int) -> None:
        """Tear the pool down once per break, no matter how many in-flight
        futures report the same dead worker."""
        if generation != self._generation:
            return  # already rebuilt for this break
        self._generation += 1
        obs.inc("exec.pool_rebuilds")
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # submission and collection
    # ------------------------------------------------------------------

    def submit(self, task_id: Hashable, fn: Callable, *args: Any) -> None:
        """Schedule ``fn(*args)`` under ``task_id``.

        Inline mode (``workers=1``) runs the task immediately; pool mode
        dispatches it and returns at once.
        """
        if task_id in self._results:
            raise ValueError(f"duplicate task id: {task_id!r}")
        obs.inc("exec.tasks")
        # Runtime notes feed the live /status endpoint only (see
        # repro.obs.stream): completion order and retry counts are
        # environment-dependent, so they never enter a deterministic view.
        obs.note("exec.submitted")
        if obs.get_tracer().enabled:
            obs.trace_event("exec.submit", task=str(task_id))
        if self.workers == 1:
            self._run_inline(task_id, fn, args)
        else:
            self._dispatch(task_id, fn, args, 1, isolated=False)

    def _dispatch(
        self, task_id: Hashable, fn: Callable, args: tuple, attempt: int, isolated: bool
    ) -> None:
        future = self._ensure_pool().submit(fn, *args)
        self._pending[future] = (
            task_id, fn, args, attempt, self._generation, time.perf_counter(), isolated
        )

    def _run_inline(self, task_id: Hashable, fn: Callable, args: tuple) -> None:
        last: Optional[BaseException] = None
        for attempt in range(self.retries + 1):
            if attempt:
                obs.inc("exec.retries")
                obs.note("exec.retries")
                if obs.get_tracer().enabled:
                    obs.trace_event("exec.retry", task=str(task_id))
            started = time.perf_counter()
            try:
                self._results[task_id] = fn(*args)
            except Exception as exc:  # noqa: BLE001 - surfaced as ExecError
                last = exc
            else:
                obs.observe("exec.task_seconds", time.perf_counter() - started, TIME_BUCKETS)
                obs.note("exec.completed")
                if obs.get_tracer().enabled:
                    obs.trace_event("exec.done", task=str(task_id), attempts=attempt + 1)
                return
        obs.inc("exec.failures")
        if obs.get_tracer().enabled:
            obs.trace_event(
                "exec.failed", task=str(task_id), attempts=self.retries + 1, stage="task"
            )
        self._errors.append(
            ExecError(task_id=task_id, error=repr(last), attempts=self.retries + 1)
        )

    def _resubmit(
        self, task_id: Hashable, fn: Callable, args: tuple, attempt: int, isolated: bool = False
    ) -> None:
        obs.inc("exec.retries")
        obs.note("exec.retries")
        if obs.get_tracer().enabled:
            obs.trace_event("exec.retry", task=str(task_id))
        self._dispatch(task_id, fn, args, attempt, isolated)

    def drain(self) -> Tuple[Dict[Hashable, Any], List[ExecError]]:
        """Wait for every submitted task; return ``(results, errors)``.

        ``results`` maps task ID to return value for every task that
        succeeded; every task that did not appears in ``errors``.
        """
        while self._pending or self._suspects:
            if not self._pending:
                self._resubmit(*self._suspects.pop(0), isolated=True)
            done, _ = wait(list(self._pending), return_when=FIRST_COMPLETED)
            for future in done:
                (
                    task_id, fn, args, attempt, generation, submitted, isolated
                ) = self._pending.pop(future)
                try:
                    self._results[task_id] = future.result()
                    # Queueing time is included; close enough for the
                    # per-task duration histogram.
                    obs.observe(
                        "exec.task_seconds", time.perf_counter() - submitted, TIME_BUCKETS
                    )
                    obs.note("exec.completed")
                    if obs.get_tracer().enabled:
                        obs.trace_event(
                            "exec.done", task=str(task_id), attempts=attempt
                        )
                except (BrokenProcessPool, CancelledError) as exc:
                    # A worker died and took the pool (and any still-queued
                    # futures) with it.  Every in-flight future reports the
                    # same break; the generation guard rebuilds only once.
                    # A task that was not running alone goes back to run
                    # alone, uncharged: the break may not be its fault.
                    self._rebuild_pool(generation)
                    if not isolated:
                        self._suspects.append((task_id, fn, args, attempt))
                    elif attempt <= self.retries:
                        self._suspects.append((task_id, fn, args, attempt + 1))
                    else:
                        obs.inc("exec.failures")
                        if obs.get_tracer().enabled:
                            obs.trace_event(
                                "exec.failed",
                                task=str(task_id),
                                attempts=attempt,
                                stage="worker",
                            )
                        self._errors.append(
                            ExecError(task_id, repr(exc), attempt, stage="worker")
                        )
                except Exception as exc:  # noqa: BLE001 - surfaced as ExecError
                    if attempt <= self.retries:
                        self._resubmit(task_id, fn, args, attempt + 1)
                    else:
                        obs.inc("exec.failures")
                        if obs.get_tracer().enabled:
                            obs.trace_event(
                                "exec.failed",
                                task=str(task_id),
                                attempts=attempt,
                                stage="task",
                            )
                        self._errors.append(ExecError(task_id, repr(exc), attempt))
        return dict(self._results), list(self._errors)


def run_tasks(
    fn: Callable,
    items: Sequence[Any],
    *,
    workers: int = 1,
    retries: int = 1,
    mp_context: Optional[str] = None,
) -> Tuple[List[Any], List[ExecError]]:
    """Map ``fn`` over ``items`` with a pool; results stay in item order.

    Failed items hold ``None`` in the result list and carry an
    :class:`ExecError` (whose ``task_id`` is the item index).
    """
    with ParallelExecutor(workers=workers, retries=retries, mp_context=mp_context) as engine:
        for index, item in enumerate(items):
            engine.submit(index, fn, item)
        results, errors = engine.drain()
    return [results.get(index) for index in range(len(items))], errors
