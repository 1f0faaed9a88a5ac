"""Resilient task execution: retries, timeouts, pool rebuild, serial fallback.

``ProcessPoolExecutor.map`` is all-or-nothing: one OOM-killed or
segfaulting worker raises :class:`BrokenProcessPool` and discards every
finished task, and a hung worker wedges the whole sweep.  At multi-hour
grid sizes that is unacceptable.  :class:`ResilientRunner` replaces the
bare ``map`` with per-task ``submit()`` plus:

* **per-task timeout** — a task that exceeds ``task_timeout`` seconds is
  declared hung; the pool's workers are terminated (a running task cannot
  be cancelled any other way), the pool is rebuilt, and the task retried;
* **bounded retry with exponential backoff** — exceptions in
  ``retryable`` (by default :class:`TransientTaskError`, :class:`OSError`,
  :class:`MemoryError`) are retried up to ``retries`` times per task;
  anything else fails fast with :class:`TaskFailedError`;
* **automatic pool rebuild** — on :class:`BrokenProcessPool` all in-flight
  tasks are requeued (no retry charge: the crash culprit is unknowable)
  and a fresh pool is built, bounded by ``max_pool_rebuilds``;
* **graceful degradation to serial** — when the pool keeps dying, the
  remaining tasks run in-process with a :class:`RuntimeWarning`, never a
  silent wrong answer (callers guarantee per-task determinism, so the
  execution path cannot change results).

Results stream through an ``on_result`` callback as they complete (the
checkpoint hook), already-completed tasks can be skipped via
``completed`` (the resume hook), and every run returns a structured
:class:`RunReport` (attempts, retries, timeouts, rebuilds, per-task wall
time) alongside the ordered results.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Deque, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "ResilientRunner",
    "RunReport",
    "TaskFailedError",
    "TaskReport",
    "TransientTaskError",
    "resolve_workers",
]



class TransientTaskError(RuntimeError):
    """A worker failure worth retrying (I/O hiccup, injected fault, ...)."""


class TaskFailedError(RuntimeError):
    """A task exhausted its retry budget (or raised a non-retryable error).

    Carries the task ``index``, the ``attempts`` spent, the underlying
    ``cause`` and the partial :class:`RunReport` so callers (and the CLI)
    can show exactly what happened before the failure.
    """

    def __init__(
        self,
        index: int,
        attempts: int,
        cause: BaseException,
        report: Optional["RunReport"] = None,
    ) -> None:
        super().__init__(
            f"task {index} failed after {attempts} attempt(s): {cause!r}"
        )
        self.index = index
        self.attempts = attempts
        self.cause = cause
        self.report = report


@dataclass
class TaskReport:
    """Per-task accounting: how many tries it took and how long it ran."""

    index: int
    attempts: int = 0
    retries: int = 0
    timeouts: int = 0
    wall_time: float = 0.0
    outcome: str = "pending"  # pending | ok | failed | from-checkpoint


@dataclass
class RunReport:
    """Structured outcome of one :meth:`ResilientRunner.run` call."""

    total_tasks: int
    mode: str = "pool"  # "pool" | "serial"
    completed: int = 0
    from_checkpoint: int = 0
    attempts: int = 0
    retries: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0
    degraded_to_serial: bool = False
    wall_time: float = 0.0
    tasks: List[TaskReport] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def resolve_workers(max_workers: Optional[int], n_tasks: int) -> int:
    """Effective worker count: ``None`` means ``min(n_tasks, cpu_count)``."""
    w = max_workers if max_workers is not None else (os.cpu_count() or 1)
    return max(1, min(int(w), max(1, n_tasks)))


_DEFAULT_RETRYABLE = (TransientTaskError, OSError, MemoryError)


class ResilientRunner:
    """Run picklable tasks through a process pool that survives its workers.

    Parameters
    ----------
    fn:
        Module-level worker function ``fn(payload) -> result``.
    max_workers:
        Pool size; ``<= 1`` runs everything serially in-process (using
        ``serial_setup``/``serial_teardown`` instead of the pool
        ``initializer``).
    initializer, initargs:
        Forwarded to every (re)built :class:`ProcessPoolExecutor`.
    serial_setup, serial_teardown:
        In-process equivalents of the pool initializer, used on the serial
        path and after degradation.
    task_timeout:
        Seconds a single task may run before its worker is killed and the
        task retried.  ``None`` disables the deadline (a hung worker then
        hangs the run — only safe for trusted workloads).
    retries:
        Extra attempts per task for retryable failures and timeouts.
    backoff, backoff_cap:
        Exponential backoff between retries: ``backoff * 2**(attempt-1)``
        seconds, capped at ``backoff_cap``.
    max_pool_rebuilds:
        Pool deaths tolerated before degrading to serial execution.
    retryable:
        Exception types retried instead of failing the run.
    """

    def __init__(
        self,
        fn: Callable[[Any], Any],
        *,
        max_workers: Optional[int] = None,
        initializer: Optional[Callable[..., None]] = None,
        initargs: Tuple[Any, ...] = (),
        serial_setup: Optional[Callable[[], None]] = None,
        serial_teardown: Optional[Callable[[], None]] = None,
        task_timeout: Optional[float] = None,
        retries: int = 2,
        backoff: float = 0.5,
        backoff_cap: float = 30.0,
        max_pool_rebuilds: int = 3,
        retryable: Tuple["type[BaseException]", ...] = _DEFAULT_RETRYABLE,
    ) -> None:
        self.fn = fn
        self.max_workers = max_workers
        self.initializer = initializer
        self.initargs = initargs
        self.serial_setup = serial_setup
        self.serial_teardown = serial_teardown
        self.task_timeout = task_timeout
        self.retries = max(0, int(retries))
        self.backoff = float(backoff)
        self.backoff_cap = float(backoff_cap)
        self.max_pool_rebuilds = max(0, int(max_pool_rebuilds))
        self.retryable = retryable

    # ------------------------------------------------------------------
    def run(
        self,
        payloads: Sequence[Any],
        *,
        completed: Optional[Mapping[int, Any]] = None,
        on_result: Optional[Callable[[int, Any], None]] = None,
    ) -> Tuple[List[Any], RunReport]:
        """Execute every payload; returns ``(ordered results, report)``.

        ``completed`` maps payload indices to already-known results
        (checkpoint resume): those tasks are never executed, their results
        slot straight into the output.  ``on_result(index, result)`` fires
        in the parent process as each task finishes (checkpoint streaming).
        """
        n = len(payloads)
        report = RunReport(
            total_tasks=n, tasks=[TaskReport(i) for i in range(n)]
        )
        results: Dict[int, Any] = {}
        for i, value in (completed or {}).items():
            i = int(i)
            if not 0 <= i < n:
                raise IndexError(f"completed index {i} out of range 0..{n - 1}")
            results[i] = value
            report.tasks[i].outcome = "from-checkpoint"
        report.from_checkpoint = len(results)
        todo = [i for i in range(n) if i not in results]
        workers = resolve_workers(self.max_workers, len(todo))
        start = time.monotonic()
        try:
            if workers <= 1 or len(todo) <= 1:
                report.mode = "serial"
                self._run_serial(todo, payloads, results, report, on_result)
            else:
                report.mode = "pool"
                self._run_pool(
                    todo, payloads, results, report, on_result, workers
                )
        finally:
            report.wall_time = time.monotonic() - start
            report.completed = sum(
                1 for t in report.tasks if t.outcome == "ok"
            )
        return [results[i] for i in range(n)], report

    # ------------------------------------------------------------------
    # serial path (also the degradation target)
    # ------------------------------------------------------------------
    def _run_serial(
        self,
        todo: Sequence[int],
        payloads: Sequence[Any],
        results: Dict[int, Any],
        report: RunReport,
        on_result: Optional[Callable[[int, Any], None]],
    ) -> None:
        if not todo:
            return
        if self.serial_setup is not None:
            self.serial_setup()
        try:
            for i in todo:
                results[i] = self._serial_one(i, payloads[i], report)
                if on_result is not None:
                    on_result(i, results[i])
        finally:
            if self.serial_teardown is not None:
                self.serial_teardown()

    def _serial_one(self, i: int, payload: Any, report: RunReport) -> Any:
        tr = report.tasks[i]
        while True:
            tr.attempts += 1
            report.attempts += 1
            t0 = time.monotonic()
            try:
                result = self.fn(payload)
            except self.retryable as exc:
                if tr.attempts > self.retries:
                    tr.outcome = "failed"
                    raise TaskFailedError(i, tr.attempts, exc, report) from exc
                tr.retries += 1
                report.retries += 1
                self._sleep_backoff(tr.attempts)
                continue
            except Exception as exc:
                tr.outcome = "failed"
                raise TaskFailedError(i, tr.attempts, exc, report) from exc
            tr.wall_time = time.monotonic() - t0
            tr.outcome = "ok"
            return result

    # ------------------------------------------------------------------
    # pool path
    # ------------------------------------------------------------------
    def _run_pool(
        self,
        todo: Sequence[int],
        payloads: Sequence[Any],
        results: Dict[int, Any],
        report: RunReport,
        on_result: Optional[Callable[[int, Any], None]],
        workers: int,
    ) -> None:
        pending: Deque[int] = deque(todo)
        inflight: Dict[Future, Tuple[int, float]] = {}
        pool: Optional[ProcessPoolExecutor] = self._new_pool(workers)
        try:
            while pending or inflight:
                # Keep at most `workers` tasks in flight so a submit-time
                # deadline is a real start-time deadline.
                submit_broken = False
                while pending and len(inflight) < workers:
                    i = pending.popleft()
                    try:
                        fut = pool.submit(self.fn, payloads[i])
                    except (BrokenExecutor, RuntimeError):
                        pending.appendleft(i)
                        submit_broken = True
                        break
                    inflight[fut] = (i, time.monotonic())
                if submit_broken:
                    pool = self._rebuild_or_degrade(
                        pool, inflight, pending, report, workers
                    )
                    if pool is None:
                        self._run_serial(
                            list(pending), payloads, results, report, on_result
                        )
                        return
                    continue
                done, _ = wait(
                    set(inflight),
                    timeout=self._wait_timeout(inflight),
                    return_when=FIRST_COMPLETED,
                )
                pool_broken = False
                for fut in done:
                    i, t0 = inflight.pop(fut)
                    tr = report.tasks[i]
                    try:
                        result = fut.result()
                    except BrokenExecutor:
                        # The crash culprit is unknowable; requeue without a
                        # retry charge — max_pool_rebuilds bounds this loop.
                        pending.append(i)
                        pool_broken = True
                    except self.retryable as exc:
                        tr.attempts += 1
                        report.attempts += 1
                        if tr.attempts > self.retries:
                            tr.outcome = "failed"
                            raise TaskFailedError(
                                i, tr.attempts, exc, report
                            ) from exc
                        tr.retries += 1
                        report.retries += 1
                        self._sleep_backoff(tr.attempts)
                        pending.append(i)
                    except Exception as exc:
                        tr.attempts += 1
                        report.attempts += 1
                        tr.outcome = "failed"
                        raise TaskFailedError(
                            i, tr.attempts, exc, report
                        ) from exc
                    else:
                        tr.attempts += 1
                        report.attempts += 1
                        tr.wall_time = time.monotonic() - t0
                        tr.outcome = "ok"
                        results[i] = result
                        if on_result is not None:
                            on_result(i, result)
                expired = self._expired(inflight)
                if pool_broken or expired:
                    for fut in expired:
                        i, _ = inflight[fut]
                        tr = report.tasks[i]
                        tr.timeouts += 1
                        report.timeouts += 1
                        tr.attempts += 1
                        report.attempts += 1
                        if tr.attempts > self.retries:
                            tr.outcome = "failed"
                            raise TaskFailedError(
                                i,
                                tr.attempts,
                                TimeoutError(
                                    f"task {i} exceeded "
                                    f"{self.task_timeout}s deadline"
                                ),
                                report,
                            )
                        tr.retries += 1
                        report.retries += 1
                    pool = self._rebuild_or_degrade(
                        pool, inflight, pending, report, workers
                    )
                    if pool is None:
                        self._run_serial(
                            list(pending), payloads, results, report, on_result
                        )
                        return
        finally:
            if pool is not None:
                self._kill_pool(pool)

    def _expired(
        self, inflight: Dict[Future, Tuple[int, float]]
    ) -> List[Future]:
        if self.task_timeout is None:
            return []
        now = time.monotonic()
        return [
            fut
            for fut, (_, t0) in inflight.items()
            if not fut.done() and now - t0 >= self.task_timeout
        ]

    def _wait_timeout(
        self, inflight: Dict[Future, Tuple[int, float]]
    ) -> Optional[float]:
        if self.task_timeout is None:
            return None
        now = time.monotonic()
        nearest = min(
            t0 + self.task_timeout - now for _, t0 in inflight.values()
        )
        return max(0.05, nearest)

    def _rebuild_or_degrade(
        self,
        pool: Optional[ProcessPoolExecutor],
        inflight: Dict[Future, Tuple[int, float]],
        pending: "Deque[int]",
        report: RunReport,
        workers: int,
    ) -> Optional[ProcessPoolExecutor]:
        """Requeue in-flight work, kill the pool, and rebuild (or give up)."""
        for i, _ in inflight.values():
            pending.append(i)
        inflight.clear()
        self._kill_pool(pool)
        report.pool_rebuilds += 1
        if report.pool_rebuilds > self.max_pool_rebuilds:
            report.degraded_to_serial = True
            warnings.warn(
                f"process pool died {report.pool_rebuilds} times; degrading "
                "to serial in-process execution (results are unaffected: "
                "per-task seeds make every execution path bit-identical)",
                RuntimeWarning,
                stacklevel=4,
            )
            return None
        return self._new_pool(workers)

    def _new_pool(self, workers: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=workers,
            initializer=self.initializer,
            initargs=self.initargs,
        )

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Tear a pool down even when its workers are hung or dead.

        ``shutdown()`` alone never returns while a worker is stuck in a
        task, so the worker processes are terminated first (private
        ``_processes`` is the only handle the executor exposes).
        """
        procs_attr = getattr(pool, "_processes", None)
        procs = list(procs_attr.values()) if procs_attr else []
        for p in procs:
            try:
                p.terminate()
            except Exception:  # pragma: no cover - already dead
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - broken executor internals
            pass
        for p in procs:
            try:
                p.join(timeout=5)
            except Exception:  # pragma: no cover
                pass

    def _sleep_backoff(self, attempt: int) -> None:
        if self.backoff <= 0:
            return
        time.sleep(min(self.backoff * (2 ** (attempt - 1)), self.backoff_cap))
