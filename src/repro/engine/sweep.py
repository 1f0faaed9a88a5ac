"""ModelSweep: evaluate a grid of KRR configurations in one parallel call.

Capacity planning rarely wants a single model: "what does the MRC look
like for K in {1, 2, 5, 10}, with and without spatial sampling?" is the
natural question, and each (K, strategy, rate) configuration is an
independent one-pass model over the same trace.  :class:`ModelSweep` fans
that grid out over a process pool with the trace mapped — not pickled —
into every worker via :class:`~repro.engine.shm.SharedTraceStore`.

Determinism: every configuration's model seed is derived *up front* from
the sweep seed via :class:`numpy.random.SeedSequence` spawning, indexed by
the configuration's position in the grid.  Worker count, scheduling order
and chunking therefore cannot change any result: ``max_workers=1`` and
``max_workers=8`` produce bit-identical miss-ratio grids — and so do the
fault-recovery paths (retry, pool rebuild, degradation to serial) taken by
the :class:`~repro.engine.runner.ResilientRunner` underneath
:meth:`ModelSweep.run`.

Fault tolerance: :meth:`ModelSweep.run_with_report` drives the grid
through the resilient runner (per-task timeout, bounded retries, pool
rebuild on worker death, serial fallback), streams each finished row to
an optional JSONL checkpoint for resume, and returns a structured
:class:`~repro.engine.runner.RunReport` next to the results.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from itertools import product
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.model import KRRModel
from ..core.vkrr import spawn_seeds
from ..mrc.builder import from_points
from ..mrc.curve import MissRatioCurve
from ..workloads.trace import Trace
from .checkpoint import SweepCheckpoint
from .faults import maybe_inject
from .plan import TracePlan, trace_fingerprint
from .runner import ResilientRunner, RunReport, resolve_workers
from .shm import AttachedTrace, SharedTraceStore, TraceSpec

__all__ = [
    "ModelSweep",
    "SweepConfig",
    "SweepResult",
    "model_sweep",
]



@dataclass(frozen=True)
class SweepConfig:
    """One point of the sweep grid: a full KRR model configuration."""

    k: int = 5
    strategy: str = "backward"
    sampling_rate: Optional[float] = None
    correction: bool = True
    track_sizes: bool = False

    def label(self) -> str:
        rate = "full" if self.sampling_rate is None else f"R={self.sampling_rate:g}"
        return f"K={self.k}/{self.strategy}/{rate}"


@dataclass
class SweepResult:
    """One configuration's finished model: its curve points plus counters."""

    config: SweepConfig
    seed: int
    sizes: np.ndarray
    miss_ratios: np.ndarray
    unit: str = "objects"
    requests_seen: int = 0
    requests_sampled: int = 0
    cold_misses: int = 0
    stack_updates: int = 0
    swap_positions: int = 0

    def mrc(self) -> MissRatioCurve:
        return from_points(
            self.sizes, self.miss_ratios, unit=self.unit, label=self.config.label()
        )


# ----------------------------------------------------------------------
# Worker plumbing.  The trace reaches workers one of two ways: attached
# from shared memory (pool initializer) or installed directly (serial
# in-process path).  Either way `_model_one` reads the module global.
# ----------------------------------------------------------------------
_WORKER_TRACE: Optional[Trace] = None
_WORKER_ATTACHED: Optional[AttachedTrace] = None
_WORKER_PLAN: Optional[TracePlan] = None


def _init_sweep_worker(spec: TraceSpec) -> None:
    global _WORKER_TRACE, _WORKER_ATTACHED, _WORKER_PLAN
    _WORKER_ATTACHED = AttachedTrace(spec)
    _WORKER_TRACE = _WORKER_ATTACHED.as_trace()
    _WORKER_PLAN = _WORKER_ATTACHED.plan() if spec.with_plan else None


def _install_trace(
    trace: Optional[Trace], plan: Optional[TracePlan] = None
) -> None:
    global _WORKER_TRACE, _WORKER_ATTACHED, _WORKER_PLAN
    _WORKER_TRACE = trace
    _WORKER_ATTACHED = None
    _WORKER_PLAN = plan


def _model_one(
    args: Tuple[int, SweepConfig, int, Optional[int]]
) -> Tuple[int, np.ndarray, np.ndarray, str, dict]:
    """Run one configuration against the worker's trace; return raw arrays."""
    index, config, seed, max_size = args
    maybe_inject(index)
    trace = _WORKER_TRACE
    if trace is None:  # pragma: no cover - initializer contract violation
        raise RuntimeError("sweep worker has no trace installed")
    model = KRRModel(
        k=config.k,
        strategy=config.strategy,
        sampling_rate=config.sampling_rate,
        correction=config.correction,
        track_sizes=config.track_sizes,
        seed=seed,
    )
    result = model.process(trace, plan=_WORKER_PLAN)
    if config.track_sizes:
        curve = result.byte_mrc()
        unit = "bytes"
    else:
        curve = result.mrc(max_size=max_size)
        unit = "objects"
    s = model.stats
    stats = {
        "requests_seen": s.requests_seen,
        "requests_sampled": s.requests_sampled,
        "cold_misses": s.cold_misses,
        "stack_updates": s.stack_updates,
        "swap_positions": s.swap_positions,
    }
    return index, curve.sizes, curve.miss_ratios, unit, stats


def _model_batch(
    payloads: Tuple[Tuple[int, SweepConfig, int, Optional[int]], ...]
) -> List[Tuple[int, np.ndarray, np.ndarray, str, dict]]:
    """Run several grid cells in one worker round-trip (task batching).

    Each cell still goes through :func:`_model_one` with its own
    position-derived seed, so batching changes scheduling only — never
    results.  Fewer, larger tasks amortize the submit/result IPC that
    dominates small sweeps.
    """
    return [_model_one(payload) for payload in payloads]


class ModelSweep:
    """A grid of KRR configurations evaluated over one trace.

    Parameters
    ----------
    configs:
        The grid points; build cross-products with :meth:`grid`.
    seed:
        Sweep-level seed.  Per-configuration model seeds are spawned from
        it by grid position, so results are independent of worker count.

    Example
    -------
    >>> sweep = ModelSweep.grid(ks=[1, 5], sampling_rates=[None, 0.01])
    >>> results = sweep.run(trace, max_workers=4)
    >>> results[0].config, float(results[0].miss_ratios[-1])  # doctest: +SKIP
    """

    def __init__(self, configs: Sequence[SweepConfig], seed: int = 0) -> None:
        self.configs: List[SweepConfig] = list(configs)
        if not self.configs:
            raise ValueError("need at least one SweepConfig")
        self.seed = int(seed)

    @classmethod
    def grid(
        cls,
        ks: Iterable[int],
        strategies: Iterable[str] = ("backward",),
        sampling_rates: Iterable[Optional[float]] = (None,),
        correction: bool = True,
        track_sizes: bool = False,
        seed: int = 0,
    ) -> "ModelSweep":
        """Cross-product grid over K values, strategies and sampling rates."""
        configs = [
            SweepConfig(
                k=int(k),
                strategy=s,
                sampling_rate=r,
                correction=correction,
                track_sizes=track_sizes,
            )
            for k, s, r in product(ks, strategies, sampling_rates)
        ]
        return cls(configs, seed=seed)

    def __len__(self) -> int:
        return len(self.configs)

    def config_seeds(self) -> List[int]:
        """Per-configuration model seeds, fixed by grid position.

        Delegates to :func:`repro.core.vkrr.spawn_seeds` — the shared
        derivation — so a :class:`~repro.core.vkrr.MultiKRR` grid over the
        same configuration list draws identical per-cell streams.
        """
        return spawn_seeds(len(self.configs), self.seed)

    def run(
        self,
        trace: Trace,
        max_workers: Optional[int] = None,
        max_size: Optional[int] = None,
        **runner_kwargs: object,
    ) -> List[SweepResult]:
        """Evaluate every configuration; results ordered like ``configs``.

        ``max_workers=None`` uses ``min(len(configs), cpu_count)``;
        ``max_workers=1`` runs serially in-process (no pool, no shared
        memory).  Either way the miss-ratio grids are bit-identical.
        Keyword arguments (``task_timeout``, ``retries``, ``checkpoint``,
        ``chunk_size``, ...) are forwarded to :meth:`run_with_report`.
        """
        results, _ = self.run_with_report(
            trace, max_workers=max_workers, max_size=max_size, **runner_kwargs
        )
        return results

    def run_with_report(
        self,
        trace: Trace,
        max_workers: Optional[int] = None,
        max_size: Optional[int] = None,
        *,
        task_timeout: Optional[float] = None,
        retries: int = 2,
        backoff: float = 0.5,
        max_pool_rebuilds: int = 3,
        checkpoint: Union[str, Path, None] = None,
        chunk_size: Union[None, int, str] = None,
    ) -> Tuple[List[SweepResult], RunReport]:
        """Fault-tolerant evaluation: ``(results, RunReport)``.

        The grid runs through a :class:`ResilientRunner`: each task gets
        its own ``submit()`` with an optional ``task_timeout`` deadline,
        transient failures retry up to ``retries`` times with exponential
        ``backoff``, a dead pool is rebuilt up to ``max_pool_rebuilds``
        times and then the remaining configs run serially in-process
        (with a :class:`RuntimeWarning`).  None of it can change results:
        per-config seeds are fixed by grid position.

        ``chunk_size`` batches several grid cells into one pool task
        (``"auto"`` spreads the remaining cells evenly over the workers).
        Small sweeps of cheap configs are dominated by per-task IPC — the
        measured source of the parallel-slower-than-serial regression on
        low-core machines — and batching amortizes it.  Results are
        bit-identical for every ``chunk_size``/worker combination because
        each cell's seed is fixed by grid position; ``chunk_size`` does
        not enter the checkpoint signature, so a resume may freely change
        it.  ``None``/``1`` keeps the one-task-per-config schedule (finest
        timeout/retry granularity).

        When any configuration uses spatial sampling, the trace's
        :class:`TracePlan` (batched hash column, per-rate sampled-index
        cache) is built once and shared with every worker through the
        shared-memory store, so no grid cell re-hashes the trace.

        ``checkpoint`` names a JSON-lines file: finished rows stream to it
        as they complete, and a rerun with the same sweep/trace skips the
        grid positions already on disk (resume).
        """
        seeds = self.config_seeds()
        tasks: List[Tuple[int, SweepConfig, int, Optional[int]]] = [
            (i, cfg, seeds[i], max_size)
            for i, cfg in enumerate(self.configs)
        ]

        ckpt: Optional[SweepCheckpoint] = None
        completed: dict = {}
        if checkpoint is not None:
            ckpt = SweepCheckpoint(
                checkpoint, self._signature(trace, max_size)
            )
            completed = ckpt.load()

        # One preparation pass for the whole grid: any sampling config
        # makes the shared hash column worth building.
        plan: Optional[TracePlan] = None
        if any(cfg.sampling_rate is not None for cfg in self.configs):
            plan = TracePlan.for_trace(trace)

        remaining = len(tasks) - len(completed)
        workers = resolve_workers(max_workers, remaining)
        chunk = self._resolve_chunk_size(chunk_size, remaining, workers)
        runner = ResilientRunner(
            _model_one if chunk <= 1 else _model_batch,
            max_workers=workers,
            initializer=_init_sweep_worker,
            serial_setup=lambda: _install_trace(trace, plan),
            serial_teardown=lambda: _install_trace(None),
            task_timeout=task_timeout,
            retries=retries,
            backoff=backoff,
            max_pool_rebuilds=max_pool_rebuilds,
        )
        if chunk <= 1:
            on_result = (lambda i, row: ckpt.append(row)) if ckpt else None
            pool_tasks: Sequence[object] = tasks
            pool_completed = completed
        else:
            on_result = (
                (lambda i, rows: [ckpt.append(r) for r in rows])
                if ckpt
                else None
            )
            todo = [t for t in tasks if t[0] not in completed]
            pool_tasks = [
                tuple(todo[j : j + chunk]) for j in range(0, len(todo), chunk)
            ]
            pool_completed = {}
        n_pool_tasks = len(pool_tasks) - len(pool_completed)
        if workers > 1 and n_pool_tasks > 1:
            with SharedTraceStore(trace, plan=plan) as store:
                runner.initargs = (store.spec,)
                rows, report = runner.run(
                    pool_tasks, completed=pool_completed, on_result=on_result
                )
        else:
            rows, report = runner.run(
                pool_tasks, completed=pool_completed, on_result=on_result
            )
        if chunk > 1:
            # Flatten chunk results and splice the resumed rows back in;
            # the report's task entries describe chunk tasks, so surface
            # the resumed-config count explicitly.
            by_index = dict(completed)
            for batch in rows:
                for row in batch:
                    by_index[row[0]] = row
            rows = [by_index[i] for i in range(len(tasks))]
            report.from_checkpoint = len(completed)
        results = [
            SweepResult(
                config=self.configs[i],
                seed=seeds[i],
                sizes=np.asarray(sizes),
                miss_ratios=np.asarray(ratios),
                unit=unit,
                **stats,
            )
            for i, sizes, ratios, unit, stats in rows
        ]
        return results, report

    @staticmethod
    def _resolve_chunk_size(
        chunk_size: Union[None, int, str], remaining: int, workers: int
    ) -> int:
        """Effective cells-per-task: ``None``/1 -> 1, ``"auto"`` -> even split.

        ``"auto"`` divides the remaining cells over the *usable* workers —
        the requested count capped at the CPU count, because processes
        beyond the core count add context-switching without parallelism
        (the measured source of the small-sweep regression).  On a
        one-core machine the whole grid therefore collapses into a single
        in-process batch, which is the throughput-optimal schedule there.
        """
        if chunk_size is None:
            return 1
        if chunk_size == "auto":
            usable = min(workers, os.cpu_count() or 1)
            if usable <= 1 or remaining <= usable:
                return max(1, remaining)
            return -(-remaining // usable)  # ceil division
        size = int(chunk_size)
        if size < 1:
            raise ValueError("chunk_size must be >= 1 (or 'auto')")
        return size

    def _signature(self, trace: Trace, max_size: Optional[int]) -> dict:
        """Checkpoint fingerprint: the sweep, its inputs, and the trace.

        ``chunk_size`` and worker count are deliberately absent — they
        cannot change results, so a resume may change them freely.
        """
        crc = trace_fingerprint(trace)
        return {
            "sweep_seed": self.seed,
            "max_size": max_size,
            "configs": [asdict(c) for c in self.configs],
            "trace": {
                "n": len(trace),
                "name": trace.name,
                "crc32": crc,
            },
        }


def model_sweep(
    trace: Trace,
    ks: Iterable[int],
    strategies: Iterable[str] = ("backward",),
    sampling_rates: Iterable[Optional[float]] = (None,),
    seed: int = 0,
    max_workers: Optional[int] = None,
    max_size: Optional[int] = None,
    **grid_kwargs: object,
) -> List[SweepResult]:
    """Convenience: build a grid sweep and run it in one call."""
    sweep = ModelSweep.grid(
        ks,
        strategies=strategies,
        sampling_rates=sampling_rates,
        seed=seed,
        **grid_kwargs,
    )
    return sweep.run(trace, max_workers=max_workers, max_size=max_size)
