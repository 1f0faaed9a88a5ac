"""The grid task, and ModelSweep: one checkpointed grid over one trace.

Capacity planning rarely wants a single model: "what does the MRC look
like for K in {1, 2, 5, 10}, with and without spatial sampling?" is the
natural question, and each (K, strategy, rate) configuration is an
independent one-pass model over the same trace.  The **grid task**
(:func:`run_grid_task`) answers it for one trace: it resumes from the
trace's JSONL checkpoint, evaluates every missing cell in one
:class:`~repro.core.vkrr.MultiKRR` pass — ``run(trace)`` for an
in-memory :class:`Trace`, ``run(stream=)`` for a path — and appends each
fresh row durably.  :class:`ModelSweep` runs that task in-process;
:class:`~repro.engine.fleet.FleetSweep` runs one per trace across a
process pool, which is where parallelism pays.

Determinism: every cell's model seed is spawned from the grid seed by
the cell's position (:func:`~repro.core.vkrr.spawn_seeds`), so resume
and the runner's recovery paths (retry, pool rebuild, degradation to
serial) cannot change any result.
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.vkrr import MultiKRR, SweepConfig, SweepResult, grid_configs, spawn_seeds
from ..workloads.stream import DEFAULT_CHUNK, open_trace_stream
from ..workloads.trace import Trace
from .checkpoint import Row, SweepCheckpoint
from .faults import maybe_inject
from .plan import trace_fingerprint
from .runner import ResilientRunner, RunReport

__all__ = [
    "ModelSweep",
    "SweepConfig",
    "SweepResult",
    "model_sweep",
]


#: Per-cell counters, in the order a checkpoint row stores them.
_STATS = (
    "requests_seen",
    "requests_sampled",
    "cold_misses",
    "stack_updates",
    "swap_positions",
)


class GridTask(NamedTuple):
    """Everything one trace's grid needs, picklable for pool workers."""

    index: int  # trace position (and fault-injection point)
    source: Union[Trace, str]  # in memory, or a path opened as a stream
    configs: Tuple[SweepConfig, ...]
    seed: int  # grid seed; cell seeds spawn from it by position
    max_size: Optional[int]
    chunk_size: int  # stream chunking for path sources
    checkpoint: Optional[str]  # per-trace JSONL checkpoint path
    signature: Optional[dict]  # that checkpoint's expected signature
    errors: str  # CSV error mode for path sources


#: A finished task: ``(index, rows ordered like the grid, counters)``.
TaskResult = Tuple[int, List[Row], Dict[str, int]]


def run_grid_task(task: GridTask) -> TaskResult:
    """Evaluate one trace's grid, computing only the cells not yet on disk.

    Loads the task's checkpoint first, runs every missing cell in one
    :class:`MultiKRR` pass with its original position's seed, and appends
    each fresh row durably.
    """
    maybe_inject(task.index)
    ckpt: Optional[SweepCheckpoint] = None
    rows: Dict[int, Row] = {}
    if task.checkpoint is not None:
        assert task.signature is not None
        ckpt = SweepCheckpoint(task.checkpoint, task.signature)
        rows = ckpt.load()
    resumed = len(rows)
    seeds = spawn_seeds(len(task.configs), task.seed)
    missing = [i for i in range(len(task.configs)) if i not in rows]
    if missing:
        grid = MultiKRR(
            [task.configs[i] for i in missing], seeds=[seeds[i] for i in missing]
        )
        if isinstance(task.source, Trace):
            results = grid.run(task.source, max_size=task.max_size)
        else:
            stream = open_trace_stream(task.source, task.chunk_size, task.errors)
            results = grid.run(stream=stream, max_size=task.max_size)
        for i, res in zip(missing, results):
            row: Row = (
                i,
                res.sizes,
                res.miss_ratios,
                res.unit,
                {f: getattr(res, f) for f in _STATS},
            )
            rows[i] = row
            if ckpt is not None:
                ckpt.append(row)
    ordered = [rows[i] for i in range(len(task.configs))]
    return task.index, ordered, {"resumed": resumed, "computed": len(missing)}


def checkpointed_result(task: GridTask) -> Optional[TaskResult]:
    """The task's result read from its checkpoint, if that holds every cell.

    A finished task then never reaches the runner, so fault-injection
    latches and retry budgets are not spent on finished work.
    """
    if task.checkpoint is None:
        return None
    assert task.signature is not None
    rows = SweepCheckpoint(task.checkpoint, task.signature).load()
    n = len(task.configs)
    if len(rows) != n:
        return None
    return task.index, [rows[i] for i in range(n)], {"resumed": n, "computed": 0}


def grid_results(
    configs: Sequence[SweepConfig], seeds: Sequence[int], rows: Sequence[Row]
) -> List[SweepResult]:
    """Checkpoint rows (fresh or resumed) as :class:`SweepResult` objects."""
    return [
        SweepResult(
            config=configs[i],
            seed=seeds[i],
            sizes=np.asarray(sizes),
            miss_ratios=np.asarray(ratios),
            unit=unit,
            **stats,
        )
        for i, sizes, ratios, unit, stats in rows
    ]


class ModelSweep:
    """A grid of KRR configurations evaluated over one trace.

    Parameters
    ----------
    configs:
        The grid points; build cross-products with :meth:`grid`.
    seed:
        Sweep-level seed: the grid seed per-configuration model seeds are
        spawned from by grid position.

    Example
    -------
    >>> sweep = ModelSweep.grid(ks=[1, 5], sampling_rates=[None, 0.01])
    >>> results = sweep.run(trace)
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
        return cls(
            grid_configs(ks, strategies, sampling_rates, correction, track_sizes),
            seed=seed,
        )

    def __len__(self) -> int:
        return len(self.configs)

    def config_seeds(self) -> List[int]:
        """Per-configuration model seeds, fixed by grid position."""
        return spawn_seeds(len(self.configs), self.seed)

    def run(
        self,
        trace: Trace,
        max_size: Optional[int] = None,
        **runner_kwargs: object,
    ) -> List[SweepResult]:
        """Evaluate every configuration; results ordered like ``configs``.

        Keyword arguments (``retries``, ``backoff``, ``checkpoint``) are
        forwarded to :meth:`run_with_report`.
        """
        results, _ = self.run_with_report(
            trace, max_size=max_size, **runner_kwargs
        )
        return results

    def run_with_report(
        self,
        trace: Trace,
        max_size: Optional[int] = None,
        *,
        retries: int = 2,
        backoff: float = 0.5,
        checkpoint: Union[str, Path, None] = None,
    ) -> Tuple[List[SweepResult], RunReport]:
        """Checkpointed evaluation: ``(results, RunReport)``.

        The grid runs as one :func:`run_grid_task` through a serial
        :class:`ResilientRunner`: transient failures retry up to
        ``retries`` times with exponential ``backoff``.

        ``checkpoint`` names a JSON-lines file: finished rows are appended
        to it, and a rerun with the same sweep/trace computes only the
        grid positions not already on disk (resume).  The report's
        ``from_checkpoint`` counts the resumed cells.
        """
        signature = (
            self._signature(trace, max_size) if checkpoint is not None else None
        )
        task = GridTask(
            0,
            trace,
            tuple(self.configs),
            self.seed,
            max_size,
            DEFAULT_CHUNK,
            None if checkpoint is None else str(checkpoint),
            signature,
            "strict",
        )
        done = checkpointed_result(task)
        runner = ResilientRunner(
            run_grid_task, max_workers=1, retries=retries, backoff=backoff
        )
        raw, report = runner.run([task], completed={0: done} if done else None)
        _, rows, counters = raw[0]
        report.from_checkpoint = counters["resumed"]
        return grid_results(self.configs, self.config_seeds(), rows), report

    def _signature(self, trace: Trace, max_size: Optional[int]) -> dict:
        """Checkpoint fingerprint: the sweep, its inputs, and the trace."""
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
    return sweep.run(trace, max_size=max_size)
