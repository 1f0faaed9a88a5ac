"""MultiKRR: the grid runner, one :class:`KRRModel` per (K, strategy, rate) cell.

The paper evaluates KRR over grids of K, update strategy and spatial
sampling rate; each grid cell is an independent one-pass model.
:class:`MultiKRR` is the one evaluator for such a grid, and every other
grid API runs through it: :class:`~repro.engine.sweep.ModelSweep` is one
checkpointed MultiKRR task over one trace, and
:class:`~repro.engine.fleet.FleetSweep` runs one such task per trace.

* An in-memory trace runs cell by cell over one shared
  :class:`~repro.engine.plan.TracePlan` (factorized keys and hash
  columns are computed once for the whole grid).
* A bounded-memory :class:`~repro.workloads.stream.TraceStream` feeds
  every cell's model ``access_many(chunk.keys, chunk.sizes)`` chunk by
  chunk, so each model filters first and interns only what it keeps.

Every strategy (``topdown`` included) and byte-level (``track_sizes``)
cells are supported, because a cell *is* a ``KRRModel``.

**Seeding contract.**  Per-cell seeds are spawned from the grid seed by
position with :func:`spawn_seeds` (the engine-wide derivation), so each
cell's curve and counters are bit-identical to an independent
``KRRModel`` with the matching seed, whatever the grid's other cells,
order or input chunking (property-tested in ``tests/test_vkrr.py`` and
``tests/test_stream.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence

import numpy as np

from .._util import check_sampling_size
from ..mrc.builder import from_points
from ..mrc.curve import MissRatioCurve
from ..workloads.trace import Trace
from .model import KRRModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine -> core)
    from ..engine.plan import TracePlan

__all__ = [
    "MultiKRR",
    "SweepConfig",
    "SweepResult",
    "grid_configs",
    "spawn_seeds",
]


def spawn_seeds(n: int, seed: int = 0) -> List[int]:
    """Per-cell model seeds, fixed by grid position.

    This is the engine-wide seed derivation: ``MultiKRR``, ``ModelSweep``
    and (per trace) ``FleetSweep`` all draw their cells' streams from it.
    """
    root = np.random.SeedSequence(int(seed))
    return [
        int(child.generate_state(1, dtype=np.uint64)[0] >> np.uint64(1))
        for child in root.spawn(int(n))
    ]


@dataclass(frozen=True)
class SweepConfig:
    """One point of the grid: a full KRR model configuration."""

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
    """One cell's finished model: its curve points plus counters."""

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


def grid_configs(
    ks: Iterable[int],
    strategies: Iterable[str] = ("backward",),
    sampling_rates: Iterable[Optional[float]] = (None,),
    correction: bool = True,
    track_sizes: bool = False,
) -> List[SweepConfig]:
    """The (K, strategy, rate) cross-product, K outermost."""
    return [
        SweepConfig(
            k=int(k),
            strategy=s,
            sampling_rate=r,
            correction=correction,
            track_sizes=track_sizes,
        )
        for k, s, r in product(ks, strategies, sampling_rates)
    ]


class MultiKRR:
    """A grid of KRR configurations evaluated over one trace or stream.

    Parameters
    ----------
    configs:
        Grid cells (:class:`SweepConfig`); build cross-products with
        :meth:`grid`.
    seed:
        Grid-level seed; per-cell seeds come from :func:`spawn_seeds` by
        position.
    seeds:
        Explicit per-cell seeds overriding the positional spawn — how a
        resumed sweep runs only the *missing* cells of a grid, each still
        drawing its original position's stream.

    Example
    -------
    >>> grid = MultiKRR.grid(ks=[1, 5], sampling_rates=[None, 0.01])
    >>> results = grid.run(trace)  # doctest: +SKIP
    """

    def __init__(
        self,
        configs: Sequence[SweepConfig],
        seed: int = 0,
        seeds: Optional[Sequence[int]] = None,
    ) -> None:
        self.configs: List[SweepConfig] = list(configs)
        if not self.configs:
            raise ValueError("need at least one grid configuration")
        for cfg in self.configs:
            check_sampling_size(int(cfg.k))
        self.seed = int(seed)
        self._seeds_override: Optional[List[int]] = (
            [int(s) for s in seeds] if seeds is not None else None
        )
        if self._seeds_override is not None and len(self._seeds_override) != len(
            self.configs
        ):
            raise ValueError(
                f"seeds has {len(self._seeds_override)} entries for "
                f"{len(self.configs)} configs"
            )

    @classmethod
    def grid(
        cls,
        ks: Iterable[int],
        strategies: Iterable[str] = ("backward",),
        sampling_rates: Iterable[Optional[float]] = (None,),
        correction: bool = True,
        seed: int = 0,
    ) -> "MultiKRR":
        """Cross-product grid (see :func:`grid_configs`)."""
        return cls(
            grid_configs(ks, strategies, sampling_rates, correction), seed=seed
        )

    def __len__(self) -> int:
        return len(self.configs)

    def config_seeds(self) -> List[int]:
        """Per-cell seeds (``spawn_seeds`` of the grid seed, by position,
        unless explicit ``seeds`` were passed at construction)."""
        if self._seeds_override is not None:
            return list(self._seeds_override)
        return spawn_seeds(len(self.configs), self.seed)

    # ------------------------------------------------------------------
    def run(
        self,
        trace: Optional[Trace] = None,
        plan: Optional["TracePlan"] = None,
        max_size: Optional[int] = None,
        stream: Optional[Iterable[Trace]] = None,
    ) -> List[SweepResult]:
        """Evaluate every cell; results ordered like ``configs``.

        ``trace`` runs the cells one after another over one
        :class:`~repro.engine.plan.TracePlan` — ``plan`` if given, else
        the cached plan for ``trace`` — so only one cell's model is alive
        at a time.  ``stream`` accepts a bounded-memory
        :class:`~repro.workloads.stream.TraceStream` instead: every
        cell's model consumes each chunk before the next is read, which
        is bit-identical to the in-memory run for any chunking.
        ``max_size`` caps object-granularity curves.
        """
        seeds = self.config_seeds()
        if stream is not None:
            if trace is not None:
                raise ValueError("pass either trace= or stream=, not both")
            if plan is not None:
                raise ValueError(
                    "plan caches whole-trace columns; streamed chunks "
                    "compute their columns per chunk instead"
                )
            models = [self._model(cfg, s) for cfg, s in zip(self.configs, seeds)]
            for chunk in stream:
                for model in models:
                    model.access_many(chunk.keys, chunk.sizes)
            return [
                _result(cfg, s, model, max_size)
                for cfg, s, model in zip(self.configs, seeds, models)
            ]
        if trace is None:
            raise ValueError("run() needs a trace or a stream")
        if plan is None:
            from ..engine.plan import TracePlan

            plan = TracePlan.for_trace(trace)
        results: List[SweepResult] = []
        for cfg, s in zip(self.configs, seeds):
            model = self._model(cfg, s)
            model.process(trace, plan=plan)
            results.append(_result(cfg, s, model, max_size))
        return results

    @staticmethod
    def _model(cfg: SweepConfig, seed: int) -> KRRModel:
        return KRRModel(
            k=cfg.k,
            strategy=cfg.strategy,
            sampling_rate=cfg.sampling_rate,
            correction=cfg.correction,
            track_sizes=cfg.track_sizes,
            seed=seed,
        )


def _result(
    cfg: SweepConfig, seed: int, model: KRRModel, max_size: Optional[int]
) -> SweepResult:
    """A finished cell: its byte or object curve plus the model counters."""
    if cfg.track_sizes:
        curve, unit = model.byte_mrc(), "bytes"
    else:
        curve, unit = model.mrc(max_size=max_size), "objects"
    s = model.stats
    return SweepResult(
        config=cfg,
        seed=seed,
        sizes=curve.sizes,
        miss_ratios=curve.miss_ratios,
        unit=unit,
        requests_seen=s.requests_seen,
        requests_sampled=s.requests_sampled,
        cold_misses=s.cold_misses,
        stack_updates=s.stack_updates,
        swap_positions=s.swap_positions,
    )
