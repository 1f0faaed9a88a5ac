"""MultiKRR: one-pass evaluation of a whole (K, strategy, rate) grid.

:class:`~repro.engine.sweep.ModelSweep` answers grid questions by running
one full :class:`~repro.core.model.KRRModel` per configuration — C
passes over the trace, C factorizations, C hash columns.  MultiKRR
evaluates the same grid in **one streaming pass**: the trace is prepared
once (dense key ids via factorization, one hash column per sampling
seed), every configuration's stack lives as one row of a C×U 2-D
``int64`` state block (slot row + position row, C-contiguous so each
row feeds a :class:`~repro.stack.soa.SoAKRRStack` zero-copy), and each
request chunk is pushed through all C stacks before the next chunk is
touched — the chunk stays hot in cache while every configuration
consumes it.

**Seeding contract.**  Per-configuration seeds are spawned from the grid
seed by position with :func:`spawn_seeds` — the *same* derivation
:meth:`ModelSweep.config_seeds` uses — and each stack owns its own
generator, so chunking and configuration order cannot leak draws between
cells.  Every cell's distances, histogram and counters are bit-identical
to an independent ``KRRModel.process`` run with the matching seed
(property-tested in ``tests/test_vkrr.py``).

Configurations are duck-typed: anything with ``k``, ``strategy``,
``sampling_rate`` and ``correction`` attributes works, so
:class:`~repro.engine.sweep.SweepConfig` instances can be passed
directly.  Strategies are limited to the SoA set
(``backward``/``linear``), at object granularity; ``topdown`` and
byte-level (``track_sizes``) grids run one :class:`KRRModel` per cell —
use :class:`ModelSweep` for those.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .._util import check_sampling_size
from ..kernels.prep import factorize_keys
from ..mrc.builder import from_distance_histogram, from_points
from ..mrc.curve import MissRatioCurve
from ..sampling.spatial import SpatialSampler
from ..stack.histogram import DistanceHistogram
from ..stack.soa import SOA_STRATEGIES, SoAKRRStack
from ..workloads.trace import Trace
from .correction import DEFAULT_EXPONENT, corrected_k

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine -> core)
    from ..engine.plan import TracePlan

__all__ = [
    "GridConfig",
    "GridResult",
    "MultiKRR",
    "spawn_seeds",
]


#: Default requests per streaming chunk (all C stacks consume each chunk
#: before the next is touched; the value only affects locality, never
#: results — per-config draws are fixed by per-config generators).
DEFAULT_CHUNK = 1 << 18


def spawn_seeds(n: int, seed: int = 0) -> List[int]:
    """Per-cell model seeds, fixed by grid position.

    This is the engine-wide seed derivation: ``ModelSweep.config_seeds``
    delegates here, so a MultiKRR grid and a ModelSweep over the same
    configuration list draw identical per-cell streams.
    """
    root = np.random.SeedSequence(int(seed))
    return [
        int(child.generate_state(1, dtype=np.uint64)[0] >> np.uint64(1))
        for child in root.spawn(int(n))
    ]


@dataclass(frozen=True)
class GridConfig:
    """One grid cell (field-compatible subset of ``SweepConfig``)."""

    k: int = 5
    strategy: str = "backward"
    sampling_rate: Optional[float] = None
    correction: bool = True

    def label(self) -> str:
        rate = "full" if self.sampling_rate is None else f"R={self.sampling_rate:g}"
        return f"K={self.k}/{self.strategy}/{rate}"


@dataclass
class GridResult:
    """One cell's finished curve plus the model counters."""

    config: object
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
        label = self.config.label() if hasattr(self.config, "label") else ""
        return from_points(
            self.sizes, self.miss_ratios, unit=self.unit, label=str(label)
        )


class _Cell:
    """Internal per-configuration state: stack row + histogram + counters."""

    __slots__ = ("config", "seed", "stack", "hist", "mask_key", "scale", "sampled", "cold")

    def __init__(
        self,
        config: object,
        seed: int,
        stack: SoAKRRStack,
        hist: DistanceHistogram,
        mask_key: Optional[Tuple[int, int, int]],
    ) -> None:
        self.config = config
        self.seed = seed
        self.stack = stack
        self.hist = hist
        self.mask_key = mask_key
        self.sampled = 0
        self.cold = 0


class MultiKRR:
    """A grid of KRR configurations evaluated in one pass over one trace.

    Parameters
    ----------
    configs:
        Grid cells — :class:`GridConfig`, ``SweepConfig``, or any object
        with ``k``/``strategy``/``sampling_rate``/``correction``.
    seed:
        Grid-level seed; per-cell seeds come from :func:`spawn_seeds` by
        position, exactly like ``ModelSweep``.

    Example
    -------
    >>> grid = MultiKRR.grid(ks=[1, 5], sampling_rates=[None, 0.01])
    >>> results = grid.run(trace)  # doctest: +SKIP
    """

    def __init__(
        self,
        configs: Sequence[object],
        seed: int = 0,
        seeds: Optional[Sequence[int]] = None,
    ) -> None:
        self.configs: List[object] = list(configs)
        if not self.configs:
            raise ValueError("need at least one grid configuration")
        for cfg in self.configs:
            strategy = getattr(cfg, "strategy", "backward")
            if strategy not in SOA_STRATEGIES:
                raise ValueError(
                    f"MultiKRR supports strategies {SOA_STRATEGIES}; "
                    f"{strategy!r} needs one KRRModel per cell (ModelSweep)"
                )
            if getattr(cfg, "track_sizes", False):
                raise ValueError(
                    "MultiKRR does not track byte distances; "
                    "use ModelSweep for track_sizes grids"
                )
            check_sampling_size(int(cfg.k))  # type: ignore[attr-defined]
        self.seed = int(seed)
        # Explicit per-cell seeds override the positional spawn — this is
        # how a resumed fleet runs only the *missing* subset of a grid
        # with each cell still drawing its original position's stream.
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
        """Cross-product grid, same cell order as ``ModelSweep.grid``."""
        configs = [
            GridConfig(k=int(k), strategy=s, sampling_rate=r, correction=correction)
            for k, s, r in product(ks, strategies, sampling_rates)
        ]
        return cls(configs, seed=seed)

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
        chunk_size: int = DEFAULT_CHUNK,
        use_native: Optional[bool] = None,
        stream: Optional[Iterable[Trace]] = None,
    ) -> List[GridResult]:
        """Evaluate every cell in one streaming pass; ordered like ``configs``.

        ``plan`` supplies a prepared :class:`~repro.engine.plan.TracePlan`
        (cached factorization and hash columns); without one the same
        columns are computed here, once for the whole grid.  ``use_native``
        is forwarded to the SoA stacks.  ``chunk_size`` trades memory
        locality only — results are bit-identical for any value.

        ``stream`` accepts a bounded-memory
        :class:`~repro.workloads.stream.TraceStream` instead of ``trace``:
        keys are interned incrementally (first-seen dense ids via
        :class:`~repro.engine.plan.StreamingTracePlan`), hash columns and
        masks are computed per chunk and shared across cells, and each
        cell's stack grows on demand.  Ids are opaque labels to the
        update walk, so every cell's distances, histogram and counters
        are **bit-identical** to the in-memory ``run(trace)`` over the
        concatenated stream, for any chunking (property-tested in
        ``tests/test_stream.py``).  The source chunking wins, so
        ``chunk_size`` is ignored; ``plan`` cannot be combined with a
        stream.
        """
        if stream is not None:
            if trace is not None:
                raise ValueError("pass either trace= or stream=, not both")
            if plan is not None:
                raise ValueError(
                    "plan caches whole-trace columns; streams intern and "
                    "hash per chunk instead"
                )
            return self._run_stream(stream, max_size, use_native)
        if trace is None:
            raise ValueError("run() needs a trace or a stream")
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        keys = trace.keys
        n = int(keys.shape[0])
        if plan is not None:
            kids = plan.key_ids
            key_table = plan.unique_keys
        else:
            key_table, kids = factorize_keys(keys)
        kids = np.ascontiguousarray(kids, dtype=np.int64)
        key_table = np.asarray(key_table, dtype=np.int64)
        n_unique = int(key_table.shape[0])

        seeds = self.config_seeds()
        n_cells = len(self.configs)

        # The grid-wide SoA state block: one slot row + one position row
        # per cell.  Rows of a C-contiguous 2-D array are themselves
        # contiguous, so each stack operates on its row zero-copy.
        width = max(1, n_unique)
        stack_block = np.zeros((n_cells, width), dtype=np.int64)
        pos_block = np.empty((n_cells, width), dtype=np.int64)

        masks: Dict[Tuple[int, int, int], np.ndarray] = {}
        cells: List[_Cell] = []
        for c, cfg in enumerate(self.configs):
            rate = getattr(cfg, "sampling_rate", None)
            mask_key: Optional[Tuple[int, int, int]] = None
            scale = 1.0
            if rate is not None:
                sampler = SpatialSampler(float(rate))
                scale = sampler.scale
                mask_key = (sampler.seed, sampler.modulus, sampler.threshold)
                if mask_key not in masks:
                    if plan is not None:
                        masks[mask_key] = plan.sample_mask(
                            sampler.threshold, sampler.modulus, sampler.seed
                        )
                    else:
                        masks[mask_key] = sampler.mask(keys)
            effective_k = (
                corrected_k(int(cfg.k), DEFAULT_EXPONENT)  # type: ignore[attr-defined]
                if getattr(cfg, "correction", True)
                else float(int(cfg.k))  # type: ignore[attr-defined]
            )
            stack = SoAKRRStack(
                effective_k,
                strategy=getattr(cfg, "strategy", "backward"),
                rng=seeds[c],
                use_native=use_native,
                stack_buffer=stack_block[c],
                pos_buffer=pos_block[c],
            )
            cells.append(
                _Cell(cfg, seeds[c], stack, DistanceHistogram(scale=scale), mask_key)
            )

        # One pass: each chunk of dense ids visits every cell while hot.
        for lo in range(0, n, chunk_size):
            hi = min(n, lo + chunk_size)
            kids_chunk = kids[lo:hi]
            for cell in cells:
                if cell.mask_key is not None:
                    sub = kids_chunk[masks[cell.mask_key][lo:hi]]
                else:
                    sub = kids_chunk
                distances = cell.stack.access_many_ids(sub, key_table)
                cell.hist.record_many(distances)
                cell.sampled += int(sub.shape[0])
                cell.cold += int(np.count_nonzero(distances == -1))

        return self._collect_results(cells, n, max_size)

    def _run_stream(
        self,
        stream: Iterable[Trace],
        max_size: Optional[int],
        use_native: Optional[bool],
    ) -> List[GridResult]:
        """Out-of-core half of :meth:`run`: per-chunk interning and masks."""
        from ..engine.plan import StreamingTracePlan

        splan = StreamingTracePlan()
        seeds = self.config_seeds()
        cells: List[_Cell] = []
        for c, cfg in enumerate(self.configs):
            rate = getattr(cfg, "sampling_rate", None)
            mask_key: Optional[Tuple[int, int, int]] = None
            scale = 1.0
            if rate is not None:
                sampler = SpatialSampler(float(rate))
                scale = sampler.scale
                mask_key = (sampler.seed, sampler.modulus, sampler.threshold)
            effective_k = (
                corrected_k(int(cfg.k), DEFAULT_EXPONENT)  # type: ignore[attr-defined]
                if getattr(cfg, "correction", True)
                else float(int(cfg.k))  # type: ignore[attr-defined]
            )
            # Growable stacks: a stream's distinct-key count is unknown up
            # front, so the fixed grid-wide 2-D state block does not apply.
            stack = SoAKRRStack(
                effective_k,
                strategy=getattr(cfg, "strategy", "backward"),
                rng=seeds[c],
                use_native=use_native,
            )
            cells.append(
                _Cell(cfg, seeds[c], stack, DistanceHistogram(scale=scale), mask_key)
            )

        for chunk in stream:
            splan.observe(chunk)
            kids = splan.intern(chunk.keys)
            masks: Dict[Tuple[int, int, int], np.ndarray] = {}
            for cell in cells:
                if cell.mask_key is not None:
                    mask = masks.get(cell.mask_key)
                    if mask is None:
                        mseed, modulus, threshold = cell.mask_key
                        mask = splan.chunk_sample_mask(
                            chunk.keys, threshold, modulus, mseed
                        )
                        masks[cell.mask_key] = mask
                    sub = kids[mask]
                else:
                    sub = kids
                distances = cell.stack.access_many_interned(sub)
                cell.hist.record_many(distances)
                cell.sampled += int(sub.shape[0])
                cell.cold += int(np.count_nonzero(distances == -1))
        return self._collect_results(cells, splan.n_requests, max_size)

    def _collect_results(
        self, cells: List[_Cell], n: int, max_size: Optional[int]
    ) -> List[GridResult]:
        results: List[GridResult] = []
        for cell in cells:
            curve = from_distance_histogram(
                cell.hist,
                max_size=max_size,
                label=f"KRR(K={int(cell.config.k)})",  # type: ignore[attr-defined]
            )
            results.append(
                GridResult(
                    config=cell.config,
                    seed=cell.seed,
                    sizes=curve.sizes,
                    miss_ratios=curve.miss_ratios,
                    unit="objects",
                    requests_seen=n,
                    requests_sampled=cell.sampled,
                    cold_misses=cell.cold,
                    stack_updates=cell.stack.updates,
                    swap_positions=cell.stack.total_swaps,
                )
            )
        return results
