"""Miss ratio curves: the library's central result object (§2.1).

A :class:`MissRatioCurve` maps cache sizes (objects or bytes) to miss
ratios.  Curves from different techniques live on different size grids, so
the class supports interpolated evaluation at arbitrary sizes, resampling
onto common grids, and monotone cleanup (an inclusion-property policy's true
MRC never increases with cache size; simulation noise can wiggle).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.typing import ArrayLike

__all__ = [
    "MissRatioCurve",
    "evaluation_grid",
    "float_array_json",
]

#: ``json.dumps`` spells the non-finite floats its own way, not as ``repr``.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def float_array_json(values: ArrayLike) -> str:
    """``json.dumps(np.asarray(values, float64).tolist())``, run-length fast.

    A sampled curve changes value only every ~1/R sizes, so each run of
    bit-equal values is formatted once (``repr`` of a Python float, as
    ``json`` does) and its text repeated.  Runs compare bits, not values:
    ``-0.0`` and ``0.0`` print differently.
    """
    a = np.ascontiguousarray(values, dtype=np.float64)
    if a.size == 0:
        return "[]"
    bits = a.view(np.int64)
    starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    lengths = np.diff(np.append(starts, a.size))
    heads = a[starts]
    texts = list(map(repr, heads.tolist()))
    if not np.isfinite(heads).all():
        texts = [_NON_FINITE.get(t, t) for t in texts]
    runs = np.flatnonzero(lengths > 1)
    for i, n in zip(runs.tolist(), lengths[runs].tolist()):
        texts[i] = ", ".join([texts[i]] * n)
    return "[" + ", ".join(texts) + "]"


@dataclass(frozen=True)
class MissRatioCurve:
    """An MRC: parallel arrays of cache sizes and miss ratios.

    ``sizes`` must be non-negative and strictly increasing; ``miss_ratios``
    in [0, 1].  ``unit`` is ``"objects"`` or ``"bytes"`` (informational but
    compared in :func:`repro.mrc.metrics.mean_absolute_error` to prevent
    accidental cross-unit comparisons).  ``label`` names the producing
    technique in reports.
    """

    sizes: np.ndarray
    miss_ratios: np.ndarray
    unit: str = "objects"
    label: str = ""

    def __post_init__(self) -> None:
        sizes = np.asarray(self.sizes, dtype=np.float64)
        ratios = np.asarray(self.miss_ratios, dtype=np.float64)
        if sizes.ndim != 1 or sizes.shape != ratios.shape:
            raise ValueError("sizes and miss_ratios must be 1-D and parallel")
        if sizes.size == 0:
            raise ValueError("an MRC needs at least one point")
        if np.any(np.diff(sizes) <= 0):
            raise ValueError("sizes must be strictly increasing")
        if sizes[0] < 0:
            raise ValueError("sizes must be non-negative")
        if ratios.min() < -1e-9 or ratios.max() > 1 + 1e-9:
            raise ValueError("miss ratios must lie in [0, 1]")
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "miss_ratios", np.clip(ratios, 0.0, 1.0))

    def __len__(self) -> int:
        return int(self.sizes.shape[0])

    def __call__(self, size) -> np.ndarray | float:
        """Miss ratio at cache size(s) ``size`` (linear interpolation).

        Sizes below the grid return the first ratio; above it, the last
        (MRCs flatten once the cache holds the working set).
        """
        return np.interp(size, self.sizes, self.miss_ratios)

    def resample(self, sizes: Sequence[float]) -> "MissRatioCurve":
        """This curve evaluated on a new size grid."""
        grid = np.asarray(sizes, dtype=np.float64)
        return MissRatioCurve(grid, self(grid), unit=self.unit, label=self.label)

    def enforce_monotone(self) -> "MissRatioCurve":
        """Non-increasing envelope (running minimum left to right)."""
        return MissRatioCurve(
            self.sizes,
            np.minimum.accumulate(self.miss_ratios),
            unit=self.unit,
            label=self.label,
        )

    def is_monotone(self, tol: float = 1e-12) -> bool:
        """True if miss ratio never increases with cache size."""
        return bool(np.all(np.diff(self.miss_ratios) <= tol))

    def max_size(self) -> float:
        return float(self.sizes[-1])

    def with_label(self, label: str) -> "MissRatioCurve":
        return MissRatioCurve(self.sizes, self.miss_ratios, self.unit, label)

    def to_json(self) -> str:
        """``json.dumps({"sizes": ..., "miss_ratios": ..., "unit": ...})``
        of the float lists, encoded by :func:`float_array_json`."""
        return (
            f'{{"sizes": {float_array_json(self.sizes)}, '
            f'"miss_ratios": {float_array_json(self.miss_ratios)}, '
            f'"unit": {json.dumps(self.unit)}}}'
        )

    def to_rows(self) -> list[tuple[float, float]]:
        """(size, miss_ratio) rows — handy for printing experiment series."""
        return [(float(s), float(m)) for s, m in zip(self.sizes, self.miss_ratios)]


def evaluation_grid(max_size: float, n_points: int = 40, start: float | None = None) -> np.ndarray:
    """The paper's evaluation grid: ``n_points`` sizes evenly spread over
    the working set (§5.3 uses 40 sizes for accuracy, §5.5 uses 25)."""
    if max_size <= 0:
        raise ValueError("max_size must be positive")
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    lo = max_size / n_points if start is None else start
    return np.linspace(lo, max_size, n_points)
