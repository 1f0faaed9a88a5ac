"""Small shared helpers: RNG construction, argument validation, directory fsync.

Every stochastic component in :mod:`repro` takes either an integer seed or a
ready-made :class:`numpy.random.Generator`; :func:`ensure_rng` normalizes the
two so call sites stay reproducible by construction.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional, Union

import numpy as np

RngLike = Union[None, int, np.random.Generator]


def ensure_rng(rng: RngLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``rng``.

    ``None`` draws fresh OS entropy, an ``int`` seeds PCG64 deterministically,
    and an existing generator is passed through unchanged.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def check_positive(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` is strictly positive."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")


def check_in_range(
    name: str,
    value: float,
    low: float,
    high: float,
    *,
    low_open: bool = False,
    high_open: bool = False,
) -> None:
    """Raise ``ValueError`` unless ``low <= value <= high`` (bounds optionally open)."""
    ok_low = value > low if low_open else value >= low
    ok_high = value < high if high_open else value <= high
    if not (ok_low and ok_high):
        lo = "(" if low_open else "["
        hi = ")" if high_open else "]"
        raise ValueError(f"{name} must be in {lo}{low}, {high}{hi}, got {value!r}")


def check_sampling_size(k: int) -> int:
    """Validate an eviction sampling size ``K`` (a positive integer)."""
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"sampling size K must be an integer >= 1, got {k!r}")
    return int(k)


def _fsync_dir(path: Path) -> None:
    """Persist a directory entry change (rename/unlink) to disk."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
