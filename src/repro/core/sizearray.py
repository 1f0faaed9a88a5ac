"""Logarithmic prefix-size tracking for variable object sizes (§4.4.1).

The KRR stack orders objects by position, but a byte-capacity cache needs
*byte-level* stack distances: the cumulative size of objects from the stack
top through the referenced object (Figure 4.3).  Maintaining exact prefix
sums would cost ``O(M)`` per update, so the paper keeps only ``O(log M)``
anchors: entry ``j`` of the ``sizeArray`` stores the total size of the
objects at stack positions ``1 .. b^j``.

* A stack update moves residents only at its swap positions; for every
  anchor boundary ``B < phi`` exactly one object crosses out of the prefix
  (the resident at the largest swap position ``<= B``) and exactly one
  crosses in (the referenced object) — so each anchor is patched in O(1)
  (Figure 4.4).
* Byte-level stack distance is interpolated between the two anchors
  bracketing ``phi`` (Algorithm 3).
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

import numpy as np

__all__ = [
    "SizeArray",
    "interpolate",
]


def interpolate(
    phi: int,
    boundaries: Sequence[int],
    sums: Sequence[int],
    length: int,
    total: int,
) -> float:
    """Algorithm 3 over raw anchors (positions ``b^0, b^1, ...`` and their
    prefix sums; the whole stack is the anchor past the last one): the
    interpolated bytes in positions ``1..phi``.  Shared by
    :class:`SizeArray` and the SoA stack, so both round identically."""
    # Largest anchor with boundary <= phi (b^0 = 1 <= phi always).
    idx = int(np.searchsorted(boundaries, phi, side="right")) - 1
    sd_low = boundaries[idx]
    low_sum = sums[idx]
    if sd_low == phi:
        return float(low_sum)
    if idx + 1 < len(boundaries):
        sd_high = boundaries[idx + 1]
        high_sum = sums[idx + 1]
    else:
        # phi sits past the last anchor: anchor on the full stack.
        sd_high = length
        high_sum = total
        if sd_high == sd_low:
            return float(low_sum)
    frac = (phi - sd_low) / (sd_high - sd_low)
    return low_sum + (high_sum - low_sum) * frac


class SizeArray:
    """Base-``b`` prefix byte sums over a KRR stack.

    The owner (a :class:`~repro.core.krr.KRRStack`) calls :meth:`append` when
    a cold object is attached to the stack end, :meth:`apply_update` with
    each update's swap positions *before* the swap is applied, and
    :meth:`byte_distance` to estimate distances.
    """

    __slots__ = ("base", "_boundaries", "_sums", "_length", "_total")

    def __init__(self, base: int = 2) -> None:
        if base < 2:
            raise ValueError("sizeArray base must be >= 2")
        self.base = int(base)
        self._boundaries: List[int] = []  # positions b^0, b^1, ... (1-based)
        self._sums: List[int] = []  # bytes in positions 1..boundary
        self._length = 0
        self._total = 0

    def __len__(self) -> int:
        return self._length

    @property
    def total_bytes(self) -> int:
        """Total size of all stacked objects."""
        return self._total

    @property
    def anchors(self) -> list[tuple[int, int]]:
        """(boundary position, prefix bytes) pairs — for tests/diagnostics."""
        return list(zip(self._boundaries, self._sums))

    def append(self, size: int) -> None:
        """A cold object of ``size`` bytes was attached to the stack end."""
        if size < 0:
            raise ValueError("size must be >= 0")
        self._length += 1
        self._total += int(size)
        next_boundary = (
            1 if not self._boundaries else self._boundaries[-1] * self.base
        )
        if self._length == next_boundary:
            # The prefix up to this boundary is the whole stack right now.
            self._boundaries.append(next_boundary)
            self._sums.append(self._total)

    def apply_update(
        self,
        swaps: Sequence[int],
        resident_sizes: Sequence[int],
        new_size: int,
        old_size: int,
    ) -> None:
        """Patch anchors for one stack update.

        Parameters
        ----------
        swaps:
            Sorted 1-based swap positions (``swaps[-1] == phi``).
        resident_sizes:
            Size of the resident at each swap position *before* the update
            (parallel to ``swaps``).
        new_size, old_size:
            The referenced object's size after/before this access (they
            differ when a set rewrites the value).
        """
        phi = swaps[-1]
        delta_tail = int(new_size) - int(old_size)
        self._total += delta_tail
        if not self._boundaries:
            return
        boundaries = self._boundaries
        sums = self._sums
        si = 0  # index of the largest swap position <= current boundary
        for j, bound in enumerate(boundaries):
            if bound >= phi:
                # Prefix contents unchanged; only the object's size may have.
                if delta_tail:
                    sums[j] += delta_tail
                continue
            while si + 1 < len(swaps) and swaps[si + 1] <= bound:
                si += 1
            # swaps[si] is the largest swap position <= bound (position 1 is
            # always a swap, so si is well defined); its resident crosses out
            # of this prefix and the referenced object crosses in.
            sums[j] += int(new_size) - int(resident_sizes[si])

    def rebuild(self, sizes_in_stack_order: Sequence[int]) -> None:
        """Recompute every anchor exactly from the live stack's sizes.

        Used after an object is *removed* (fixed-size spatial sampling
        ejects tracked keys): removal shifts the whole tail up one slot, so
        each covering anchor would need the size of the object that crossed
        its boundary — information only the owner has.  Removals are rare
        (bounded by ``s_max`` over a run), so an exact ``O(M)`` rebuild is
        simpler and amortizes to nothing.
        """
        self._length = len(sizes_in_stack_order)
        self._boundaries = []
        self._sums = []
        self._total = int(sum(int(s) for s in sizes_in_stack_order))
        bound = 1
        prefix = 0
        i = 0
        for i, size in enumerate(sizes_in_stack_order, start=1):
            prefix += int(size)
            if i == bound:
                self._boundaries.append(bound)
                self._sums.append(prefix)
                bound *= self.base

    def state_dict(self) -> Dict[str, Any]:
        """Anchor state, verbatim — anchors are path-dependent (patched
        incrementally per update), so snapshots copy them rather than
        rebuilding, keeping restored byte distances identical."""
        return {
            "base": self.base,
            "boundaries": list(self._boundaries),
            "sums": list(self._sums),
            "length": self._length,
            "total": self._total,
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        if int(state["base"]) != self.base:
            raise ValueError("sizeArray base mismatch")
        self._boundaries = [int(b) for b in state["boundaries"]]
        self._sums = [int(s) for s in state["sums"]]
        self._length = int(state["length"])
        self._total = int(state["total"])

    def byte_distance(self, phi: int) -> float:
        """Algorithm 3: interpolated bytes in stack positions ``1 .. phi``."""
        if phi < 1 or phi > self._length:
            raise ValueError(f"phi={phi} outside stack of length {self._length}")
        return interpolate(phi, self._boundaries, self._sums, self._length, self._total)
