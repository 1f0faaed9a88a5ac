"""Struct-of-arrays KRR stack: the implementation behind every KRRModel.

:class:`~repro.core.krr.KRRStack` is a pointer-chasing Python object
structure — a list of boxed keys, a dict position map, per-access result
tuples — and that layout caps streaming throughput near 10^5 requests/s
no matter how carefully the loop is written.  :class:`SoAKRRStack` is the
same abstract data structure laid out the way the Multi-step LRU line of
work recommends: one flat ``int64`` array per field.

* ``stack[slot] -> key id`` — stack order, top of stack at slot 0;
* ``pos[key id] -> slot`` — the O(1) position lookup (``-1`` = absent);
* ``sizes[key id]`` — last-written object size;
* ``anchors`` — with ``track_sizes``, the log-anchored sizeArray of
  §4.4.1 as two flat arrays (anchor positions ``b^0, b^1, ...`` and their
  prefix byte sums), patched inside the chain walk;
* keys are *dense ids*: raw keys are factorized once per batch (or once
  per trace by a :class:`~repro.engine.plan.TracePlan`), so the hot loop
  never touches a Python dict or a boxed integer.

``access_many`` then processes whole request chunks: the inverse-CDF
draw blocks are produced vectorized by
:func:`~repro.core.updates.backward_draw_block`, survival probabilities
come from the shared :func:`~repro.core.updates.survival_table`, and the
data-dependent chain walk runs inside the compiled kernel from
:mod:`repro.stack._native` when a C compiler is available (pure-Python
fallback otherwise — same draws, same results, less speed).

**Seeding contract.**  For any ``(k, strategy, seed)`` this stack
consumes the generator's stream in exactly the refill pattern the scalar
strategies use (blocks of :data:`~repro.core.updates.DRAW_BLOCK` draws,
transformed by the shared helpers) and applies the identical update
arithmetic, so distances, byte distances, final stack order and swap
counters are bit-identical to the :class:`~repro.core.krr.KRRStack`
oracle — property-tested in ``tests/test_soa_engine.py``.  Its
:meth:`state_dict` emits the oracle's snapshot schema, so a snapshot is
one format whichever stack wrote it.  Supported strategies:
``"backward"`` (chain walk) and ``"linear"`` (vectorized survival
sweep); ``"topdown"`` has no array-friendly formulation and runs only on
the oracle.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from .._util import RngLike, ensure_rng
from ..core.sizearray import interpolate
from ..core.updates import (
    DRAW_BLOCK,
    backward_draw_block,
    survival_table,
)
from ._native import BackwardKernel, load_backward_kernel

__all__ = [
    "SOA_STRATEGIES",
    "SoAKRRStack",
    "as_key_ids",
]


#: Update strategies with an SoA implementation.
SOA_STRATEGIES = ("backward", "linear")

_STATE_LEN = 11  # see _soa_kernel.c for the layout
_MAX_ANCHORS = 64  # base >= 2 and int64 positions: at most 63 anchors
_U64_MASK = 0xFFFFFFFFFFFFFFFF


class SoAKRRStack:
    """Array-native KRR stack with batched, draw-identical updates.

    Parameters
    ----------
    k:
        The (possibly corrected) KRR parameter; may be fractional.
    strategy:
        ``"backward"`` (default) or ``"linear"``.
    rng:
        Seed or generator; the stream is consumed exactly as the scalar
        strategy with the same seed would consume it.
    track_sizes:
        Maintain the sizeArray for byte-level distances (var-KRR).
    size_array_base:
        Anchor spacing base ``b`` for the sizeArray.
    initial_capacity:
        Starting length of the slot/id arrays (they double on demand).
    use_native:
        ``None`` (default) uses the compiled kernel when available;
        ``False`` forces the pure-Python walk (testing/diagnostics);
        ``True`` requires it (raises ``RuntimeError`` if unavailable).
    """

    def __init__(
        self,
        k: float,
        strategy: str = "backward",
        rng: RngLike = None,
        track_sizes: bool = False,
        size_array_base: int = 2,
        initial_capacity: int = 1024,
        use_native: Optional[bool] = None,
    ) -> None:
        if k <= 0:
            raise ValueError("K must be positive")
        if strategy not in SOA_STRATEGIES:
            raise ValueError(
                f"SoA stack supports strategies {SOA_STRATEGIES}, got {strategy!r}"
            )
        if track_sizes and size_array_base < 2:
            raise ValueError("sizeArray base must be >= 2")
        self.k = float(k)
        self._inv_k = 1.0 / self.k
        self.strategy_name = strategy
        self._rng = ensure_rng(rng)

        self._kernel: Optional[BackwardKernel] = None
        if strategy == "backward" and use_native is not False:
            self._kernel = load_backward_kernel()
            if use_native and self._kernel is None:
                raise RuntimeError(
                    "use_native=True but no C compiler is available "
                    "(set REPRO_NATIVE=1 and install cc/gcc/clang)"
                )

        cap = max(1, int(initial_capacity))
        self._stack = np.empty(cap, dtype=np.int64)
        self._pos = np.full(cap, -1, dtype=np.int64)
        self._n = 0
        self._sizes = np.ones(self._pos.shape[0], dtype=np.int64)

        # sizeArray: anchor positions in [:64], their prefix sums in [64:];
        # base 0 switches it off (the kernel reads the base from its state).
        self._base = int(size_array_base) if track_sizes else 0
        self._anchors = np.zeros(2 * _MAX_ANCHORS, dtype=np.int64)
        self._n_anchors = 0
        self._total_bytes = 0

        # The draw block and its cursor — backward: (1-U)^(1/K), linear:
        # raw uniforms — filled lazily on first use, exactly like the
        # scalar strategies, so construction consumes no generator state.
        self._buf = np.empty(0, dtype=np.float64)
        self._bpos = 0
        self._table = survival_table(self.k) if strategy == "linear" else None

        # Raw-key interning (unused when ids are supplied externally).
        self._ids: Dict[int, int] = {}
        self._id_keys: List[int] = []
        self._key_table: Optional[np.ndarray] = None
        # True once access_many_interned bound this stack to an external
        # streaming interner (first-seen dense ids, no key table here).
        self._external_dense = False

        #: Cumulative number of swap positions drawn (Fig 5.4's cost proxy).
        self.total_swaps = 0
        #: Number of stack updates performed.
        self.updates = 0

    # ------------------------------------------------------------------
    @property
    def uses_native_kernel(self) -> bool:
        """True when chain walks run in the compiled kernel."""
        return self._kernel is not None

    @property
    def tracks_sizes(self) -> bool:
        return self._base > 0

    @property
    def has_interned_keys(self) -> bool:
        """True once raw-key :meth:`access_many` has interned keys."""
        return bool(self._ids)

    def __len__(self) -> int:
        return self._n

    def __contains__(self, key: int) -> bool:
        return self.position_of(key) > 0

    def position_of(self, key: int) -> int:
        """Current 1-based stack position of ``key`` (-1 if absent)."""
        kid = self._lookup_id(key)
        if kid is None:
            return -1
        slot = int(self._pos[kid])
        return -1 if slot < 0 else slot + 1

    def _lookup_id(self, key: int) -> Optional[int]:
        if self._key_table is None and not self._external_dense:
            return self._ids.get(key)
        table = self._id_key_table()  # a sorted key table, or refusal
        idx = int(np.searchsorted(table, key))
        if idx < table.shape[0] and int(table[idx]) == key:
            return idx
        return None

    def _id_key_table(self) -> np.ndarray:
        """Raw key of every dense id (index = id)."""
        if self._external_dense:
            raise RuntimeError(
                "this stack consumes externally-interned dense ids "
                "(access_many_interned); the caller owns the key<->id map"
            )
        if self._key_table is not None:
            return self._key_table
        return np.asarray(self._id_keys, dtype=np.int64)

    def keys_in_stack_order(self) -> List[int]:
        return self._id_key_table()[self._stack[: self._n]].tolist()

    def sizes_in_stack_order(self) -> List[int]:
        return self._sizes[self._stack[: self._n]].tolist()

    @property
    def total_bytes(self) -> int:
        if self._base:
            return self._total_bytes
        return int(self._sizes[self._stack[: self._n]].sum())

    # ------------------------------------------------------------------
    # capacity management
    # ------------------------------------------------------------------
    def _grow(self, array: np.ndarray, capacity: int, fill: int) -> np.ndarray:
        new_cap = max(capacity, array.shape[0] * 2, 1)
        grown = np.full(new_cap, fill, dtype=np.int64)
        grown[: array.shape[0]] = array
        return grown

    def _ensure_capacity(self, max_kid: int, incoming: int) -> None:
        """Room for ``incoming`` potential colds and ids up to ``max_kid``."""
        need_slots = self._n + incoming
        need_ids = max_kid + 1
        if self._stack.shape[0] < need_slots:
            self._stack = self._grow(self._stack, need_slots, 0)
        if self._pos.shape[0] < need_ids:
            self._pos = self._grow(self._pos, need_ids, -1)
        if self._sizes.shape[0] < need_ids:
            self._sizes = self._grow(self._sizes, need_ids, 1)

    def _intern_keys(self, keys: np.ndarray) -> np.ndarray:
        """Map raw keys to dense ids, assigning fresh ids to unseen keys."""
        if self._key_table is not None or self._external_dense:
            raise RuntimeError(
                "this stack was fed pre-factorized ids (access_many_ids/"
                "access_many_interned); mixing raw-key access would corrupt "
                "the id space"
            )
        uniq, inverse = np.unique(keys, return_inverse=True)
        lut = np.empty(uniq.shape[0], dtype=np.int64)
        ids = self._ids
        id_keys = self._id_keys
        for j, key in enumerate(uniq.tolist()):
            kid = ids.get(key)
            if kid is None:
                kid = len(id_keys)
                ids[key] = kid
                id_keys.append(key)
            lut[j] = kid
        out = lut[inverse]
        assert isinstance(out, np.ndarray)
        return np.ascontiguousarray(out, dtype=np.int64)

    # ------------------------------------------------------------------
    # access paths
    # ------------------------------------------------------------------
    def access(self, key: int, size: int = 1) -> tuple[int, float]:
        """Single-request :meth:`access_many` (API parity with KRRStack)."""
        distances, byte_distances = self.access_many([key], [size])
        byte_distance = -1.0 if byte_distances is None else float(byte_distances[0])
        return int(distances[0]), byte_distance

    def access_many(
        self,
        keys: Union[np.ndarray, Sequence[int]],
        sizes: Union[np.ndarray, Sequence[int], None] = None,
    ) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """Process a request chunk; returns ``(distances, byte_distances)``.

        ``distances`` is an ``int64`` array of pre-update 1-based stack
        positions (``-1`` for cold accesses); ``byte_distances`` is the
        ``float64`` sizeArray estimate (``-1.0`` for cold accesses), or
        ``None`` without ``track_sizes``.  Both are elementwise identical
        to what :meth:`KRRStack.access` returns for the same seed.
        """
        kids = self._intern_keys(np.ascontiguousarray(as_key_ids(keys)))
        return self._access_ids(kids, sizes)

    def access_many_ids(
        self,
        kids: np.ndarray,
        key_table: np.ndarray,
        sizes: Union[np.ndarray, Sequence[int], None] = None,
    ) -> np.ndarray:
        """:meth:`access_many` on pre-factorized dense key ids; returns
        the distances.

        ``kids`` must be ``key_table``-relative ids (``key_table`` sorted
        ascending, as :func:`~repro.kernels.prep.factorize_keys` and
        :class:`~repro.engine.plan.TracePlan` produce); the table is
        retained for reverse lookups, and later raw-key calls are
        rejected to keep the id space consistent.
        """
        if self._ids or self._external_dense:
            raise RuntimeError(
                "this stack already interned keys (raw or streaming); "
                "cannot switch to pre-factorized table ids"
            )
        table = np.asarray(key_table, dtype=np.int64)
        if self._key_table is not None and table is not self._key_table:
            if not np.array_equal(table, self._key_table):
                raise ValueError(
                    "access_many_ids called with a different key table; "
                    "ids from another trace would corrupt the stack"
                )
        self._key_table = table
        kids = np.ascontiguousarray(np.asarray(kids, dtype=np.int64))
        return self._access_ids(kids, sizes)[0]

    def access_many_interned(
        self,
        kids: np.ndarray,
        sizes: Union[np.ndarray, Sequence[int], None] = None,
    ) -> np.ndarray:
        """:meth:`access_many` on *externally streamed* dense key ids;
        returns the distances.

        The out-of-core feed: a streaming interner (e.g.
        :class:`~repro.engine.plan.StreamingTracePlan`) assigns dense ids
        in first-seen order, chunk by chunk, and this stack just consumes
        them — capacity grows on demand, so the distinct-key count never
        needs to be known up front.  Ids are opaque labels to the update
        walk (distances depend only on stack *positions*), so the
        resulting distance sequence is bit-identical to
        :meth:`access_many_ids` over the same trace with sorted-table
        ids.  The caller owns the key<->id map; reverse lookups
        (``position_of`` etc.) and snapshots are refused in this mode,
        as is mixing with the other access paths.
        """
        if self._ids or self._key_table is not None:
            raise RuntimeError(
                "this stack already interned keys via another access path; "
                "mixing with streamed dense ids would corrupt the id space"
            )
        self._external_dense = True
        kids = np.ascontiguousarray(np.asarray(kids, dtype=np.int64))
        return self._access_ids(kids, sizes)[0]

    def _access_ids(
        self,
        kids: np.ndarray,
        sizes: Union[np.ndarray, Sequence[int], None],
    ) -> tuple[np.ndarray, Optional[np.ndarray]]:
        n = kids.shape[0]
        if sizes is not None:
            req_sizes: Optional[np.ndarray] = np.ascontiguousarray(sizes, np.int64)
            if req_sizes.shape != (n,):  # the walk reads one size per request
                raise ValueError(f"{req_sizes.shape[0]} sizes for {n} requests")
        else:  # object granularity leaves the stored sizes as they are
            req_sizes = np.ones(n, dtype=np.int64) if self._base else None
        self._ensure_capacity(int(kids.max(initial=-1)), n)
        distances = np.empty(n, dtype=np.int64)
        byte_distances = np.empty(n, dtype=np.float64)  # unused without sizeArray
        walk = self._walk_native if self._kernel is not None else self._walk_python
        walk(kids, req_sizes, distances, byte_distances)
        self.updates += n
        return distances, byte_distances if self._base else None

    # ------------------------------------------------------------------
    def _walk_native(
        self,
        kids: np.ndarray,
        req_sizes: Optional[np.ndarray],
        distances: np.ndarray,
        byte_distances: np.ndarray,
    ) -> None:
        assert self._kernel is not None
        state = np.zeros(_STATE_LEN, dtype=np.int64)
        state[1] = self._n
        state[2] = self._bpos
        state[4] = self.total_swaps
        state[5] = -1
        state[6] = self._n_anchors
        state[7] = self._total_bytes
        state[8] = self._base
        state[9] = -1
        while not self._kernel.run(
            kids, req_sizes, self._stack, self._pos, self._sizes, self._buf,
            distances, byte_distances, self._anchors, state,
        ):
            self._buf = np.ascontiguousarray(
                backward_draw_block(self._rng, self._inv_k, DRAW_BLOCK)
            )
            state[2] = 0
        self._n = int(state[1])
        self._bpos = int(state[2])
        self.total_swaps = int(state[4])
        self._n_anchors = int(state[6])
        self._total_bytes = int(state[7])

    def _walk_python(
        self,
        kids: np.ndarray,
        req_sizes: Optional[np.ndarray],
        distances: np.ndarray,
        byte_distances: np.ndarray,
    ) -> None:
        """Pure-Python mirror of the native kernel (same draws, same state).

        Both strategies walk the swap chain from slot ``phi - 1`` down to
        slot 0: backward draws each next slot by the inverse CDF, linear
        takes them from one vectorized survival-table compare per access.
        """
        linear = self.strategy_name == "linear"
        stack_l = self._stack[: self._n].tolist()
        pos_l = self._pos.tolist()
        sizes_l = self._sizes.tolist()
        req = [1] * kids.shape[0] if req_sizes is None else req_sizes.tolist()
        base = self._base
        na = self._n_anchors
        bounds = self._anchors[:na].tolist()
        sums = self._anchors[_MAX_ANCHORS : _MAX_ANCHORS + na].tolist()
        total = self._total_bytes
        buf = self._buf.tolist()
        bpos = self._bpos
        swaps = 0
        for i, kid in enumerate(kids.tolist()):
            s = req[i]
            p = pos_l[kid]
            delta = 0
            if p < 0:
                stack_l.append(kid)
                phi = len(stack_l)
                pos_l[kid] = phi - 1
                distances[i] = -1
                if base:
                    total += s
                    if phi == (bounds[-1] * base if bounds else 1):
                        bounds.append(phi)
                        sums.append(total)
                    byte_distances[i] = -1.0
            else:
                phi = p + 1
                distances[i] = phi
                if base:
                    byte_distances[i] = interpolate(
                        phi, bounds, sums, len(stack_l), total
                    )
                    delta = s - sizes_l[kid]
                    total += delta
            if req_sizes is not None:
                sizes_l[kid] = s
            a = len(bounds) - 1
            while a >= 0 and bounds[a] >= phi:
                sums[a] += delta
                a -= 1
            swaps += 1
            j = phi - 1
            if j == 0:
                continue
            ref = stack_l[j]
            if linear:
                chain = self._linear_chain(phi)
            while j > 0:
                if linear:
                    y = chain.pop()
                else:
                    if bpos >= len(buf):
                        self._buf = backward_draw_block(
                            self._rng, self._inv_k, DRAW_BLOCK
                        )
                        buf = self._buf.tolist()
                        bpos = 0
                    v = buf[bpos] * j
                    bpos += 1
                    t = int(v)
                    y = t if t < v else t - 1
                moved = stack_l[y]
                while a >= 0 and bounds[a] > y:
                    sums[a] += s - sizes_l[moved]
                    a -= 1
                stack_l[j] = moved
                pos_l[moved] = j
                swaps += 1
                j = y
            stack_l[0] = ref
            pos_l[ref] = 0
        if not linear:  # linear's cursor moved in _take_uniforms
            self._bpos = bpos
        self._n = len(stack_l)
        self._stack[: self._n] = stack_l
        self._pos[:] = pos_l
        self._sizes[:] = sizes_l
        self._store_anchors(bounds, sums, total)
        self.total_swaps += swaps

    def _store_anchors(self, bounds: List[int], sums: List[int], total: int) -> None:
        na = len(bounds)
        self._anchors[:na] = bounds
        self._anchors[_MAX_ANCHORS : _MAX_ANCHORS + na] = sums
        self._n_anchors = na
        self._total_bytes = total

    def _linear_chain(self, phi: int) -> List[int]:
        """Swap slots below ``phi - 1`` of one linear update, slot 0 first:
        positions ``2..phi-1`` swap where their uniform clears the survival
        probability (``pop()`` then walks them bottom-up).  Uniforms come
        in ``Generator.random(DRAW_BLOCK)`` blocks, exactly like the
        oracle's ``_BufferedUniform``, so the draws match one for one."""
        parts: List[np.ndarray] = [np.empty(0)]
        needed = phi - 2
        while needed > 0:
            if self._bpos >= self._buf.shape[0]:
                self._buf = self._rng.random(DRAW_BLOCK)
                self._bpos = 0
            take = min(needed, self._buf.shape[0] - self._bpos)
            parts.append(self._buf[self._bpos : self._bpos + take])
            self._bpos += take
            needed -= take
        assert self._table is not None
        survival = self._table.as_array(max(phi, 2))[2:phi]
        mids = np.flatnonzero(np.concatenate(parts) >= survival)
        return [0] + (mids + 1).tolist()  # 1-based position m+2 -> slot m+1

    # ------------------------------------------------------------------
    # snapshots (the KRRStack state schema)
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """JSON-safe snapshot in :meth:`KRRStack.state_dict`'s schema:
        keys in stack order, sizes, the buffered draw block plus cursor,
        the sizeArray anchors and the counters (the generator belongs to
        the owning model).  It restores into either stack."""
        keys = self._id_key_table()[self._stack[: self._n]]
        # An unused buffer reads as empty with the cursor at the block end.
        draws = {
            "buf": self._buf.tolist(),
            "pos": self._bpos if self._buf.size else DRAW_BLOCK,
        }
        size_array = None
        if self._base:
            na = self._n_anchors
            size_array = {
                "base": self._base,
                "boundaries": self._anchors[:na].tolist(),
                "sums": self._anchors[_MAX_ANCHORS : _MAX_ANCHORS + na].tolist(),
                "length": self._n,
                "total": self._total_bytes,
            }
        return {
            "k": self.k,
            "stack": keys.tolist(),
            # Every interned key is resident: sizes in stack order, which
            # does not depend on how ids happened to be assigned.
            "sizes": np.stack(
                [keys, self._sizes[self._stack[: self._n]]], axis=1
            ).tolist(),
            "strategy": (
                {"kind": "backward", **draws}
                if self.strategy_name == "backward"
                else {"kind": "linear", "uniform": draws}
            ),
            "size_array": size_array,
            "total_swaps": self.total_swaps,
            "updates": self.updates,
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        """Restore a :meth:`state_dict` (or :meth:`KRRStack.state_dict`)
        snapshot into this fresh stack; its ids become its stack slots."""
        if float(state["k"]) != self.k:
            raise ValueError(
                f"stack state is for K={state['k']!r}, this stack has K={self.k}"
            )
        if self._n or self._key_table is not None or self._external_dense:
            raise RuntimeError("load_state needs a fresh stack")
        strategy = state["strategy"] or {}
        if strategy.get("kind") != self.strategy_name:
            raise ValueError(f"state is for strategy {strategy.get('kind')!r}")
        size_array = state["size_array"]
        if self._base and (size_array is None or int(size_array["base"]) != self._base):
            raise ValueError("state has no sizeArray with this stack's base")

        keys = as_key_ids(state["stack"]).tolist()
        size_of = dict(zip(as_key_ids([key for key, _ in state["sizes"]]).tolist(),
                           [int(size) for _, size in state["sizes"]]))
        n = len(keys)
        self._id_keys = keys
        self._ids = {key: kid for kid, key in enumerate(keys)}
        self._ensure_capacity(n - 1, n)
        self._n = n
        self._stack[:n] = np.arange(n, dtype=np.int64)
        self._pos[:n] = np.arange(n, dtype=np.int64)
        self._sizes[:n] = [size_of[key] for key in keys]
        draws = strategy if self.strategy_name == "backward" else strategy["uniform"]
        self._buf = np.asarray(draws["buf"], dtype=np.float64)
        self._bpos = int(draws["pos"])
        if self._base:
            self._store_anchors(
                [int(b) for b in size_array["boundaries"]],
                [int(v) for v in size_array["sums"]],
                int(size_array["total"]),
            )
        self.total_swaps = int(state["total_swaps"])
        self.updates = int(state["updates"])


def as_key_ids(keys: Union[np.ndarray, Sequence[int]]) -> np.ndarray:
    """Raw keys as the ``int64`` ids the stack interns: a ``uint64``
    column, or Python ints outside the ``int64`` range, wrap mod 2^64 —
    exactly as scalar ``splitmix64`` wraps them."""
    if isinstance(keys, np.ndarray):
        if keys.dtype == np.uint64:
            return keys.view(np.int64)
        return np.asarray(keys, dtype=np.int64)
    try:
        return np.asarray(keys, dtype=np.int64)
    except OverflowError:
        wrapped = np.asarray([int(key) & _U64_MASK for key in keys], dtype=np.uint64)
        return wrapped.view(np.int64)
