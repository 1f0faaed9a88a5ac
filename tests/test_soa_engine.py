"""Bit-identity and behavior of the SoA stack against the KRRStack oracle.

The contract under test: for any (k, strategy, seed, request stream,
sizes, chunking), :class:`repro.stack.soa.SoAKRRStack` — native kernel or
pure-Python fallback — consumes the generator stream and updates the
stack, the sizeArray anchors and the byte distances exactly like the
scalar :class:`repro.core.krr.KRRStack.access`, snapshots in the same
schema, and therefore every :class:`KRRModel` it backs reproduces the
oracle's curves.
"""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import ensure_rng
from repro.core.krr import KRRStack
from repro.core.model import KRRModel
from repro.core.updates import BackwardUpdate
from repro.engine.plan import TracePlan, clear_plan_cache
from repro.mrc.builder import from_byte_histogram, from_distance_histogram
from repro.sampling.spatial import SpatialSampler
from repro.stack._native import native_kernel_active
from repro.stack.histogram import ByteDistanceHistogram, DistanceHistogram
from repro.stack.soa import SOA_STRATEGIES, SoAKRRStack
from repro.workloads.trace import Trace


def scalar_reference(keys, k, strategy, seed):
    stack = KRRStack(k, strategy=strategy, rng=np.random.default_rng(seed))
    distances, _ = stack.access_many([int(x) for x in keys])
    return np.asarray(distances, dtype=np.int64), stack


def soa_run(keys, k, strategy, seed, chunk, use_native):
    stack = SoAKRRStack(
        k, strategy=strategy, rng=np.random.default_rng(seed), use_native=use_native
    )
    keys = np.asarray(keys, dtype=np.int64)
    parts = []
    for lo in range(0, keys.shape[0], chunk):
        distances, _ = stack.access_many(keys[lo : lo + chunk])
        parts.append(distances)
    return np.concatenate(parts) if parts else np.empty(0, np.int64), stack


key_streams = st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=300)


class TestDrawForDrawParity:
    @settings(max_examples=40, deadline=None)
    @given(
        keys=key_streams,
        k=st.sampled_from([1, 2, 5, 9.56]),
        strategy=st.sampled_from(SOA_STRATEGIES),
        seed=st.integers(min_value=0, max_value=2**31),
        chunk=st.sampled_from([1, 7, 64, 10_000]),
    )
    def test_soa_matches_scalar_oracle(self, keys, k, strategy, seed, chunk):
        """Distances, counters and final order are all bit-identical —
        independent of how the stream is chunked."""
        expected, ref = scalar_reference(keys, k, strategy, seed)
        got, stack = soa_run(keys, k, strategy, seed, chunk, use_native=None)
        assert np.array_equal(expected, got)
        assert stack.total_swaps == ref.total_swaps
        assert stack.updates == ref.updates
        assert stack.keys_in_stack_order() == ref.keys_in_stack_order()

    @pytest.mark.skipif(
        not native_kernel_active(), reason="no C compiler available"
    )
    @settings(max_examples=20, deadline=None)
    @given(
        keys=key_streams,
        k=st.sampled_from([1, 3, 7.2]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_native_equals_python_fallback(self, keys, k, seed):
        """The compiled kernel and the pure-Python walk are the same
        machine: identical distances, counters, and stack order."""
        d_native, s_native = soa_run(keys, k, "backward", seed, 50, use_native=True)
        d_python, s_python = soa_run(keys, k, "backward", seed, 50, use_native=False)
        assert np.array_equal(d_native, d_python)
        assert s_native.total_swaps == s_python.total_swaps
        assert s_native.keys_in_stack_order() == s_python.keys_in_stack_order()

    def test_mid_chain_buffer_refill_resumes_exactly(self):
        """A long-tailed stream forces draw-buffer exhaustion mid-chain;
        the resumable kernel state must not lose or repeat a draw."""
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 5_000, size=30_000)
        expected, ref = scalar_reference(keys, 5, "backward", 3)
        got, stack = soa_run(keys, 5, "backward", 3, 4_097, use_native=None)
        assert np.array_equal(expected, got)
        assert stack.total_swaps == ref.total_swaps


class TestStackApi:
    def test_basic_accessors(self):
        s = SoAKRRStack(4, rng=0)
        dist, byte_dist = s.access(7)
        assert dist == -1 and byte_dist == -1.0
        assert len(s) == 1
        assert 7 in s and 8 not in s
        assert s.position_of(7) == 1
        assert s.position_of(8) == -1

    def test_sizes_follow_last_write(self):
        s = SoAKRRStack(2, rng=0)
        s.access_many([1, 2, 1], sizes=[10, 20, 30])
        assert sorted(s.sizes_in_stack_order()) == [20, 30]
        assert s.total_bytes == 50

    def test_rejects_sizes_of_another_length(self):
        s = SoAKRRStack(2, rng=0, track_sizes=True)
        with pytest.raises(ValueError):
            s.access_many([1, 2, 3], sizes=[10, 20])

    def test_rejects_unsupported_strategy(self):
        with pytest.raises(ValueError):
            SoAKRRStack(4, strategy="topdown")

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            SoAKRRStack(0)

    def test_external_ids_reject_raw_key_mixing(self):
        s = SoAKRRStack(4, rng=0)
        table = np.asarray([10, 20], dtype=np.int64)
        s.access_many_ids(np.asarray([0, 1], dtype=np.int64), table)
        with pytest.raises(RuntimeError):
            s.access_many([10, 20])
        with pytest.raises(ValueError):
            s.access_many_ids(
                np.asarray([0], dtype=np.int64),
                np.asarray([10, 30], dtype=np.int64),
            )

    def test_interned_keys_reject_external_ids(self):
        s = SoAKRRStack(4, rng=0)
        s.access_many([10, 20])
        assert s.has_interned_keys
        with pytest.raises(RuntimeError):
            s.access_many_ids(
                np.asarray([0], dtype=np.int64),
                np.asarray([10, 20], dtype=np.int64),
            )

    def test_use_native_false_disables_kernel(self):
        s = SoAKRRStack(4, rng=0, use_native=False)
        assert not s.uses_native_kernel


# ----------------------------------------------------------------------
# var-KRR: sizeArray anchors and byte distances
# ----------------------------------------------------------------------

sized_streams = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40),
        st.sampled_from([1, 7, 100, 4096, 65_000]),
    ),
    min_size=1,
    max_size=300,
)
walks = st.sampled_from(["native", "python"])


def _kernel_flag(walk):
    if walk == "native" and not native_kernel_active():
        pytest.skip("no C compiler available")
    return walk == "native"


def _tiny_blocks(block):
    """Shrink the draw block of the backward oracle and the SoA stack
    together, so chains run dry and refill mid-walk."""
    return mock.patch.multiple(
        "repro.stack.soa", DRAW_BLOCK=block
    ), mock.patch.object(BackwardUpdate, "_BLOCK", block)


class TestSizeArrayParity:
    @settings(max_examples=60, deadline=None)
    @given(
        reqs=sized_streams,
        k=st.sampled_from([1, 2, 5, 9.56]),
        strategy=st.sampled_from(SOA_STRATEGIES),
        base=st.sampled_from([2, 4]),
        walk=walks,
        seed=st.integers(min_value=0, max_value=2**31),
        chunk=st.sampled_from([1, 7, 64, 10_000]),
    )
    def test_byte_distances_match_oracle(
        self, reqs, k, strategy, base, walk, seed, chunk
    ):
        """Distances and byte distances are elementwise equal to
        ``KRRStack(track_sizes=True).access``; anchors, order and
        counters end equal too — for sets that change an object's size,
        either sizeArray base, either walk, and any chunking."""
        use_native = _kernel_flag(walk) if strategy == "backward" else False
        keys = [key for key, _ in reqs]
        sizes = [size for _, size in reqs]
        ref = KRRStack(k, strategy=strategy, rng=ensure_rng(seed),
                       track_sizes=True, size_array_base=base)
        expected = [ref.access(key, size) for key, size in reqs]
        stack = SoAKRRStack(k, strategy=strategy, rng=ensure_rng(seed),
                            track_sizes=True, size_array_base=base,
                            use_native=use_native)
        got_d, got_b = [], []
        for lo in range(0, len(keys), chunk):
            d, b = stack.access_many(keys[lo : lo + chunk], sizes[lo : lo + chunk])
            got_d += d.tolist()
            got_b += b.tolist()
        assert got_d == [d for d, _ in expected]
        assert got_b == [b for _, b in expected]
        assert stack.keys_in_stack_order() == ref.keys_in_stack_order()
        assert stack.sizes_in_stack_order() == ref.sizes_in_stack_order()
        assert stack.state_dict()["size_array"] == ref.state_dict()["size_array"]
        assert stack.total_bytes == ref.total_bytes
        assert stack.total_swaps == ref.total_swaps

    @settings(max_examples=30, deadline=None)
    @given(
        reqs=sized_streams,
        k=st.sampled_from([1, 3, 7.2]),
        walk=walks,
        block=st.sampled_from([1, 2, 5]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_tiny_draw_blocks_refill_mid_chain(self, reqs, k, walk, block, seed):
        """Blocks of a few draws make most chains refill mid-walk; the
        resumed walk must keep patching the right anchors."""
        use_native = _kernel_flag(walk)
        keys = [key for key, _ in reqs]
        sizes = [size for _, size in reqs]
        patch_soa, patch_oracle = _tiny_blocks(block)
        with patch_soa, patch_oracle:
            ref = KRRStack(k, rng=ensure_rng(seed), track_sizes=True)
            expected = [ref.access(key, size) for key, size in reqs]
            stack = SoAKRRStack(k, rng=ensure_rng(seed),
                                track_sizes=True, use_native=use_native)
            d, b = stack.access_many(keys, sizes)
        assert d.tolist() == [x for x, _ in expected]
        assert b.tolist() == [x for _, x in expected]
        assert stack.state_dict()["size_array"] == ref.state_dict()["size_array"]

    def test_default_sizes_are_one(self):
        stack = SoAKRRStack(3, rng=0, track_sizes=True)
        stack.access_many([1, 2, 3, 1])
        assert stack.total_bytes == 3
        assert stack.sizes_in_stack_order() == [1, 1, 1]


# ----------------------------------------------------------------------
# snapshots: one schema, whichever stack wrote it
# ----------------------------------------------------------------------


def _restore(state, rng_state, cls, strategy, track_sizes, **kwargs):
    rng = ensure_rng(0)
    rng.bit_generator.state = rng_state
    stack = cls(state["k"], strategy=strategy, rng=rng, track_sizes=track_sizes,
                **kwargs)
    stack.load_state(json.loads(json.dumps(state)))
    return stack


class TestStackState:
    @settings(max_examples=40, deadline=None)
    @given(
        reqs=sized_streams,
        strategy=st.sampled_from(SOA_STRATEGIES),
        track_sizes=st.booleans(),
        walk=walks,
        cut=st.floats(min_value=0.0, max_value=1.0),
        writer=st.sampled_from(["soa", "oracle"]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_cut_and_resume_is_bit_identical(
        self, reqs, strategy, track_sizes, walk, cut, writer, seed
    ):
        """Snapshot at any point (mid draw block included), restore into a
        fresh SoA stack from either writer, and continue: the remaining
        distances, byte distances and final state match an uncut run."""
        use_native = _kernel_flag(walk) if strategy == "backward" else False
        keys = [key for key, _ in reqs]
        sizes = [size for _, size in reqs]
        at = int(cut * len(keys))
        k = 4.0
        full = SoAKRRStack(k, strategy=strategy, rng=ensure_rng(seed),
                           track_sizes=track_sizes, use_native=use_native)
        want_d, want_b = full.access_many(keys, sizes)

        rng = ensure_rng(seed)
        if writer == "soa":
            first = SoAKRRStack(k, strategy=strategy, rng=rng,
                                track_sizes=track_sizes, use_native=use_native)
        else:
            first = KRRStack(k, strategy=strategy, rng=rng, track_sizes=track_sizes)
        first.access_many(keys[:at], sizes[:at])
        resumed = _restore(first.state_dict(), rng.bit_generator.state,
                           SoAKRRStack, strategy, track_sizes,
                           use_native=use_native)
        got_d, got_b = resumed.access_many(keys[at:], sizes[at:])
        assert got_d.tolist() == want_d[at:].tolist()
        if track_sizes:
            assert got_b.tolist() == want_b[at:].tolist()
        assert resumed.keys_in_stack_order() == full.keys_in_stack_order()
        assert resumed.state_dict() == full.state_dict()

    def test_oracle_restores_soa_snapshot(self):
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 50, size=600).tolist()
        sizes = rng.integers(1, 500, size=600).tolist()
        soa_rng = np.random.default_rng(8)
        soa = SoAKRRStack(5, rng=soa_rng, track_sizes=True)
        soa.access_many(keys[:250], sizes[:250])
        oracle = _restore(soa.state_dict(), soa_rng.bit_generator.state,
                          KRRStack, "backward", True)
        ref = KRRStack(5, rng=np.random.default_rng(8), track_sizes=True)
        ref.access_many(keys[:250], sizes[:250])
        assert oracle.access_many(keys[250:], sizes[250:]) == ref.access_many(
            keys[250:], sizes[250:]
        )

    def test_streamed_ids_refuse_snapshots(self):
        stack = SoAKRRStack(3, rng=0)
        stack.access_many_interned(np.asarray([0, 1, 0], dtype=np.int64))
        with pytest.raises(RuntimeError):
            stack.state_dict()

    def test_load_needs_fresh_stack(self):
        stack = SoAKRRStack(3, rng=0)
        stack.access_many([1, 2])
        with pytest.raises(RuntimeError):
            stack.load_state(stack.state_dict())

    def test_rejects_mismatched_strategy_and_base(self):
        src = SoAKRRStack(3, strategy="linear", rng=0, track_sizes=True)
        src.access_many([1, 2, 1])
        with pytest.raises(ValueError):
            SoAKRRStack(3, strategy="backward", rng=0).load_state(src.state_dict())
        with pytest.raises(ValueError):
            SoAKRRStack(3, strategy="linear", rng=0, track_sizes=True,
                        size_array_base=4).load_state(src.state_dict())
        with pytest.raises(ValueError):
            SoAKRRStack(2, strategy="linear", rng=0).load_state(src.state_dict())


# ----------------------------------------------------------------------
# KRRModel: the stack follows the strategy
# ----------------------------------------------------------------------


class TestModelStack:
    def make_trace(self, n=5_000, u=400, seed=1, sized=False):
        rng = ensure_rng(seed)
        sizes = rng.integers(1, 3_000, size=n) if sized else None
        return Trace(rng.integers(0, u, size=n), sizes, name=f"t{seed}")

    def test_strategy_picks_the_stack(self):
        assert isinstance(KRRModel(k=3, strategy="backward")._stack, SoAKRRStack)
        assert isinstance(KRRModel(k=3, strategy="linear")._stack, SoAKRRStack)
        assert isinstance(KRRModel(k=3, strategy="topdown")._stack, KRRStack)
        sized = KRRModel(k=3, track_sizes=True, size_array_base=4)._stack
        assert isinstance(sized, SoAKRRStack) and sized.tracks_sizes

    @pytest.mark.parametrize("strategy", SOA_STRATEGIES)
    @pytest.mark.parametrize("rate", [None, 0.5])
    @pytest.mark.parametrize("track_sizes", [False, True])
    def test_process_matches_oracle_pipeline(self, strategy, rate, track_sizes):
        """KRRModel.process equals filter -> KRRStack oracle -> histograms
        -> MRCs, curve for curve and counter for counter."""
        trace = self.make_trace(sized=track_sizes)
        m = KRRModel(k=3, strategy=strategy, sampling_rate=rate,
                     track_sizes=track_sizes, seed=7)
        m.process(trace)

        keys, sizes = trace.keys, trace.sizes
        scale = 1.0
        if rate is not None:
            sampler = SpatialSampler(rate)
            idx = sampler.filter_indices(keys)
            keys, sizes, scale = keys[idx], sizes[idx], sampler.scale
        ref = KRRStack(m.effective_k, strategy=strategy,
                       rng=np.random.default_rng(7), track_sizes=track_sizes)
        distances, byte_distances = ref.access_many(keys.tolist(), sizes.tolist())
        obj = DistanceHistogram(scale=scale)
        obj.record_many(distances)
        want = from_distance_histogram(obj)
        got = m.mrc()
        assert np.array_equal(got.sizes, want.sizes)
        assert np.array_equal(got.miss_ratios, want.miss_ratios)
        if track_sizes:
            hist = ByteDistanceHistogram(scale=scale)
            hist.record_many(byte_distances)
            want_b = from_byte_histogram(hist)
            got_b = m.byte_mrc()
            assert np.array_equal(got_b.sizes, want_b.sizes)
            assert np.array_equal(got_b.miss_ratios, want_b.miss_ratios)
        assert m.stats.stack_updates == ref.updates
        assert m.stats.swap_positions == ref.total_swaps
        assert m.stats.cold_misses == distances.count(-1)

    def test_process_with_plan_matches_without(self):
        clear_plan_cache()
        trace = self.make_trace(seed=5)
        plan = TracePlan.for_trace(trace)
        for rate in (None, 0.5):
            a = KRRModel(k=4, sampling_rate=rate, seed=11)
            a.process(trace)
            b = KRRModel(k=4, sampling_rate=rate, seed=11)
            b.process(trace, plan=plan)
            ca, cb = a.mrc(), b.mrc()
            assert np.array_equal(ca.sizes, cb.sizes)
            assert np.array_equal(ca.miss_ratios, cb.miss_ratios)
            assert a.stats.cold_misses == b.stats.cold_misses
            # a plan-fed model snapshots its keys from the plan's table
            assert a.state_dict()["stack"]["stack"] == b.state_dict()["stack"]["stack"]
