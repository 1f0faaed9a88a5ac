"""Tests for the TracePlan preparation cache and its consumers.

Covers: plan-cache identity and eviction, mask equivalence against the
streaming samplers, the plan-aware fast paths in KRRModel / SHARDS, and
the sweep's stream chunking, which must stay bit-identical (and
resumable) for any chunk size.
"""

import numpy as np
import pytest

from repro.baselines.shards import FixedSizeShards, Shards
from repro.core.model import KRRModel
from repro.engine import (
    FleetSweep,
    ModelSweep,
    TracePlan,
    TaskFailedError,
    clear_plan_cache,
    trace_fingerprint,
)
from repro.kernels import next_occurrence, prev_occurrence
from repro.sampling.spatial import SpatialSampler
from repro.workloads.io import save_csv
from repro.workloads.trace import Trace
from repro.workloads.zipf import ScrambledZipfGenerator


@pytest.fixture
def mixed_trace(rng) -> Trace:
    gen = ScrambledZipfGenerator(800, 0.9, rng=3)
    keys = gen.sample(12_000)
    sizes = rng.integers(1, 700, size=keys.shape[0])
    return Trace(keys, sizes, name="mixed")


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


class TestPlanCache:
    def test_same_trace_same_plan(self, mixed_trace):
        assert TracePlan.for_trace(mixed_trace) is TracePlan.for_trace(
            mixed_trace
        )

    def test_fingerprint_matches_module_function(self, mixed_trace):
        plan = TracePlan.for_trace(mixed_trace)
        assert plan.fingerprint == trace_fingerprint(mixed_trace)

    def test_cache_bounded(self, rng):
        first = TracePlan.for_trace(Trace(np.arange(10), name="t0"))
        for i in range(1, 12):
            TracePlan.for_trace(Trace(np.arange(10) + i, name=f"t{i}"))
        # More insertions than the LRU bound: the first plan was evicted
        # and a re-request builds a fresh object.
        assert TracePlan.for_trace(Trace(np.arange(10), name="t0")) is not first

    def test_clear(self, mixed_trace):
        plan = TracePlan.for_trace(mixed_trace)
        clear_plan_cache()
        assert TracePlan.for_trace(mixed_trace) is not plan


class TestPlanColumns:
    def test_occurrence_columns(self, mixed_trace):
        plan = TracePlan.for_trace(mixed_trace)
        assert np.array_equal(
            plan.prev_occurrence, prev_occurrence(mixed_trace.keys)
        )
        assert np.array_equal(
            plan.next_occurrence, next_occurrence(mixed_trace.keys)
        )

    def test_factorization(self, mixed_trace):
        plan = TracePlan.for_trace(mixed_trace)
        assert np.array_equal(
            plan.unique_keys[plan.key_ids], mixed_trace.keys
        )
        assert plan.n_unique_keys == plan.unique_keys.shape[0]

    def test_hash_column_per_seed(self, mixed_trace):
        plan = TracePlan.for_trace(mixed_trace)
        h0, h1 = plan.hashes(0), plan.hashes(1)
        assert h0 is plan.hashes(0)  # cached
        assert not np.array_equal(h0, h1)

    def test_sample_mask_matches_sampler(self, mixed_trace):
        plan = TracePlan.for_trace(mixed_trace)
        for rate in (0.01, 0.1, 0.5):
            s = SpatialSampler(rate)
            assert np.array_equal(
                plan.sample_mask(s.threshold, s.modulus, s.seed),
                s.mask(mixed_trace.keys),
            )
            assert np.array_equal(
                plan.sample_indices(s.threshold, s.modulus, s.seed),
                s.filter_indices(mixed_trace.keys),
            )

    def test_sample_indices_cached(self, mixed_trace):
        plan = TracePlan.for_trace(mixed_trace)
        s = SpatialSampler(0.05)
        idx = plan.sample_indices(s.threshold, s.modulus, s.seed)
        assert idx is plan.sample_indices(s.threshold, s.modulus, s.seed)

    def test_chunk_masks_delegate(self, mixed_trace):
        plan = TracePlan.for_trace(mixed_trace)
        first, last = plan.chunk_masks(64)
        assert first.shape == (len(mixed_trace),)
        assert first.dtype == np.bool_ and last.dtype == np.bool_


class TestPlanAwareConsumers:
    def test_krr_model_identical_with_plan(self, mixed_trace):
        plan = TracePlan.for_trace(mixed_trace)
        a = KRRModel(k=4, sampling_rate=0.1, seed=11, track_sizes=True)
        b = KRRModel(k=4, sampling_rate=0.1, seed=11, track_sizes=True)
        ra = a.process(mixed_trace, plan=plan)
        rb = b.process(mixed_trace)
        assert a.stats.requests_sampled == b.stats.requests_sampled
        assert np.array_equal(ra.mrc().miss_ratios, rb.mrc().miss_ratios)
        assert np.array_equal(
            ra.byte_mrc().miss_ratios, rb.byte_mrc().miss_ratios
        )

    def test_shards_batch_path_matches_streaming(self, mixed_trace):
        fast = Shards(rate=0.1, byte_bin=1024).process(mixed_trace)
        slow = Shards(rate=0.1, byte_bin=1024)
        for i in range(len(mixed_trace)):
            slow.access(int(mixed_trace.keys[i]), int(mixed_trace.sizes[i]))
        assert fast.requests_seen == slow.requests_seen
        assert fast.requests_sampled == slow.requests_sampled
        assert np.array_equal(
            fast.mrc().miss_ratios, slow.mrc().miss_ratios
        )
        assert np.array_equal(
            fast.byte_mrc().miss_ratios, slow.byte_mrc().miss_ratios
        )

    def test_shards_stack_state_continues_after_batch(self, mixed_trace):
        """After the kernel fast path, streamed follow-up accesses must
        measure the same distances the fully streamed estimator would."""
        fast = Shards(rate=0.2, seed=1).process(mixed_trace)
        slow = Shards(rate=0.2, seed=1)
        for i in range(len(mixed_trace)):
            slow.access(int(mixed_trace.keys[i]), int(mixed_trace.sizes[i]))
        follow_up = np.tile(mixed_trace.keys[:500], 2)
        for k in follow_up.tolist():
            fast.access(k)
            slow.access(k)
        assert np.array_equal(
            fast.mrc().miss_ratios, slow.mrc().miss_ratios
        )

    def test_shards_with_existing_state_streams(self, mixed_trace):
        """A non-fresh estimator cannot take the batch path; process()
        falls back to streaming with identical results."""
        warm = Shards(rate=0.2, seed=1)
        warm.access(123)  # any prior traffic disables the batch path
        ref = Shards(rate=0.2, seed=1)
        ref.access(123)
        warm.process(mixed_trace)
        for i in range(len(mixed_trace)):
            ref.access(int(mixed_trace.keys[i]), int(mixed_trace.sizes[i]))
        assert np.array_equal(warm.mrc().miss_ratios, ref.mrc().miss_ratios)

    def test_shards_plan_argument(self, mixed_trace):
        plan = TracePlan.for_trace(mixed_trace)
        with_plan = Shards(rate=0.1).process(mixed_trace, plan=plan)
        without = Shards(rate=0.1).process(mixed_trace)
        assert np.array_equal(
            with_plan.mrc().miss_ratios, without.mrc().miss_ratios
        )

    def test_fixed_size_shards_batch_matches_streaming(self, mixed_trace):
        plan = TracePlan.for_trace(mixed_trace)
        fast = FixedSizeShards(s_max=300, seed=2).process(
            mixed_trace, plan=plan
        )
        slow = FixedSizeShards(s_max=300, seed=2)
        for i in range(len(mixed_trace)):
            slow.access(int(mixed_trace.keys[i]), int(mixed_trace.sizes[i]))
        assert fast.requests_sampled == slow.requests_sampled
        assert np.array_equal(
            fast.mrc().miss_ratios, slow.mrc().miss_ratios
        )


class TestSweepChunking:
    """A grid streamed from disk in any chunking equals the in-memory grid."""

    @pytest.fixture
    def sweep_trace(self) -> Trace:
        gen = ScrambledZipfGenerator(600, 0.9, rng=5)
        return Trace(gen.sample(6_000), name="sweep")

    @pytest.fixture
    def csv_path(self, sweep_trace, tmp_path):
        path = tmp_path / "sweep.csv"
        save_csv(sweep_trace, path)
        return str(path)

    def test_chunked_bit_identical(self, sweep_trace, csv_path):
        configs = ModelSweep.grid(
            ks=[1, 4], strategies=["backward", "topdown"],
            sampling_rates=[None, 0.1],
        ).configs
        fleet = FleetSweep(configs, seed=3)
        # A one-trace fleet's grid seed is its first spawned trace seed.
        base = ModelSweep(configs, seed=fleet.trace_seeds(1)[0]).run(sweep_trace)
        for chunk in (1_000, 2_048, 100_000):
            (got,), _ = fleet.run([csv_path], max_workers=1, chunk_size=chunk)
            for a, b in zip(base, got.results):
                assert np.array_equal(a.miss_ratios, b.miss_ratios)
                assert np.array_equal(a.sizes, b.sizes)
                assert a.requests_sampled == b.requests_sampled

    def test_chunked_checkpoint_resume(self, csv_path, tmp_path):
        ck = tmp_path / "fleet"
        fleet = FleetSweep.grid(ks=[1, 2], sampling_rates=[None, 0.1], seed=9)
        (full,), _ = fleet.run([csv_path], checkpoint_dir=ck, max_workers=1)
        # Cut the trace checkpoint to two finished rows, then resume with
        # another chunking: chunk size is not part of the signature.
        partial = ck / "trace-0000.jsonl"
        lines = partial.read_text().strip().split("\n")
        partial.write_text("\n".join(lines[:3]) + "\n")
        (resumed,), report = fleet.run(
            [csv_path], checkpoint_dir=ck, max_workers=1, chunk_size=777
        )
        assert report.from_checkpoint == 0  # the trace was unfinished
        assert resumed.resumed_cells == 2
        assert resumed.computed_cells == 2
        for a, b in zip(full.results, resumed.results):
            assert np.array_equal(a.miss_ratios, b.miss_ratios)

    def test_invalid_chunk_size(self, csv_path):
        fleet = FleetSweep.grid(ks=[1], seed=0)
        with pytest.raises(TaskFailedError):
            fleet.run([csv_path], max_workers=1, chunk_size=0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_invalid_chunk_size_fails_alike_serial_and_pool(
        self, sweep_trace, csv_path, tmp_path, workers
    ):
        # Two traces, so two workers really run the pool path.
        other = tmp_path / "other.csv"
        save_csv(Trace(sweep_trace.keys[::-1].copy(), name="other"), other)
        fleet = FleetSweep.grid(ks=[1], seed=0)
        with pytest.raises(TaskFailedError) as exc_info:
            fleet.run([csv_path, str(other)], max_workers=workers, chunk_size=0)
        assert isinstance(exc_info.value.__cause__, ValueError)
        assert exc_info.value.report.tasks[exc_info.value.index].outcome == "failed"
