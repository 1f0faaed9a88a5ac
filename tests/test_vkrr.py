"""MultiKRR grid runner: every cell bit-identical to an independent KRRModel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import KRRModel
from repro.core.vkrr import MultiKRR, SweepConfig, spawn_seeds
from repro.engine.sweep import ModelSweep
from repro.workloads.stream import iter_chunks
from repro.workloads.trace import Trace

STATS = (
    "requests_seen",
    "requests_sampled",
    "cold_misses",
    "stack_updates",
    "swap_positions",
)


def make_trace(n=4_000, u=300, seed=2, sized=False):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, u, size=n)
    sizes = None
    if sized:
        # Per-key base sizes plus ~10% size-changing sets.
        base = rng.integers(1, 500, size=u)
        sizes = base[keys]
        change = rng.random(n) < 0.1
        sizes[change] = rng.integers(1, 500, size=int(change.sum()))
    return Trace(keys, sizes, name=f"grid{seed}")


def independent_curve(cfg, seed, trace, max_size=None):
    """The oracle: one standalone KRRModel.process with the cell's seed."""
    model = KRRModel(
        k=cfg.k,
        strategy=cfg.strategy,
        sampling_rate=cfg.sampling_rate,
        correction=cfg.correction,
        track_sizes=cfg.track_sizes,
        seed=seed,
    )
    model.process(trace)
    curve = model.byte_mrc() if cfg.track_sizes else model.mrc(max_size=max_size)
    return curve, model.stats


def assert_cell_matches(res, cfg, seed, trace, max_size=None):
    curve, stats = independent_curve(cfg, seed, trace, max_size)
    assert res.config is cfg
    assert res.seed == seed
    assert res.unit == ("bytes" if cfg.track_sizes else "objects")
    assert np.array_equal(curve.sizes, res.sizes)
    assert np.array_equal(curve.miss_ratios, res.miss_ratios)
    for f in STATS:
        assert getattr(stats, f) == getattr(res, f)


class TestSeeding:
    def test_spawn_seeds_matches_model_sweep(self):
        sweep = ModelSweep.grid(ks=[1, 2, 5], sampling_rates=[None, 0.1], seed=99)
        grid = MultiKRR.grid(ks=[1, 2, 5], sampling_rates=[None, 0.1], seed=99)
        assert sweep.config_seeds() == grid.config_seeds()
        assert grid.config_seeds() == spawn_seeds(6, 99)

    def test_seeds_fixed_by_position(self):
        assert spawn_seeds(4, 7)[:2] == spawn_seeds(2, 7)


config_st = st.builds(
    SweepConfig,
    k=st.integers(1, 6),
    strategy=st.sampled_from(["backward", "linear", "topdown"]),
    sampling_rate=st.sampled_from([None, 1.0, 0.5]),
    correction=st.booleans(),
    track_sizes=st.booleans(),
)


class TestGridIdentity:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        configs=st.lists(config_st, min_size=1, max_size=5),
        trace_seed=st.integers(min_value=0, max_value=50),
    )
    def test_grid_matches_independent_models(self, seed, configs, trace_seed):
        """Every cell of an in-memory MultiKRR run — any strategy,
        topdown and byte-level (track_sizes) cells included — equals a
        standalone KRRModel.process with the matching spawned seed."""
        trace = make_trace(n=1_200, u=120, seed=trace_seed, sized=True)
        grid = MultiKRR(configs, seed=seed)
        results = grid.run(trace)
        for cfg, s, res in zip(grid.configs, grid.config_seeds(), results):
            assert_cell_matches(res, cfg, s, trace)

    def test_grid_matches_model_sweep_serial(self):
        trace = make_trace()
        kwargs = dict(
            ks=[1, 2, 5],
            strategies=("backward", "linear", "topdown"),
            sampling_rates=(None, 0.1),
            seed=13,
        )
        sweep_rows = ModelSweep.grid(**kwargs).run(trace)
        grid_rows = MultiKRR.grid(**kwargs).run(trace)
        assert len(sweep_rows) == len(grid_rows)
        for a, b in zip(sweep_rows, grid_rows):
            assert a.config.label() == b.config.label()
            assert np.array_equal(a.sizes, b.sizes)
            assert np.array_equal(a.miss_ratios, b.miss_ratios)
            assert a.swap_positions == b.swap_positions

    def test_chunk_size_cannot_change_results(self):
        """Streamed runs equal the in-memory run for any chunking."""
        trace = make_trace(seed=9, sized=True)
        configs = [
            SweepConfig(k=3),
            SweepConfig(k=3, sampling_rate=0.2),
            SweepConfig(k=2, strategy="topdown", track_sizes=True),
        ]
        base = MultiKRR(configs, seed=1).run(trace)
        for chunk in (1, 37, 999):
            rows = MultiKRR(configs, seed=1).run(stream=iter_chunks(trace, chunk))
            for a, b in zip(base, rows):
                assert np.array_equal(a.sizes, b.sizes)
                assert np.array_equal(a.miss_ratios, b.miss_ratios)

    def test_max_size_caps_curve(self):
        trace = make_trace()
        rows = MultiKRR.grid([2], seed=0).run(trace, max_size=50)
        assert rows[0].sizes[-1] == 50


class TestValidation:
    def test_accepts_sweep_configs_directly(self):
        trace = make_trace()
        cfgs = [SweepConfig(k=2), SweepConfig(k=5, sampling_rate=0.5)]
        rows = MultiKRR(cfgs, seed=3).run(trace)
        assert rows[0].config is cfgs[0]
        assert rows[1].requests_sampled < rows[1].requests_seen

    def test_accepts_topdown_and_track_sizes(self):
        trace = make_trace(n=800, sized=True)
        cfgs = [
            SweepConfig(k=3, strategy="topdown"),
            SweepConfig(k=3, track_sizes=True),
        ]
        rows = MultiKRR(cfgs, seed=4).run(trace)
        assert [r.unit for r in rows] == ["objects", "bytes"]
        for cfg, s, res in zip(cfgs, spawn_seeds(2, 4), rows):
            assert_cell_matches(res, cfg, s, trace)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            MultiKRR([])
        with pytest.raises(ValueError):
            MultiKRR([SweepConfig(k=0)])
        with pytest.raises(ValueError):
            MultiKRR([SweepConfig()], seeds=[1, 2])

    def test_result_mrc_roundtrip(self):
        rows = MultiKRR.grid([2], seed=0).run(make_trace())
        curve = rows[0].mrc()
        assert curve.label == "K=2/backward/full"
        assert curve.sizes.shape == rows[0].sizes.shape
