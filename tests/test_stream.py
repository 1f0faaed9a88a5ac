"""Out-of-core trace streaming: readers, shard format, bit-identity.

Hypothesis drives the contracts the streaming layer lives or dies by:

* the chunk-dir (``save_chunked``) format round-trips any trace for any
  chunk size, and its reader detects shard corruption;
* every streamed hot path — ``KRRModel`` (every strategy),
  the one-pass ``MultiKRR`` grid, SHARDS, the simulators — produces
  *bit-identical* results to the in-memory run, for any chunking.
"""

import gzip
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import KRRModel
from repro.core.vkrr import MultiKRR, SweepConfig
from repro.workloads.io import save_csv, save_npz
from repro.workloads.stream import (
    ChunkedTraceReader,
    ShardCorruption,
    is_chunked_dir,
    iter_chunks,
    iter_csv,
    iter_npz,
    open_trace_stream,
    save_chunked,
)
from repro.workloads.trace import Trace


def _trace(keys, sizes=None, name="t"):
    keys = np.asarray(keys, dtype=np.int64)
    if sizes is None:
        sizes = np.ones(keys.shape[0], dtype=np.int64)
    return Trace(keys, np.asarray(sizes, dtype=np.int64), name=name)


trace_st = st.builds(
    _trace,
    keys=st.lists(st.integers(0, 50), min_size=1, max_size=300).map(np.array),
    sizes=st.none(),
)
sized_trace_st = st.lists(
    st.tuples(st.integers(0, 50), st.integers(1, 100)), min_size=1, max_size=300
).map(lambda rows: _trace([k for k, _ in rows], [s for _, s in rows]))


def _assert_traces_equal(a: Trace, b: Trace) -> None:
    assert np.array_equal(a.keys, b.keys)
    assert np.array_equal(a.sizes, b.sizes)
    assert np.array_equal(a.ops, b.ops)


# ----------------------------------------------------------------------
# chunk-dir format
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(trace=sized_trace_st, chunk_size=st.integers(1, 128))
def test_chunk_dir_round_trip_any_chunk_size(trace, chunk_size, tmp_path_factory):
    d = tmp_path_factory.mktemp("chunks") / "t.chunks"
    save_chunked(iter_chunks(trace, chunk_size), d, chunk_size=chunk_size)
    reader = ChunkedTraceReader(d)
    assert reader.n_requests == len(trace)
    assert reader.n_chunks == -(-len(trace) // chunk_size)
    _assert_traces_equal(reader.read_all(), trace)
    # re-iterable: two passes see identical chunk sequences
    first = [c.keys.copy() for c in reader]
    second = [c.keys.copy() for c in reader]
    assert all(np.array_equal(x, y) for x, y in zip(first, second))
    assert sum(len(c) for c in reader) == len(trace)


@settings(max_examples=20, deadline=None)
@given(
    trace=sized_trace_st,
    save_chunk=st.integers(1, 64),
    resave_chunk=st.integers(1, 64),
)
def test_chunk_dir_rechunk_preserves_trace(
    trace, save_chunk, resave_chunk, tmp_path_factory
):
    base = tmp_path_factory.mktemp("rechunk")
    a = base / "a.chunks"
    b = base / "b.chunks"
    save_chunked(iter_chunks(trace, save_chunk), a, chunk_size=save_chunk)
    # convert a chunk dir to a different shard size via its own reader
    save_chunked(ChunkedTraceReader(a), b, chunk_size=resave_chunk)
    _assert_traces_equal(ChunkedTraceReader(b).read_all(), trace)


def test_chunk_dir_detects_corrupt_shard(tmp_path):
    trace = _trace(np.arange(100) % 7)
    d = tmp_path / "t.chunks"
    save_chunked(iter_chunks(trace, 32), d, chunk_size=32)
    shard = d / "chunk-00001.npz"
    data = dict(np.load(shard))
    data["keys"] = data["keys"] + 1  # flip the payload, keep the count
    np.savez_compressed(shard, **data)
    reader = ChunkedTraceReader(d)
    with pytest.raises(ShardCorruption):
        reader.read_all()


def test_chunk_dir_detects_truncated_shard(tmp_path):
    trace = _trace(np.arange(90) % 5)
    d = tmp_path / "t.chunks"
    save_chunked(iter_chunks(trace, 30), d, chunk_size=30)
    (d / "chunk-00002.npz").write_bytes(b"not an npz")
    with pytest.raises(ShardCorruption):
        ChunkedTraceReader(d).read_all()


def test_interrupted_conversion_is_refused(tmp_path):
    trace = _trace(np.arange(50))
    d = tmp_path / "t.chunks"
    save_chunked(iter_chunks(trace, 16), d, chunk_size=16)
    (d / "manifest.json").unlink()  # crash before the final manifest write
    assert not is_chunked_dir(d)
    with pytest.raises(FileNotFoundError):
        ChunkedTraceReader(d)


def test_manifest_and_directory_are_fsynced(tmp_path, monkeypatch):
    """The manifest is the commit point of a conversion: its bytes and its
    directory entry both reach disk (one file and one directory fsync)."""
    synced = []
    fsync = os.fsync

    def record(fd):
        st = os.fstat(fd)
        synced.append((st.st_dev, st.st_ino))
        fsync(fd)

    monkeypatch.setattr(os, "fsync", record)
    d = save_chunked(iter_chunks(_trace(np.arange(40) % 9), 16), tmp_path / "t.chunks",
                     chunk_size=16)

    def ident(path):
        st = path.stat()
        return (st.st_dev, st.st_ino)

    assert synced.count(ident(d / "manifest.json")) == 1
    assert synced.count(ident(d)) == 1


def test_chunk_dir_preserves_skipped_rows(tmp_path):
    csv = tmp_path / "t.csv"
    csv.write_text("key,size\n1,10\n2,\nbogus\n3,30\n")
    d = tmp_path / "t.chunks"
    save_chunked(iter_csv(csv, chunk_size=2, errors="skip"), d, chunk_size=2)
    reader = ChunkedTraceReader(d)
    assert reader.skipped_rows == 2
    assert reader.read_all().skipped_rows == 2


def test_save_chunked_refuses_existing_dir(tmp_path):
    trace = _trace([1, 2, 3])
    d = tmp_path / "t.chunks"
    save_chunked(iter_chunks(trace, 2), d, chunk_size=2)
    with pytest.raises(FileExistsError):
        save_chunked(iter_chunks(trace, 2), d, chunk_size=2)
    save_chunked(iter_chunks(trace, 2), d, chunk_size=2, overwrite=True)
    _assert_traces_equal(ChunkedTraceReader(d).read_all(), trace)


def test_manifest_contents(tmp_path):
    trace = _trace(np.arange(70) % 9)
    d = tmp_path / "t.chunks"
    save_chunked(iter_chunks(trace, 32), d, chunk_size=32, name="zed")
    manifest = json.loads((d / "manifest.json").read_text())
    assert manifest["kind"] == "repro-chunked-trace"
    assert manifest["n_requests"] == 70
    assert [c["n"] for c in manifest["chunks"]] == [32, 32, 6]
    assert ChunkedTraceReader(d).name == "zed"


# ----------------------------------------------------------------------
# file streams
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(trace=sized_trace_st, chunk_size=st.integers(1, 100))
def test_iter_csv_matches_trace(trace, chunk_size, tmp_path_factory):
    base = tmp_path_factory.mktemp("csv")
    for suffix in (".csv", ".csv.gz"):
        path = base / f"t{suffix}"
        save_csv(trace, path)
        chunks = list(iter_csv(path, chunk_size=chunk_size))
        assert all(len(c) <= chunk_size for c in chunks)
        _assert_traces_equal(Trace.concat(chunks, name="t"), trace)


def test_iter_csv_skip_counts_per_chunk(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("key,size\n1,1\nbad\n2,2\n3,3\nworse,,\n4,4\n")
    chunks = list(iter_csv(path, chunk_size=2, errors="skip"))
    assert [c.skipped_rows for c in chunks] == [1, 1]
    assert sum(len(c) for c in chunks) == 4


def test_iter_npz_matches_trace(tmp_path):
    trace = _trace(np.arange(101) % 13, np.arange(101) % 7 + 1)
    path = tmp_path / "t.npz"
    save_npz(trace, path)
    chunks = list(iter_npz(path, chunk_size=40))
    assert [len(c) for c in chunks] == [40, 40, 21]
    _assert_traces_equal(Trace.concat(chunks, name="t"), trace)


def test_open_trace_stream_dispatch(tmp_path):
    trace = _trace(np.arange(30) % 4)
    csv, npz, d = tmp_path / "t.csv", tmp_path / "t.npz", tmp_path / "t.chunks"
    save_csv(trace, csv)
    save_npz(trace, npz)
    save_chunked(iter_chunks(trace, 8), d, chunk_size=8)
    for source in (trace, str(csv), str(npz), str(d)):
        stream = open_trace_stream(source, chunk_size=8)
        _assert_traces_equal(Trace.concat(list(stream), name="t"), trace)
        # streams from open_trace_stream are re-iterable
        _assert_traces_equal(Trace.concat(list(stream), name="t"), trace)


# ----------------------------------------------------------------------
# streamed == in-memory, bit for bit
# ----------------------------------------------------------------------
strategy_st = st.sampled_from(["backward", "linear", "topdown"])
rate_st = st.sampled_from([None, 0.5])


@settings(max_examples=25, deadline=None)
@given(
    trace=trace_st,
    chunk_size=st.integers(1, 97),
    strategy=strategy_st,
    rate=rate_st,
    k=st.integers(1, 6),
)
def test_streamed_krr_model_bit_identical(trace, chunk_size, strategy, rate, k):
    mem = KRRModel(k=k, strategy=strategy, sampling_rate=rate, seed=5)
    mem.process(trace)
    streamed = KRRModel(k=k, strategy=strategy, sampling_rate=rate, seed=5)
    streamed.process(stream=iter_chunks(trace, chunk_size))
    assert mem.stats == streamed.stats
    if mem.stats.requests_sampled:  # else both histograms are empty
        assert np.array_equal(mem.mrc().miss_ratios, streamed.mrc().miss_ratios)


@settings(max_examples=15, deadline=None)
@given(trace=sized_trace_st, chunk_size=st.integers(1, 97))
def test_streamed_multi_krr_bit_identical(trace, chunk_size):
    """A streamed MultiKRR grid — topdown and byte-level cells included —
    equals independent in-memory KRRModel runs, cell by cell."""
    configs = [
        SweepConfig(k=k, strategy=strategy, sampling_rate=rate, track_sizes=sizes)
        for k, strategy, rate, sizes in (
            (1, "backward", None, False),
            (4, "backward", 0.5, False),
            (3, "linear", None, True),
            (4, "topdown", None, False),
            (2, "topdown", 0.5, True),
        )
    ]
    grid = MultiKRR(configs, seed=9)
    seeds = grid.config_seeds()
    models = []
    for cfg, seed in zip(configs, seeds):
        model = KRRModel(k=cfg.k, strategy=cfg.strategy,
                         sampling_rate=cfg.sampling_rate,
                         track_sizes=cfg.track_sizes, seed=seed)
        model.process(trace)
        models.append(model)
    if any(m.stats.requests_sampled == 0 for m in models):
        # A cell sampled nothing: the streamed grid must refuse its curve too.
        with pytest.raises(ValueError):
            grid.run(stream=iter_chunks(trace, chunk_size))
        return
    streamed = grid.run(stream=iter_chunks(trace, chunk_size))
    for cfg, model, res in zip(configs, models, streamed):
        curve = model.byte_mrc() if cfg.track_sizes else model.mrc()
        assert res.unit == curve.unit
        assert np.array_equal(curve.sizes, res.sizes)
        assert np.array_equal(curve.miss_ratios, res.miss_ratios)
        for f in (
            "requests_seen",
            "requests_sampled",
            "cold_misses",
            "stack_updates",
            "swap_positions",
        ):
            assert getattr(model.stats, f) == getattr(res, f)


@settings(max_examples=15, deadline=None)
@given(trace=trace_st, chunk_size=st.integers(1, 97))
def test_streamed_shards_bit_identical(trace, chunk_size):
    from repro.baselines.shards import FixedSizeShards, Shards

    for make in (
        lambda: Shards(rate=0.5, seed=3),
        lambda: FixedSizeShards(s_max=16, seed=3),
    ):
        mem, streamed = make(), make()
        mem.process(trace)
        streamed.process(iter_chunks(trace, chunk_size))
        try:
            mem_curve = mem.mrc().miss_ratios
        except ValueError:  # sampled nothing: streamed must agree
            with pytest.raises(ValueError):
                streamed.mrc()
            continue
        assert np.array_equal(mem_curve, streamed.mrc().miss_ratios)


@settings(max_examples=15, deadline=None)
@given(trace=trace_st, chunk_size=st.integers(1, 97))
def test_streamed_simulator_bit_identical(trace, chunk_size):
    from repro.simulator.base import run_trace
    from repro.simulator.klru import KLRUCache

    mem = run_trace(KLRUCache(capacity=16, k=3, rng=11), trace)
    streamed = run_trace(
        KLRUCache(capacity=16, k=3, rng=11), iter_chunks(trace, chunk_size)
    )
    assert (mem.hits, mem.misses, mem.evictions) == (
        streamed.hits,
        streamed.misses,
        streamed.evictions,
    )


def test_stream_rejects_trace_and_stream_together(small_zipf_trace):
    model = KRRModel(k=2, seed=0)
    with pytest.raises(ValueError):
        model.process(small_zipf_trace, stream=iter_chunks(small_zipf_trace, 10))
    with pytest.raises(ValueError):
        model.process()
    with pytest.raises(ValueError):
        MultiKRR.grid(ks=[1]).run()


def test_streaming_refuses_auto_rate(small_zipf_trace):
    model = KRRModel(k=2, sampling_rate="auto", seed=0)
    with pytest.raises(ValueError, match="auto"):
        model.process(stream=iter_chunks(small_zipf_trace, 100))
