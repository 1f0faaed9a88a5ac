"""State machinery tests: snapshot/restore must be bit-identical.

The service's crash-safety story rests on ``state_dict()`` /
``load_state()`` round-trips being *exact*: a model restored from a
JSON-serialized snapshot (as the daemon writes them) and fed the second
half of a trace must end in the same state — same RNG stream, same
histograms, same curve bytes — as a model that streamed the whole trace
uninterrupted.  Every test here splits a trace, snapshots at the seam
through a real ``json.dumps``/``loads`` round-trip, and compares final
``state_dict()`` and curve arrays for equality (not closeness).
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import ensure_rng
from repro.baselines.shards import Shards
from repro.core.model import KRRModel
from repro.core.windowed import WindowedKRRModel
from repro.sampling.spatial import SpatialSampler
from repro.workloads.zipf import ScrambledZipfGenerator


def _keys(n: int, objects: int = 300, seed: int = 11) -> list[int]:
    gen = ScrambledZipfGenerator(objects, 0.9, rng=seed)
    return gen.sample(n).tolist()


def _roundtrip(state: dict) -> dict:
    """Exactly what the daemon does: through JSON bytes and back."""
    return json.loads(json.dumps(state))


@pytest.mark.parametrize("strategy", ["backward", "topdown", "linear"])
@pytest.mark.parametrize("rate", [None, 0.05])
def test_krr_model_resume_is_bit_identical(strategy, rate):
    keys = _keys(6_000)
    full = KRRModel(k=4, strategy=strategy, sampling_rate=rate, seed=3)
    for key in keys:
        full.access(key)

    first = KRRModel(k=4, strategy=strategy, sampling_rate=rate, seed=3)
    for key in keys[:3_000]:
        first.access(key)
    resumed = KRRModel.from_state(_roundtrip(first.state_dict()))
    for key in keys[3_000:]:
        resumed.access(key)

    assert resumed.state_dict() == full.state_dict()
    a, b = resumed.mrc(), full.mrc()
    assert np.array_equal(a.sizes, b.sizes)
    assert np.array_equal(a.miss_ratios, b.miss_ratios)


def test_krr_model_tracked_sizes_resume():
    keys = _keys(4_000)
    sizes = [((k * 2654435761) % 900) + 10 for k in keys]
    full = KRRModel(k=5, track_sizes=True, seed=9)
    for k, s in zip(keys, sizes):
        full.access(k, s)

    first = KRRModel(k=5, track_sizes=True, seed=9)
    for k, s in zip(keys[:2_000], sizes[:2_000]):
        first.access(k, s)
    resumed = KRRModel.from_state(_roundtrip(first.state_dict()))
    for k, s in zip(keys[2_000:], sizes[2_000:]):
        resumed.access(k, s)

    assert resumed.state_dict() == full.state_dict()
    a, b = resumed.byte_mrc(), full.byte_mrc()
    assert np.array_equal(a.miss_ratios, b.miss_ratios)


def test_krr_model_rejects_config_mismatch():
    model = KRRModel(k=4, seed=1)
    model.access(1)
    state = model.state_dict()
    other = KRRModel(k=7, seed=1)
    with pytest.raises(ValueError, match="configuration"):
        other.load_state(state)


def test_krr_model_rejects_wrong_kind():
    model = KRRModel(k=4, seed=1)
    with pytest.raises(ValueError):
        model.load_state({"kind": "something-else", "version": 1})


def test_windowed_model_resume_across_rotations():
    keys = _keys(9_000, objects=150)
    window = 2_000  # several rotations inside 9k requests
    full = WindowedKRRModel(k=4, window=window, seed=5)
    for key in keys:
        full.access(key)
    assert full.rotations >= 4

    first = WindowedKRRModel(k=4, window=window, seed=5)
    for key in keys[:4_500]:
        first.access(key)
    resumed = WindowedKRRModel.from_state(_roundtrip(first.state_dict()))
    for key in keys[4_500:]:
        resumed.access(key)

    assert resumed.state_dict() == full.state_dict()
    assert resumed.counters() == full.counters()
    a, b = resumed.mrc(), full.mrc()
    assert np.array_equal(a.miss_ratios, b.miss_ratios)


def test_windowed_counters_track_requests_and_rotations():
    model = WindowedKRRModel(k=3, window=100, seed=1)
    for i in range(275):
        model.access(i % 40)
    c = model.counters()
    # Rotation fires every window//2 = 50 requests.
    assert c["requests_seen"] == 275
    assert c["rotations"] == 5
    assert c["since_rotation"] == 25
    assert c["coverage"] == 75
    assert c["window"] == 100
    assert model.coverage == min(model.requests_seen, 50 + 25)


def test_windowed_access_many_equals_access_loop():
    keys = _keys(2_000, objects=80)
    sizes = [(k % 7) + 1 for k in keys]
    one = WindowedKRRModel(k=4, window=500, seed=2, track_sizes=True)
    for k, s in zip(keys, sizes):
        one.access(k, s)
    many = WindowedKRRModel(k=4, window=500, seed=2, track_sizes=True)
    many.access_many(keys, sizes)
    assert one.state_dict() == many.state_dict()


def test_shards_resume_is_behaviorally_exact():
    keys = _keys(8_000, objects=400)
    full = Shards(rate=0.3, seed=2, byte_bin=4096)
    for k in keys:
        full.access(k, (k % 50) + 1)

    first = Shards(rate=0.3, seed=2, byte_bin=4096)
    for k in keys[:4_000]:
        first.access(k, (k % 50) + 1)
    resumed = Shards.from_state(_roundtrip(first.state_dict()))
    for k in keys[4_000:]:
        resumed.access(k, (k % 50) + 1)

    assert resumed.state_dict() == full.state_dict()
    a, b = resumed.mrc(), full.mrc()
    assert np.array_equal(a.miss_ratios, b.miss_ratios)
    ab, bb = resumed.byte_mrc(), full.byte_mrc()
    assert np.array_equal(ab.miss_ratios, bb.miss_ratios)


def test_spatial_sampler_state_preserves_exact_threshold():
    sampler = SpatialSampler(0.123456789, seed=42)
    restored = SpatialSampler.from_state(_roundtrip(sampler.state_dict()))
    assert restored.threshold == sampler.threshold
    assert restored.modulus == sampler.modulus
    assert restored.seed == sampler.seed
    for key in range(5_000):
        assert restored.keep(key) == sampler.keep(key)


@settings(max_examples=25, deadline=None)
@given(
    strategy=st.sampled_from(["backward", "linear"]),
    track_sizes=st.booleans(),
    rate=st.sampled_from([None, 0.5]),
    cut=st.integers(min_value=0, max_value=3_000),
    batch=st.sampled_from([1, 97, 3_000]),
)
def test_soa_model_cut_anywhere_resumes_bit_identically(
    strategy, track_sizes, rate, cut, batch
):
    """SoA-backed models snapshot anywhere — mid draw block included — and
    a restored model continues exactly like one that never stopped."""
    keys = _keys(3_000, objects=120)
    sizes = [((k * 2654435761) % 900) + 10 for k in keys]
    kwargs = dict(k=4, strategy=strategy, sampling_rate=rate,
                  track_sizes=track_sizes, seed=21)
    full = KRRModel(**kwargs)
    full.access_many(keys, sizes)

    first = KRRModel(**kwargs)
    for lo in range(0, cut, batch):
        hi = min(cut, lo + batch)
        first.access_many(keys[lo:hi], sizes[lo:hi])
    resumed = KRRModel.from_state(_roundtrip(first.state_dict()))
    resumed.access_many(keys[cut:], sizes[cut:])

    assert resumed.state_dict() == full.state_dict()
    a, b = resumed.mrc(), full.mrc()
    assert np.array_equal(a.miss_ratios, b.miss_ratios)
    if track_sizes:
        assert np.array_equal(
            resumed.byte_mrc().miss_ratios, full.byte_mrc().miss_ratios
        )


def _fixture_stream(seed: int, n: int) -> tuple[list, list]:
    """The request stream ``tests/data/windowed_state_v1.json.gz`` saw."""
    rng = ensure_rng(seed)
    keys = (rng.zipf(1.3, size=n) % 1500).astype(np.int64)
    keys[::97] += 2**63 - 3000  # some ids near the top of the int64 range
    sizes = rng.integers(16, 5000, size=n).astype(np.int64)
    return keys.tolist(), sizes.tolist()


#: Configurations of the snapshots in the fixture, by name.
_FIXTURE_CONFIGS = {
    "objects": dict(k=5, window=4000, seed=17),
    "bytes": dict(k=3, window=2500, sampling_rate=0.5, track_sizes=True, seed=23),
}


@pytest.mark.parametrize("name", sorted(_FIXTURE_CONFIGS))
def test_snapshot_from_scalar_stack_resumes_bit_identically(name):
    """A service snapshot written when every online model ran on the boxed
    KRRStack restores into the SoA stack and resumes bit for bit.

    The fixture holds, per configuration, ``WindowedKRRModel(**config)``
    after ``access_many`` of the first 3000 requests of
    ``_fixture_stream(5, 6000)``, as that older code wrote it.
    """
    path = Path(__file__).parent / "data" / "windowed_state_v1.json.gz"
    with gzip.open(path, "rt") as fh:
        state = json.load(fh)[name]
    keys, sizes = _fixture_stream(5, 6000)
    config = _FIXTURE_CONFIGS[name]

    live = WindowedKRRModel(**config)
    live.access_many(keys[:3000], sizes[:3000])
    live.access_many(keys[3000:], sizes[3000:])
    restored = WindowedKRRModel.from_state(state)
    restored.access_many(keys[3000:], sizes[3000:])

    assert restored.rotations == live.rotations >= 2
    assert restored.state_dict() == live.state_dict()
    a, b = restored.mrc(), live.mrc()
    assert np.array_equal(a.sizes, b.sizes)
    assert np.array_equal(a.miss_ratios, b.miss_ratios)
    if config.get("track_sizes"):
        assert np.array_equal(
            restored.byte_mrc().miss_ratios, live.byte_mrc().miss_ratios
        )
