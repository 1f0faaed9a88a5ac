"""Grid results and checkpoints written by an earlier release still hold.

``tests/data/sweep_grid_v1.json.gz`` was written by the release whose
``ModelSweep`` fanned cells out one ``KRRModel`` per pool task and whose
``FleetSweep`` split a grid into a ``MultiKRR`` pass plus a second model
pass.  It holds two traces, a grid with backward, linear, topdown,
sampled, uncorrected and byte-level (``track_sizes``) cells, the rows of
a ``ModelSweep`` over the first trace and of a two-trace ``FleetSweep``,
and two partial checkpoints: a sweep checkpoint file cut to its first
rows and a fleet checkpoint directory with one finished and one partial
trace.  The one grid runner must reproduce every row exactly and resume
both checkpoints.
"""

import gzip
import json
from pathlib import Path

import numpy as np
import pytest

from repro.engine import FleetSweep, ModelSweep, SweepConfig
from repro.workloads.io import save_npz
from repro.workloads.trace import Trace

FIXTURE = Path(__file__).parent / "data" / "sweep_grid_v1.json.gz"


@pytest.fixture(scope="module")
def fixture():
    with gzip.open(FIXTURE, "rt") as fh:
        doc = json.load(fh)
    assert doc["kind"] == "repro-sweep-grid-fixture" and doc["version"] == 1
    doc["traces"] = [
        Trace(t["keys"], t["sizes"], t["ops"], name=t["name"]) for t in doc["traces"]
    ]
    doc["configs"] = [SweepConfig(**c) for c in doc["configs"]]
    return doc


def assert_rows(results, rows):
    assert len(results) == len(rows)
    for got, want in zip(results, rows):
        assert got.seed == want["seed"]
        assert got.unit == want["unit"]
        assert str(got.sizes.dtype) == want["sizes_dtype"]
        assert got.sizes.tolist() == want["sizes"]
        assert got.miss_ratios.tolist() == want["miss_ratios"]
        for name, value in want["stats"].items():
            assert getattr(got, name) == value


def test_fixture_grid_covers_every_cell_kind(fixture):
    configs = fixture["configs"]
    assert {c.strategy for c in configs} == {"backward", "linear", "topdown"}
    assert any(c.track_sizes for c in configs)
    assert any(c.sampling_rate is not None for c in configs)
    assert any(not c.correction for c in configs)


def test_model_sweep_reproduces_written_rows(fixture):
    sweep = ModelSweep(fixture["configs"], seed=fixture["sweep"]["seed"])
    results = sweep.run(fixture["traces"][0], max_size=fixture["max_size"])
    assert_rows(results, fixture["sweep"]["rows"])


def test_fleet_reproduces_written_rows(fixture, tmp_path):
    fleet = FleetSweep(fixture["configs"], seed=fixture["fleet"]["seed"])
    traces = fixture["traces"]
    # In memory (one MultiKRR.run(trace) per trace), then with the second
    # trace streamed from disk (MultiKRR.run(stream=)).
    path = tmp_path / "b.npz"
    save_npz(traces[1], path)
    for sources in (traces, [traces[0], str(path)]):
        results, report = fleet.run(
            sources, max_workers=1, max_size=fixture["max_size"], chunk_size=333
        )
        assert report.completed == 2
        for trace_result, rows in zip(results, fixture["fleet"]["rows"]):
            assert_rows(trace_result.results, rows)


def test_resumes_written_sweep_checkpoint(fixture, tmp_path):
    ck = tmp_path / "sweep.jsonl"
    ck.write_text(fixture["sweep_checkpoint"])
    sweep = ModelSweep(fixture["configs"], seed=fixture["sweep"]["seed"])
    results, report = sweep.run_with_report(
        fixture["traces"][0], max_size=fixture["max_size"], checkpoint=ck
    )
    assert report.from_checkpoint == 4
    assert report.attempts == 1
    assert_rows(results, fixture["sweep"]["rows"])
    # The resumed run appended the rest: a rerun computes nothing.
    again, report = sweep.run_with_report(
        fixture["traces"][0], max_size=fixture["max_size"], checkpoint=ck
    )
    assert report.attempts == 0
    assert report.from_checkpoint == len(fixture["configs"])
    assert_rows(again, fixture["sweep"]["rows"])


def test_resumes_written_fleet_checkpoint_dir(fixture, tmp_path):
    ck = tmp_path / "fleet"
    ck.mkdir()
    for name, text in fixture["fleet_checkpoint"].items():
        (ck / name).write_text(text)
    fleet = FleetSweep(fixture["configs"], seed=fixture["fleet"]["seed"])
    results, report = fleet.run(
        fixture["traces"],
        checkpoint_dir=ck,
        max_workers=1,
        max_size=fixture["max_size"],
    )
    assert report.from_checkpoint == 1  # trace 0 was finished
    assert results[0].resumed_cells == len(fixture["configs"])
    assert results[1].resumed_cells == 5
    assert results[1].computed_cells == len(fixture["configs"]) - 5
    for trace_result, rows in zip(results, fixture["fleet"]["rows"]):
        assert_rows(trace_result.results, rows)
