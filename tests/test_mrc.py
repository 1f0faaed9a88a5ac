"""Tests for MissRatioCurve, builders and error metrics."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mrc import (
    MissRatioCurve,
    curve_gap,
    evaluation_grid,
    from_points,
    max_absolute_error,
    mean_absolute_error,
)
from repro.mrc.builder import from_distance_histogram
from repro.mrc.curve import float_array_json
from repro.stack.histogram import DistanceHistogram


def _curve(sizes, ratios, unit="objects", label=""):
    return MissRatioCurve(np.asarray(sizes, float), np.asarray(ratios, float), unit, label)


class TestValidation:
    def test_requires_parallel_arrays(self):
        with pytest.raises(ValueError):
            _curve([1, 2], [0.5])

    def test_requires_increasing_sizes(self):
        with pytest.raises(ValueError):
            _curve([2, 1], [0.5, 0.4])
        with pytest.raises(ValueError):
            _curve([1, 1], [0.5, 0.4])

    def test_requires_ratio_range(self):
        with pytest.raises(ValueError):
            _curve([1], [1.5])
        with pytest.raises(ValueError):
            _curve([1], [-0.1])

    def test_requires_nonempty(self):
        with pytest.raises(ValueError):
            _curve([], [])

    def test_negative_sizes_rejected(self):
        with pytest.raises(ValueError):
            _curve([-1, 2], [0.9, 0.5])


class TestEvaluation:
    def test_interpolation(self):
        c = _curve([10, 20], [0.8, 0.4])
        assert c(15) == pytest.approx(0.6)

    def test_extrapolation_clamps(self):
        c = _curve([10, 20], [0.8, 0.4])
        assert c(1) == 0.8
        assert c(100) == 0.4

    def test_vectorized_call(self):
        c = _curve([10, 20, 30], [0.9, 0.5, 0.1])
        np.testing.assert_allclose(c([10, 25, 30]), [0.9, 0.3, 0.1])

    def test_resample(self):
        c = _curve([10, 30], [0.8, 0.4])
        r = c.resample([10, 20, 30])
        np.testing.assert_allclose(r.miss_ratios, [0.8, 0.6, 0.4])

    def test_enforce_monotone(self):
        c = _curve([1, 2, 3], [0.5, 0.6, 0.3])
        m = c.enforce_monotone()
        np.testing.assert_allclose(m.miss_ratios, [0.5, 0.5, 0.3])
        assert m.is_monotone()
        assert not c.is_monotone()

    def test_rows_and_label(self):
        c = _curve([1], [0.5]).with_label("x")
        assert c.label == "x"
        assert c.to_rows() == [(1.0, 0.5)]


class TestMetrics:
    def test_mae_on_actual_grid(self):
        actual = _curve([10, 20], [0.8, 0.4])
        predicted = _curve([10, 20], [0.7, 0.5])
        assert mean_absolute_error(actual, predicted) == pytest.approx(0.1)

    def test_mae_custom_grid(self):
        a = _curve([0, 100], [1.0, 0.0])
        b = _curve([0, 100], [1.0, 0.2])
        got = mean_absolute_error(a, b, sizes=[100])
        assert got == pytest.approx(0.2)

    def test_mae_unit_mismatch(self):
        a = _curve([1], [0.5], unit="objects")
        b = _curve([1], [0.5], unit="bytes")
        with pytest.raises(ValueError):
            mean_absolute_error(a, b)

    def test_max_error(self):
        a = _curve([1, 2], [0.9, 0.1])
        b = _curve([1, 2], [0.5, 0.1])
        assert max_absolute_error(a, b) == pytest.approx(0.4)

    def test_identical_curves_zero_gap(self):
        a = _curve([1, 50, 100], [0.9, 0.5, 0.1])
        assert curve_gap(a, a) == 0.0

    @given(
        st.lists(st.floats(0, 1), min_size=2, max_size=20),
        st.lists(st.floats(0, 1), min_size=2, max_size=20),
    )
    @settings(max_examples=40, deadline=None)
    def test_mae_symmetric_nonnegative(self, r1, r2):
        n = min(len(r1), len(r2))
        sizes = np.arange(1, n + 1, dtype=float)
        a = _curve(sizes, sorted(r1[:n], reverse=True))
        b = _curve(sizes, sorted(r2[:n], reverse=True))
        assert mean_absolute_error(a, b) == pytest.approx(
            mean_absolute_error(b, a, sizes=a.sizes)
        )
        assert mean_absolute_error(a, b) >= 0


class TestBuilders:
    def test_from_points(self):
        c = from_points([1, 2], [0.9, 0.5], unit="bytes", label="z")
        assert c.unit == "bytes" and c.label == "z"

    def test_from_histogram_drops_size_zero(self):
        h = DistanceHistogram()
        h.record(1)
        c = from_distance_histogram(h)
        assert c.sizes[0] == 1

    def test_histogram_curve_values(self):
        h = DistanceHistogram()
        for d in (1, 2, 2):
            h.record(d)
        h.record_cold()
        c = from_distance_histogram(h)
        assert c(1) == pytest.approx(0.75)
        assert c(2) == pytest.approx(0.25)


class TestEvaluationGrid:
    def test_paper_grid_40_points(self):
        g = evaluation_grid(1_000_000, 40)
        assert g.shape == (40,)
        assert g[-1] == 1_000_000
        assert g[0] == pytest.approx(25_000)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            evaluation_grid(0)
        with pytest.raises(ValueError):
            evaluation_grid(10, 0)


_EDGE_FLOATS = [-0.0, 0.0, 5e-324, 1e16, 0.1 + 0.2, float("nan"),
                float("inf"), -float("inf")]


class TestJsonEncoding:
    """The run-length encoder writes exactly what ``json.dumps`` writes."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.tuples(
            st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats()),
            st.integers(1, 40),  # run length
        ),
        max_size=30,
    ))
    @example([])
    @example([(0.5, 1)])
    @example([(0.0, 3), (-0.0, 2), (float("nan"), 4), (float("inf"), 1)])
    def test_float_array_json_equals_json_dumps(self, runs):
        values = [v for v, n in runs for _ in range(n)]
        a = np.asarray(values, dtype=np.float64)
        assert float_array_json(a) == json.dumps(a.tolist())

    def test_curve_to_json_equals_dict_encoding(self):
        sizes = np.arange(1.0, 301.0)
        curve = _curve(sizes, np.repeat(np.linspace(0.9, 0.1, 30), 10), "bytes")
        assert curve.to_json() == json.dumps({
            "sizes": curve.sizes.tolist(),
            "miss_ratios": curve.miss_ratios.tolist(),
            "unit": "bytes",
        })
