"""Tests for the terminal visualization helpers."""

import numpy as np
import pytest

from repro.viz import heatmap, sparkline


class TestSparkline:
    def test_monotone_ramp(self):
        out = sparkline([1, 2, 3, 4, 5, 6, 7, 8])
        assert out == "▁▂▃▄▅▆▇█"

    def test_constant_series(self):
        assert sparkline([3, 3, 3]) == "▁▁▁"

    def test_empty(self):
        assert sparkline([]) == ""

    def test_nan_renders_space(self):
        out = sparkline([1.0, float("nan"), 2.0])
        assert out[1] == " "

    def test_pinned_scale(self):
        # With the scale pinned to [0, 100], small values stay low.
        out = sparkline([2, 2], low=0, high=100)
        assert set(out) == {"▁"}

    def test_length_matches_input(self):
        assert len(sparkline(np.arange(17))) == 17


class TestHeatmap:
    def test_extremes_use_extreme_shades(self):
        out = heatmap(np.array([[0.0, 1.0]]))
        assert "█" in out
        assert " " in out

    def test_row_labels(self):
        out = heatmap(np.eye(2), row_labels=["rowA", "rowB"])
        assert "rowA" in out

    def test_accepts_1d(self):
        assert len(heatmap(np.array([1.0, 2.0])).splitlines()) == 1

    def test_constant_matrix(self):
        out = heatmap(np.ones((2, 2)))
        assert set("".join(out.splitlines())) <= {" "}
