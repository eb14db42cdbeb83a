"""Unit tests for ASCII plotting and markdown reporting."""

import pytest

from repro.analysis.ascii_plot import Series, line_plot, sparkline
from repro.analysis.report import markdown_table


class TestSeries:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="points"):
            Series("a", [1, 2], [1])


class TestLinePlot:
    def test_contains_glyphs_and_legend(self):
        s1 = Series("alpha", [0, 1, 2], [0, 1, 4])
        s2 = Series("beta", [0, 1, 2], [4, 1, 0])
        art = line_plot([s1, s2], width=30, height=8)
        assert "*" in art
        assert "o" in art
        assert "alpha" in art and "beta" in art

    def test_title_and_labels(self):
        s = Series("x", [0, 1], [0, 1])
        art = line_plot([s], title="T", x_label="xx", y_label="yy")
        assert art.splitlines()[0] == "T"
        assert "xx" in art
        assert "yy" in art

    def test_constant_series_handled(self):
        s = Series("flat", [0, 1, 2], [5, 5, 5])
        art = line_plot([s], width=20, height=5)
        assert "*" in art

    def test_non_finite_points_skipped(self):
        s = Series("gappy", [0, 1, 2], [float("inf"), 1.0, 2.0])
        art = line_plot([s], width=20, height=5)
        assert "*" in art

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            line_plot([])

    def test_all_infinite_rejected(self):
        s = Series("void", [0.0], [float("nan")])
        with pytest.raises(ValueError, match="finite"):
            line_plot([s])

    def test_canvas_too_small_rejected(self):
        s = Series("a", [0, 1], [0, 1])
        with pytest.raises(ValueError, match="canvas"):
            line_plot([s], width=5, height=2)

    def test_canvas_dimensions(self):
        s = Series("a", [0, 1], [0, 1])
        art = line_plot([s], width=30, height=6)
        rows = [l for l in art.splitlines() if l.startswith("|")]
        assert len(rows) == 6
        assert all(len(r) == 31 for r in rows)


class TestSparkline:
    def test_monotone_series(self):
        sp = sparkline([1, 2, 3, 4])
        assert sp[0] == "▁"
        assert sp[-1] == "█"

    def test_empty(self):
        assert sparkline([]) == ""

    def test_width_thinning(self):
        sp = sparkline(list(range(100)), width=10)
        assert len(sp) == 10

    def test_nan_renders_blank(self):
        sp = sparkline([1.0, float("nan"), 2.0])
        assert sp[1] == " "


class TestMarkdownTable:
    def test_basic(self):
        md = markdown_table(["a", "b"], [[1, 2], [3, 4]])
        lines = md.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "|---|---|"
        assert lines[2] == "| 1 | 2 |"

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError, match="cells"):
            markdown_table(["a"], [[1, 2]])

    def test_empty_headers_rejected(self):
        with pytest.raises(ValueError, match="header"):
            markdown_table([], [])
