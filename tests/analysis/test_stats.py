"""Unit tests for the statistics helpers."""

import math

import pytest

from repro.analysis.stats import (
    WinLossRecord,
    geometric_mean,
    summarize,
    win_loss,
)


class TestSummarize:
    def test_basic_mean_std(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s.mean == pytest.approx(2.0)
        assert s.std == pytest.approx(1.0)
        assert s.n == 3
        assert (s.minimum, s.maximum) == (1.0, 3.0)

    def test_single_sample_collapses(self):
        s = summarize([5.0])
        assert s.std == 0.0
        assert s.ci_low == s.ci_high == 5.0

    def test_ci_contains_mean(self):
        s = summarize([3.0, 4.0, 5.0, 6.0])
        assert s.ci_low <= s.mean <= s.ci_high

    def test_ci_width_grows_with_confidence(self):
        data = [1.0, 2.0, 3.0, 4.0, 5.0]
        narrow = summarize(data, confidence=0.5)
        wide = summarize(data, confidence=0.99)
        assert (wide.ci_high - wide.ci_low) > (narrow.ci_high - narrow.ci_low)

    def test_ci_95_matches_normal_quantile(self):
        # z(95%) = 1.95996...; ci half-width = z * std / sqrt(n)
        s = summarize([0.0, 2.0], confidence=0.95)
        half = 1.959964 * s.std / math.sqrt(2)
        assert (s.ci_high - s.mean) == pytest.approx(half, rel=1e-4)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            summarize([])

    def test_bad_confidence_rejected(self):
        with pytest.raises(ValueError, match="confidence"):
            summarize([1.0], confidence=1.0)

    def test_describe(self):
        assert "n=2" in summarize([1.0, 2.0]).describe()


class TestGeometricMean:
    def test_basic(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)

    def test_identity(self):
        assert geometric_mean([3.0]) == pytest.approx(3.0)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            geometric_mean([1.0, 0.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nothing"):
            geometric_mean([])


class TestWinLoss:
    def test_counts(self):
        r = win_loss([1.0, 2.0, 3.0], [2.0, 2.0, 2.0])
        assert (r.wins, r.ties, r.losses) == (1, 1, 1)
        assert r.n == 3

    def test_win_rate(self):
        r = win_loss([1.0, 1.0, 3.0], [2.0, 2.0, 2.0])
        assert r.win_rate() == pytest.approx(2 / 3)

    def test_all_ties_win_rate_half(self):
        r = win_loss([1.0], [1.0])
        assert r.win_rate() == 0.5

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            win_loss([1.0], [1.0, 2.0])

    def test_describe(self):
        assert WinLossRecord(2, 1, 0).describe() == "2W-1T-0L"
