"""Accuracy, mergeability and validation of repro.telemetry's sketch."""

import math

import numpy as np
import pytest

from repro.telemetry import QuantileSketch

QUANTILES = (0.01, 0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 0.999)


def rank_error(sketch, values, q):
    """|rank(estimate) - q·n| / n for the sketch's q-quantile estimate."""
    estimate = sketch.quantile(q)
    ordered = np.sort(values)
    lo = np.searchsorted(ordered, estimate, side="left")
    hi = np.searchsorted(ordered, estimate, side="right")
    target = q * len(ordered)
    if lo <= target <= hi:
        return 0.0
    return min(abs(lo - target), abs(hi - target)) / len(ordered)


def max_rank_error(sketch, values):
    return max(rank_error(sketch, values, q) for q in QUANTILES)


class TestSketchAccuracy:
    """Rank error <= 1% vs np.percentile on the mandated stream shapes."""

    N = 100_000

    def _check(self, values):
        sketch = QuantileSketch(capacity=1024)
        sketch.extend(values)
        assert sketch.count == len(values)
        assert max_rank_error(sketch, values) <= 0.01

    def test_uniform_stream(self):
        rng = np.random.default_rng(0)
        self._check(rng.uniform(0.0, 1.0, self.N))

    def test_heavy_tailed_stream(self):
        rng = np.random.default_rng(1)
        self._check(rng.lognormal(mean=0.0, sigma=2.5, size=self.N))

    def test_adversarial_sorted_ascending(self):
        self._check(np.arange(self.N, dtype=np.float64))

    def test_adversarial_sorted_descending(self):
        self._check(np.arange(self.N, dtype=np.float64)[::-1])

    def test_min_max_exact(self):
        rng = np.random.default_rng(2)
        values = rng.normal(size=self.N)
        sketch = QuantileSketch()
        sketch.extend(values)
        assert sketch.quantile(0.0) == values.min()
        assert sketch.quantile(1.0) == values.max()
        assert sketch.percentile(0) == values.min()
        assert sketch.percentile(100) == values.max()

    def test_small_stream_is_exact(self):
        values = np.array([5.0, 1.0, 3.0, 2.0, 4.0])
        sketch = QuantileSketch(capacity=8)
        sketch.extend(values)
        assert sketch.quantile(0.5) == 3.0

    def test_footprint_bounded(self):
        sketch = QuantileSketch(capacity=256)
        sketch.extend(np.arange(200_000, dtype=np.float64))
        levels = math.log2(200_000 / 256) + 2
        assert sketch.footprint <= 256 * levels


class TestSketchMerge:
    """merge() must answer like a sketch of the concatenated stream."""

    def test_merge_equivalent_to_concatenate(self):
        rng = np.random.default_rng(3)
        shards = [rng.lognormal(sigma=2.0, size=40_000) for _ in range(6)]
        merged = QuantileSketch(capacity=1024)
        for shard in shards:
            piece = QuantileSketch(capacity=1024)
            piece.extend(shard)
            merged.merge(piece)
        everything = np.concatenate(shards)
        assert merged.count == len(everything)
        assert merged.min == everything.min()
        assert merged.max == everything.max()
        assert max_rank_error(merged, everything) <= 0.01

    def test_merge_empty_and_into_empty(self):
        full = QuantileSketch()
        full.extend([1.0, 2.0, 3.0])
        empty = QuantileSketch()
        empty.merge(full)
        assert empty.count == 3
        assert empty.quantile(0.5) == 2.0
        full.merge(QuantileSketch())
        assert full.count == 3

    def test_merge_returns_self_and_type_checked(self):
        sketch = QuantileSketch()
        assert sketch.merge(QuantileSketch()) is sketch
        with pytest.raises(TypeError):
            sketch.merge([1.0, 2.0])

    def test_deterministic_replay(self):
        rng = np.random.default_rng(4)
        values = rng.uniform(size=50_000)
        a, b = QuantileSketch(), QuantileSketch()
        a.extend(values)
        b.extend(values)
        assert [a.quantile(q) for q in QUANTILES] == \
               [b.quantile(q) for q in QUANTILES]


class TestSketchValidation:
    def test_empty_query_raises(self):
        with pytest.raises(ValueError, match="empty"):
            QuantileSketch().quantile(0.5)

    def test_bad_q_raises(self):
        sketch = QuantileSketch()
        sketch.add(1.0)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            sketch.quantile(1.5)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            sketch.quantile(-0.1)

    def test_non_finite_rejected(self):
        sketch = QuantileSketch()
        with pytest.raises(ValueError, match="finite"):
            sketch.add(math.nan)
        with pytest.raises(ValueError, match="finite"):
            sketch.add(math.inf)

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            QuantileSketch(capacity=4)
        with pytest.raises(ValueError):
            QuantileSketch(capacity=9)

