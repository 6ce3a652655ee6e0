"""Tests for repro.core.features: bounds, features, feature sets."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.features import FeatureBounds, FeatureSet, PerformanceFeature
from repro.core.impact import AffineImpact
from repro.exceptions import ValidationError


class TestFeatureBounds:
    def test_contains(self):
        b = FeatureBounds(0.0, 10.0)
        assert b.contains(0.0)
        assert b.contains(10.0)
        assert b.contains(5.0)
        assert not b.contains(-0.1)
        assert not b.contains(10.1)
        assert b.contains(10.05, tol=0.1)

    def test_margin(self):
        b = FeatureBounds(0.0, 10.0)
        assert b.margin(3.0) == 3.0
        assert b.margin(8.0) == 2.0
        assert b.margin(-1.0) == -1.0
        assert b.margin(12.0) == -2.0

    def test_one_sided(self):
        up = FeatureBounds.upper_only(5.0)
        assert up.lower == -np.inf and up.upper == 5.0
        lo = FeatureBounds.lower_only(1.0)
        assert lo.lower == 1.0 and lo.upper == np.inf

    def test_rejects_inverted(self):
        with pytest.raises(ValidationError):
            FeatureBounds(2.0, 1.0)

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            FeatureBounds(np.nan, 1.0)

    def test_frozen(self):
        b = FeatureBounds(0.0, 1.0)
        with pytest.raises(AttributeError):
            b.upper = 2.0  # type: ignore[misc]


class TestPerformanceFeature:
    def test_value_and_satisfaction(self):
        f = PerformanceFeature("F", AffineImpact([1.0, 1.0]), FeatureBounds(0.0, 10.0))
        assert f.value_at([3.0, 4.0]) == 7.0
        assert f.satisfied_at([3.0, 4.0])
        assert not f.satisfied_at([8.0, 8.0])

    def test_accepts_tuple_bounds(self):
        f = PerformanceFeature("F", [1.0], (0.0, 2.0))
        assert isinstance(f.bounds, FeatureBounds)
        assert f.bounds.upper == 2.0

    def test_accepts_coefficient_impact(self):
        f = PerformanceFeature("F", [2.0, 0.0], FeatureBounds(upper=4.0))
        assert isinstance(f.impact, AffineImpact)
        assert f.value_at([1.0, 9.0]) == 2.0

    def test_rejects_empty_name(self):
        with pytest.raises(ValidationError):
            PerformanceFeature("", [1.0], FeatureBounds())


class TestFeatureSet:
    def make(self) -> FeatureSet:
        return FeatureSet(
            [
                PerformanceFeature("A", [1.0, 0.0], FeatureBounds(upper=5.0)),
                PerformanceFeature("B", [0.0, 1.0], FeatureBounds(upper=7.0)),
            ]
        )

    def test_iteration_order_and_lookup(self):
        fs = self.make()
        assert fs.names() == ["A", "B"]
        assert fs["A"].name == "A"
        assert fs[1].name == "B"
        assert "A" in fs and "Z" not in fs
        assert len(fs) == 2

    def test_duplicate_name_rejected(self):
        fs = self.make()
        with pytest.raises(ValidationError):
            fs.add(PerformanceFeature("A", [1.0, 0.0], FeatureBounds()))

    def test_values_at(self):
        fs = self.make()
        np.testing.assert_allclose(fs.values_at([2.0, 3.0]), [2.0, 3.0])

    def test_all_satisfied_and_violations(self):
        fs = self.make()
        assert fs.all_satisfied_at([1.0, 1.0])
        assert fs.violations_at([1.0, 1.0]) == []
        assert not fs.all_satisfied_at([6.0, 1.0])
        assert fs.violations_at([6.0, 8.0]) == ["A", "B"]

    def test_satisfied_rows_matches_pointwise(self, rng):
        fs = self.make()
        fs.add(PerformanceFeature("Q", lambda x: float(x @ x), FeatureBounds(upper=40.0)))
        points = rng.uniform(-2.0, 8.0, size=(50, 2))
        for tol in (0.0, 0.5):
            rows = fs.satisfied_rows(points, tol=tol)
            assert rows.dtype == bool
            assert list(rows) == [fs.all_satisfied_at(p, tol=tol) for p in points]
            assert list(rows) == [not fs.violations_at(p, tol=tol) for p in points]

    def test_rejects_non_feature(self):
        with pytest.raises(ValidationError):
            FeatureSet([42])  # type: ignore[list-item]
