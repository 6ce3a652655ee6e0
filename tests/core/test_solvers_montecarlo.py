"""Tests for Monte-Carlo radius estimation and validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.features import FeatureBounds, FeatureSet, PerformanceFeature
from repro.core.impact import AffineImpact, CallableImpact
from repro.core.metric import robustness_metric
from repro.core.norms import L1Norm, L2Norm, LInfNorm, WeightedL2Norm
from repro.core.perturbation import PerturbationParameter
from repro.core.solvers.montecarlo import (
    SAMPLE_CHUNK,
    estimate_radius_mc,
    ray_crossings,
    sample_ball,
    sample_directions,
    validate_radius,
)
from repro.exceptions import ValidationError


def _affine_set():
    return FeatureSet(
        [
            PerformanceFeature("A", AffineImpact([1.0, 0.0]), FeatureBounds(upper=5.0)),
            PerformanceFeature("B", AffineImpact([0.0, 1.0]), FeatureBounds(upper=3.0)),
            PerformanceFeature("C", AffineImpact([1.0, 1.0]), FeatureBounds(upper=6.0)),
        ]
    )


def _scalar_ray_crossing(features, origin, direction, *, max_scale, tol):
    """The one-ray-at-a-time search the batched kernel replaced (reference
    oracle): returns the midpoint of the final bracket."""
    lo, hi = 0.0, None
    scale = 1.0
    while scale <= max_scale:
        if not features.all_satisfied_at(origin + scale * direction):
            hi = scale
            break
        lo = scale
        scale *= 2.0
    if hi is None:
        return np.inf
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if features.all_satisfied_at(origin + mid * direction):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestSampler:
    @pytest.mark.parametrize("k", [5, SAMPLE_CHUNK + 10])
    def test_directions_are_prefix_stable(self, k):
        # More directions never loosen the estimate: a longer draw extends a
        # shorter one, also past a chunk boundary.
        long = sample_directions(np.random.default_rng(3), SAMPLE_CHUNK + 100, 3)
        short = sample_directions(np.random.default_rng(3), k, 3)
        np.testing.assert_array_equal(long[:k], short)

    @pytest.mark.parametrize(
        "norm",
        [L1Norm(), L2Norm(), LInfNorm(), WeightedL2Norm([1.0, 4.0, 0.25, 2.0])],
        ids=lambda n: n.name,
    )
    def test_ball_points_strictly_inside(self, norm):
        points = sample_ball(np.random.default_rng(4), 2000, 4, 2.5, norm)
        sizes = np.array([norm(p) for p in points])
        assert points.shape == (2000, 4)
        assert np.all(sizes < 2.5)
        assert sizes.max() > 2.0  # the whole ball is exercised, not a core

    def test_directions_have_unit_norm(self):
        norm = WeightedL2Norm([1.0, 9.0])
        d = sample_directions(np.random.default_rng(5), 64, 2, norm)
        np.testing.assert_allclose([norm(row) for row in d], 1.0, rtol=1e-12)

    @pytest.mark.parametrize(
        "features",
        [
            _affine_set(),
            # the disc ||pi||^2 <= 4 cut by the half-space x <= 1.5, so rays
            # toward +x cross the line and the others the circle
            FeatureSet(
                [
                    PerformanceFeature(
                        "Q", CallableImpact(lambda x: float(x @ x)), FeatureBounds(upper=4.0)
                    ),
                    PerformanceFeature("H", AffineImpact([1.0, 0.0]), FeatureBounds(upper=1.5)),
                ]
            ),
            # only x <= 5 is bounded: rays pointing away never cross (inf)
            FeatureSet(
                [PerformanceFeature("A", AffineImpact([1.0, 0.0]), FeatureBounds(upper=5.0))]
            ),
        ],
        ids=["affine", "callable", "unbounded-side"],
    )
    def test_batched_crossings_match_scalar_search(self, features):
        origin = np.array([1.0, 0.5])
        directions = sample_directions(np.random.default_rng(6), 48, 2)
        tol = 1e-9
        got = ray_crossings(
            features.satisfied_rows, origin, directions, max_scale=1e6, tol=tol
        )
        want = np.array(
            [
                _scalar_ray_crossing(features, origin, d, max_scale=1e6, tol=tol)
                for d in directions
            ]
        )
        np.testing.assert_array_equal(np.isinf(got), np.isinf(want))
        finite = np.isfinite(want)
        assert np.all(np.abs(got[finite] - want[finite]) <= tol * np.maximum(1.0, got[finite]))
        if features.names() == ["A"]:
            assert np.isinf(got).any() and np.isfinite(got).any()


class TestEstimateRadiusMC:
    def test_overestimates_and_converges_from_above(self):
        fs = _affine_set()
        origin = np.array([1.0, 1.0])
        exact = robustness_metric(fs, PerturbationParameter("pi", origin)).value
        est_small = estimate_radius_mc(fs, origin, n_directions=16, seed=0)
        est_big = estimate_radius_mc(fs, origin, n_directions=1024, seed=0)
        assert est_small >= exact - 1e-9
        assert est_big >= exact - 1e-9
        assert est_big <= est_small + 1e-9  # more directions can only tighten
        assert est_big == pytest.approx(exact, rel=0.15)

    def test_spherical_region_estimated_tightly(self):
        # For f = ||pi||^2 <= 4 every direction crosses at 2, so even a few
        # directions give the exact radius.
        fs = FeatureSet(
            [
                PerformanceFeature(
                    "Q", CallableImpact(lambda x: float(x @ x)), FeatureBounds(upper=4.0)
                )
            ]
        )
        est = estimate_radius_mc(fs, np.zeros(3), n_directions=8, seed=1)
        assert est == pytest.approx(2.0, rel=1e-6)

    def test_unbounded_region_gives_inf(self):
        fs = FeatureSet(
            [PerformanceFeature("F", AffineImpact([1.0, 1.0]), FeatureBounds())]
        )
        assert estimate_radius_mc(fs, np.zeros(2), n_directions=4, seed=2, max_scale=1e6) == np.inf

    def test_tiny_radius_is_not_underestimated(self):
        # The bound sits 4.6e-9 above the origin, below the bisection's
        # absolute width (1e-9 at scale 1): the estimate must still be the
        # violating end of the bracket, never below the exact radius.
        exact = 4.6e-9
        fs = FeatureSet(
            [PerformanceFeature("F", AffineImpact([1.0]), FeatureBounds(upper=exact))]
        )
        est = estimate_radius_mc(fs, np.zeros(1), n_directions=8, seed=0)
        assert exact <= est <= exact + 1e-9

    def test_infeasible_origin_rejected(self):
        fs = _affine_set()
        with pytest.raises(ValidationError):
            estimate_radius_mc(fs, np.array([10.0, 10.0]), n_directions=4)

    @pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan"), float("inf")])
    def test_non_positive_or_non_finite_tol_rejected(self, tol):
        # With tol <= 0 the bisection bracket never gets narrow enough and the
        # search would never end; the kernel refuses such a tol up front.
        fs = _affine_set()
        with pytest.raises(ValidationError, match="tol"):
            estimate_radius_mc(fs, np.zeros(2), n_directions=4, seed=0, tol=tol)
        with pytest.raises(ValidationError, match="tol"):
            ray_crossings(
                fs.satisfied_rows, np.zeros(2), np.eye(2), max_scale=1e3, tol=tol
            )


class TestValidateRadius:
    def test_exact_radius_is_sound_and_tight(self):
        fs = _affine_set()
        origin = np.array([1.0, 1.0])
        res = robustness_metric(fs, PerturbationParameter("pi", origin))
        report = validate_radius(
            fs,
            origin,
            res.value,
            n_samples=128,
            seed=3,
            boundary_point=res.boundary_point,
        )
        assert report.sound
        assert report.tight
        assert report.interior_violations == 0
        assert report.min_crossing == pytest.approx(res.value, rel=1e-6)

    def test_inflated_radius_flagged_unsound(self):
        fs = _affine_set()
        origin = np.array([1.0, 1.0])
        res = robustness_metric(fs, PerturbationParameter("pi", origin))
        report = validate_radius(fs, origin, res.value * 3.0, n_samples=256, seed=4)
        assert not report.sound
        assert report.interior_violations > 0

    def test_understated_radius_flagged_loose(self):
        fs = _affine_set()
        origin = np.array([1.0, 1.0])
        res = robustness_metric(fs, PerturbationParameter("pi", origin))
        report = validate_radius(
            fs,
            origin,
            res.value * 0.2,
            n_samples=64,
            seed=5,
            boundary_point=res.boundary_point,
        )
        assert report.sound  # a too-small radius is still sound
        assert not report.tight  # ...but not tight

    def test_rejects_bad_radius(self):
        fs = _affine_set()
        with pytest.raises(ValidationError):
            validate_radius(fs, np.array([1.0, 1.0]), -1.0)
        with pytest.raises(ValidationError):
            validate_radius(fs, np.array([1.0, 1.0]), np.inf)
