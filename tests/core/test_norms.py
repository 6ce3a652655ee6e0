"""Tests for repro.core.norms: norm axioms, duality, hyperplane projections."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.norms import L1Norm, L2Norm, LInfNorm, Norm, WeightedL2Norm, get_norm
from repro.exceptions import ValidationError

ALL_NORMS = [L2Norm(), L1Norm(), LInfNorm(), WeightedL2Norm([1.0, 2.0, 0.5])]

vectors3 = hnp.arrays(
    dtype=float,
    shape=3,
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


@pytest.mark.parametrize("norm", ALL_NORMS, ids=lambda n: n.name)
class TestNormAxioms:
    @given(x=vectors3)
    def test_nonnegative(self, norm: Norm, x):
        assert norm(x) >= 0.0

    @given(x=vectors3)
    def test_zero_iff_zero(self, norm: Norm, x):
        assert norm(np.zeros(3)) == 0.0
        if np.any(np.abs(x) > 1e-100):  # avoid float underflow of x*x
            assert norm(x) > 0.0

    @given(x=vectors3, t=st.floats(-100, 100, allow_nan=False))
    def test_homogeneous(self, norm: Norm, x, t):
        assert norm(t * x) == pytest.approx(abs(t) * norm(x), rel=1e-9, abs=1e-9)

    def test_rows_match_per_row_calls(self, norm: Norm, rng):
        x = rng.standard_normal((7, 3)) * 100.0
        np.testing.assert_allclose(norm.rows(x), [norm(row) for row in x], rtol=1e-12)

    @given(x=vectors3, y=vectors3)
    def test_triangle_inequality(self, norm: Norm, x, y):
        assert norm(x + y) <= norm(x) + norm(y) + 1e-9 * (1 + norm(x) + norm(y))

    @given(x=vectors3, c=vectors3)
    def test_hoelder_inequality(self, norm: Norm, x, c):
        # |c . x| <= ||c||_* ||x||  — the inequality behind the hyperplane
        # distance formula.
        lhs = abs(float(np.dot(c, x)))
        rhs = norm.dual(c) * norm(x)
        assert lhs <= rhs * (1 + 1e-9) + 1e-9


@pytest.mark.parametrize("norm", ALL_NORMS, ids=lambda n: n.name)
class TestHyperplaneProjection:
    @given(c=vectors3, x0=vectors3, d=st.floats(-1e5, 1e5, allow_nan=False))
    def test_projection_lies_on_hyperplane(self, norm: Norm, c, x0, d):
        if np.max(np.abs(c)) < 1e-3:  # avoid ill-conditioned projections
            return
        p = norm.closest_point_on_hyperplane(c, d, x0)
        scale = max(1.0, abs(d), float(np.max(np.abs(c)) * np.max(np.abs(x0) + 1)))
        assert float(c @ p) == pytest.approx(d, abs=1e-6 * scale)

    @given(c=vectors3, x0=vectors3, d=st.floats(-1e5, 1e5, allow_nan=False))
    def test_projection_distance_matches_formula(self, norm: Norm, c, x0, d):
        if np.max(np.abs(c)) < 1e-3:  # avoid ill-conditioned projections
            return
        p = norm.closest_point_on_hyperplane(c, d, x0)
        dist = abs(norm.distance_to_hyperplane(c, d, x0))
        assert norm(p - x0) == pytest.approx(dist, rel=1e-6, abs=1e-9)

    @given(c=vectors3, x0=vectors3, d=st.floats(-1e3, 1e3, allow_nan=False), probe=vectors3)
    def test_projection_is_minimal(self, norm: Norm, c, x0, d, probe):
        # No other point of the hyperplane may be closer than the projection.
        if np.max(np.abs(c)) < 1e-3:  # avoid ill-conditioned projections
            return
        p = norm.closest_point_on_hyperplane(c, d, x0)
        # Build a feasible probe point by projecting the probe onto the plane
        # with the *l2* projection (any feasible point works for the bound).
        cc = float(np.dot(c, c))
        q = probe + ((d - float(np.dot(c, probe))) / cc) * c
        assert norm(p - x0) <= norm(q - x0) * (1 + 1e-9) + 1e-9


class TestSignedDistance:
    def test_sign_positive_below_upper_bound(self):
        norm = L2Norm()
        # c.x0 = 2 < d = 5 -> positive distance (robust side of upper bound)
        assert norm.distance_to_hyperplane(np.array([1.0, 1.0]), 5.0, np.array([1.0, 1.0])) > 0

    def test_sign_negative_beyond(self):
        norm = L2Norm()
        assert norm.distance_to_hyperplane(np.array([1.0, 1.0]), 1.0, np.array([1.0, 1.0])) < 0

    def test_l2_distance_matches_textbook_formula(self):
        # Point-to-plane distance |a.x0 - d| / ||a||  ([23] in the paper).
        rng = np.random.default_rng(0)
        for _ in range(100):
            c = rng.standard_normal(4)
            x0 = rng.standard_normal(4)
            d = rng.standard_normal()
            got = L2Norm().distance_to_hyperplane(c, d, x0)
            want = (d - c @ x0) / np.linalg.norm(c)
            assert got == pytest.approx(want, rel=1e-12)

    def test_degenerate_zero_normal(self):
        norm = L2Norm()
        z = np.zeros(3)
        assert norm.distance_to_hyperplane(z, 1.0, np.ones(3)) == np.inf
        assert norm.distance_to_hyperplane(z, -1.0, np.ones(3)) == -np.inf
        assert norm.distance_to_hyperplane(z, 0.0, np.ones(3)) == 0.0


class TestWeightedL2:
    def test_reduces_to_l2_with_unit_weights(self):
        w = WeightedL2Norm(np.ones(5))
        l2 = L2Norm()
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.standard_normal(5)
            assert w(x) == pytest.approx(l2(x), rel=1e-12)
            assert w.dual(x) == pytest.approx(l2.dual(x), rel=1e-12)

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValidationError):
            WeightedL2Norm([1.0, 0.0])
        with pytest.raises(ValidationError):
            WeightedL2Norm([1.0, -2.0])

    def test_rejects_dimension_mismatch(self):
        w = WeightedL2Norm([1.0, 2.0])
        with pytest.raises(ValidationError):
            w(np.ones(3))


class TestSteepestDirections:
    @pytest.mark.parametrize("norm", ALL_NORMS, ids=lambda n: n.name)
    def test_unit_and_attains_dual(self, norm: Norm):
        rng = np.random.default_rng(7)
        for _ in range(25):
            c = rng.standard_normal(3)
            u = norm.unit_steepest_direction(c)
            assert norm(u) == pytest.approx(1.0, rel=1e-9)
            assert float(c @ u) == pytest.approx(norm.dual(c), rel=1e-9)

    def test_zero_vector_rejected(self):
        for norm in ALL_NORMS:
            with pytest.raises(ValidationError):
                norm.unit_steepest_direction(np.zeros(3))


class TestGetNorm:
    def test_names(self):
        assert isinstance(get_norm("l2"), L2Norm)
        assert isinstance(get_norm("euclidean"), L2Norm)
        assert isinstance(get_norm("L1"), L1Norm)
        assert isinstance(get_norm("linf"), LInfNorm)

    def test_none_is_l2(self):
        assert isinstance(get_norm(None), L2Norm)

    def test_instance_passthrough(self):
        n = WeightedL2Norm([1.0, 2.0])
        assert get_norm(n) is n

    def test_unknown_raises(self):
        with pytest.raises(ValidationError):
            get_norm("l7")
