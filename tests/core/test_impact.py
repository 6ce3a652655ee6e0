"""Tests for repro.core.impact: evaluation, composition, gradients."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.impact import (
    AffineImpact,
    CallableImpact,
    ScaledImpact,
    SumImpact,
    affine_sum,
    as_impact,
)
from repro.exceptions import ValidationError

vec = hnp.arrays(dtype=float, shape=4, elements=st.floats(-1e3, 1e3, allow_nan=False))


class TestAffineImpact:
    @given(c=vec, x=vec, b=st.floats(-1e3, 1e3, allow_nan=False))
    def test_evaluates_dot_plus_intercept(self, c, x, b):
        imp = AffineImpact(c, b)
        assert imp(x) == pytest.approx(float(c @ x + b), rel=1e-12, abs=1e-9)

    def test_gradient_is_coefficients(self):
        imp = AffineImpact([1.0, 2.0, 3.0])
        g = imp.gradient(np.zeros(3))
        np.testing.assert_allclose(g, [1.0, 2.0, 3.0])
        # returned gradient must be a copy (mutation-safe)
        g[0] = 99.0
        np.testing.assert_allclose(imp.coefficients, [1.0, 2.0, 3.0])

    def test_batch_matches_scalar(self, rng):
        imp = AffineImpact(rng.standard_normal(5), 2.5)
        pis = rng.standard_normal((20, 5))
        batch = imp.batch(pis)
        for k in range(20):
            assert batch[k] == pytest.approx(imp(pis[k]), rel=1e-12)

    def test_dimension_mismatch_raises(self):
        imp = AffineImpact([1.0, 2.0])
        with pytest.raises(ValidationError):
            imp(np.ones(3))
        with pytest.raises(ValidationError):
            imp.batch(np.ones((4, 3)))  # rows of the wrong width
        with pytest.raises(ValidationError):
            imp.batch(np.ones(2))  # a vector is not a matrix of rows

    def test_base_batch_is_the_row_loop(self, rng):
        imp = CallableImpact(lambda x: float(x @ x))
        pis = rng.standard_normal((6, 3))
        np.testing.assert_array_equal(imp.batch(pis), [imp(p) for p in pis])

    def test_is_affine(self):
        assert AffineImpact([1.0]).is_affine
        assert not CallableImpact(lambda x: float(x[0] ** 2)).is_affine

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            AffineImpact([np.nan, 1.0])
        with pytest.raises(ValidationError):
            AffineImpact([1.0], intercept=np.inf)


class TestComposition:
    def test_affine_plus_affine_stays_affine(self):
        s = AffineImpact([1.0, 0.0], 1.0) + AffineImpact([0.0, 2.0], 2.0)
        assert isinstance(s, AffineImpact)
        np.testing.assert_allclose(s.coefficients, [1.0, 2.0])
        assert s.intercept == 3.0

    def test_scalar_times_affine_stays_affine(self):
        s = 2.0 * AffineImpact([1.0, 3.0], 0.5)
        assert isinstance(s, AffineImpact)
        np.testing.assert_allclose(s.coefficients, [2.0, 6.0])
        assert s.intercept == 1.0

    def test_sum_with_nonaffine(self):
        quad = CallableImpact(lambda x: float(x @ x), grad=lambda x: 2 * x)
        s = AffineImpact([1.0, 1.0]) + quad
        assert isinstance(s, SumImpact)
        x = np.array([1.0, 2.0])
        assert s(x) == pytest.approx(3.0 + 5.0)
        np.testing.assert_allclose(s.gradient(x), [1.0 + 2.0, 1.0 + 4.0])

    def test_scaled_nonaffine(self):
        quad = CallableImpact(lambda x: float(x @ x), grad=lambda x: 2 * x)
        s = 3.0 * quad
        assert isinstance(s, ScaledImpact)
        x = np.array([1.0, 1.0])
        assert s(x) == pytest.approx(6.0)
        np.testing.assert_allclose(s.gradient(x), [6.0, 6.0])

    def test_sum_gradient_none_when_term_lacks_gradient(self):
        nog = CallableImpact(lambda x: float(x[0]))
        s = SumImpact([nog, AffineImpact([1.0])])
        assert s.gradient(np.array([1.0])) is None

    def test_sum_requires_terms(self):
        with pytest.raises(ValidationError):
            SumImpact([])


class TestAsImpact:
    def test_passthrough(self):
        imp = AffineImpact([1.0])
        assert as_impact(imp) is imp

    def test_array_becomes_affine(self):
        imp = as_impact([1.0, 2.0])
        assert isinstance(imp, AffineImpact)

    def test_callable_becomes_callable_impact(self):
        imp = as_impact(lambda x: float(x.sum()))
        assert isinstance(imp, CallableImpact)
        assert imp(np.array([1.0, 2.0])) == 3.0


class TestAffineSum:
    def test_sums_coefficients_and_intercepts(self, rng):
        imps = [AffineImpact(rng.standard_normal(3), float(rng.standard_normal())) for _ in range(5)]
        total = affine_sum(imps)
        x = rng.standard_normal(3)
        assert total(x) == pytest.approx(sum(i(x) for i in imps), rel=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            affine_sum([])

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValidationError):
            affine_sum([AffineImpact([1.0]), AffineImpact([1.0, 2.0])])
