"""Engine solve cache (LRU, value/identity keys) and process-pool fan-out."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    AffineImpact,
    CallableImpact,
    FeatureBounds,
    PerformanceFeature,
    PerturbationParameter,
    SolverConfig,
)
from repro.engine import (
    RadiusCache,
    RobustnessEngine,
    norm_cache_key,
    solve_radius_tasks_isolated,
)
from repro.engine.fault import _batch_chunks
from repro.core.norms import L1Norm, L2Norm, WeightedL2Norm


def _quad(x):
    """Module-level impact (picklable) for the process-pool tests."""
    return float(x @ x)


def _quad_grad(x):
    return 2.0 * np.asarray(x, dtype=float)


def quad_feature(name: str, bound: float) -> PerformanceFeature:
    return PerformanceFeature(
        name,
        CallableImpact(_quad, grad=_quad_grad, name=name, convex=True),
        FeatureBounds(-np.inf, bound),
    )


class TestNormCacheKey:
    def test_value_keys(self):
        assert norm_cache_key(L2Norm()) == norm_cache_key(L2Norm())
        assert norm_cache_key(L1Norm()) != norm_cache_key(L2Norm())
        a = norm_cache_key(WeightedL2Norm([1.0, 2.0]))
        b = norm_cache_key(WeightedL2Norm([1.0, 2.0]))
        c = norm_cache_key(WeightedL2Norm([1.0, 3.0]))
        assert a == b != c


class TestRadiusCache:
    def test_affine_key_is_value_based(self):
        cache = RadiusCache()
        param = PerturbationParameter("x", [1.0, 1.0])
        norm, cfg = L2Norm(), SolverConfig()
        f1 = PerformanceFeature("a", AffineImpact([1.0, 2.0], 0.5), FeatureBounds(-np.inf, 9.0))
        f2 = PerformanceFeature("b", AffineImpact([1.0, 2.0], 0.5), FeatureBounds(-np.inf, 9.0))
        assert cache.key_for(f1, param, norm, cfg) == cache.key_for(f2, param, norm, cfg)
        f3 = PerformanceFeature("c", AffineImpact([1.0, 2.0], 0.6), FeatureBounds(-np.inf, 9.0))
        assert cache.key_for(f1, param, norm, cfg) != cache.key_for(f3, param, norm, cfg)

    def test_key_covers_bounds_origin_norm_and_config(self):
        cache = RadiusCache()
        f = PerformanceFeature("a", AffineImpact([1.0, 2.0]), FeatureBounds(-np.inf, 9.0))
        base = cache.key_for(f, PerturbationParameter("x", [1.0, 1.0]), L2Norm(), SolverConfig())
        other_origin = cache.key_for(
            f, PerturbationParameter("x", [1.0, 2.0]), L2Norm(), SolverConfig()
        )
        other_norm = cache.key_for(
            f, PerturbationParameter("x", [1.0, 1.0]), L1Norm(), SolverConfig()
        )
        other_cfg = cache.key_for(
            f, PerturbationParameter("x", [1.0, 1.0]), L2Norm(), SolverConfig(n_starts=9)
        )
        f_other_bounds = PerformanceFeature(
            "a", AffineImpact([1.0, 2.0]), FeatureBounds(-np.inf, 8.0)
        )
        other_bounds = cache.key_for(
            f_other_bounds, PerturbationParameter("x", [1.0, 1.0]), L2Norm(), SolverConfig()
        )
        assert len({base, other_origin, other_norm, other_cfg, other_bounds}) == 5

    def test_callable_key_is_identity_based(self):
        cache = RadiusCache()
        param = PerturbationParameter("x", [1.0, 1.0])
        f1 = quad_feature("q", 4.0)
        f2 = quad_feature("q", 4.0)  # distinct CallableImpact objects
        k1 = cache.key_for(f1, param, L2Norm(), SolverConfig())
        k2 = cache.key_for(f2, param, L2Norm(), SolverConfig())
        assert k1 != k2
        assert cache.key_for(f1, param, L2Norm(), SolverConfig()) == k1

    def test_lru_eviction(self):
        cache = RadiusCache(maxsize=2)
        results = [object(), object(), object()]
        cache.put(("k1",), results[0])
        cache.put(("k2",), results[1])
        assert cache.get(("k1",)) is results[0]  # refresh k1
        cache.put(("k3",), results[2])  # evicts k2
        assert cache.get(("k2",)) is None
        assert cache.get(("k1",)) is results[0]
        assert cache.get(("k3",)) is results[2]

    def test_disabled_cache(self):
        cache = RadiusCache(maxsize=0)
        cache.put(("k",), object())
        assert cache.get(("k",)) is None
        assert len(cache) == 0

    def test_engine_cache_hits_across_calls(self):
        engine = RobustnessEngine()
        feats = [quad_feature("q", 4.0)]
        param = PerturbationParameter("x", [0.5, 0.5])
        first = engine.evaluate_metric(feats, param)
        assert engine.cache.stats()["misses"] == 1
        second = engine.evaluate_metric(feats, param)
        assert engine.cache.stats()["hits"] == 1
        assert first.value == second.value

    def test_cache_relabels_feature_names(self):
        """One solve serves identical features under different names."""
        engine = RobustnessEngine()
        param = PerturbationParameter("x", [1.0, 1.0])
        f1 = PerformanceFeature("first", AffineImpact([1.0, 1.0]), FeatureBounds(-np.inf, 4.0))
        cfg = SolverConfig(solver="numeric")
        engine_num = RobustnessEngine(config=cfg)
        r1 = engine_num.evaluate_metric([f1], param)
        f2 = PerformanceFeature("second", AffineImpact([1.0, 1.0]), FeatureBounds(-np.inf, 4.0))
        r2 = engine_num.evaluate_metric([f2], param)
        assert engine_num.cache.stats()["hits"] == 1
        assert r2.radii[0].feature == "second"
        assert r2.radii[0].radius == r1.radii[0].radius

    def test_cache_size_zero_disables(self):
        engine = RobustnessEngine(config=SolverConfig(cache_size=0))
        feats = [quad_feature("q", 4.0)]
        param = PerturbationParameter("x", [0.5, 0.5])
        engine.evaluate_metric(feats, param)
        engine.evaluate_metric(feats, param)
        assert engine.cache.stats()["hits"] == 0
        assert engine.cache.stats()["misses"] == 2


class TestPool:
    def test_default_chunksize(self):
        # about four chunks per worker: 100 tasks over 4 workers -> size 7
        chunks = _batch_chunks(100, 4)
        assert chunks[0] == (0, 7)
        assert chunks[-1] == (98, 100)
        assert len(chunks) == 15
        assert _batch_chunks(1, 8) == [(0, 1)]

    def test_serial_matches_pooled(self):
        """Pooled solves return exactly what the serial path returns."""
        param = PerturbationParameter("x", [0.5, 0.5])
        feats = [quad_feature(f"q{i}", 4.0 + i) for i in range(6)]
        serial_cfg = SolverConfig(pool_size=0)
        pooled_cfg = SolverConfig(pool_size=2)
        tasks_s = [(f, param, L2Norm(), serial_cfg) for f in feats]
        tasks_p = [(f, param, L2Norm(), pooled_cfg) for f in feats]
        serial, _ = solve_radius_tasks_isolated(tasks_s, serial_cfg, on_error="raise")
        pooled, _ = solve_radius_tasks_isolated(tasks_p, pooled_cfg, on_error="raise")
        for a, b in zip(serial, pooled):
            assert a.radius == b.radius
            assert np.array_equal(a.boundary_point, b.boundary_point)

    def test_unpicklable_falls_back_to_serial(self):
        param = PerturbationParameter("x", [0.5, 0.5])
        local = lambda x: float(x @ x)  # noqa: E731 — deliberately unpicklable
        f = PerformanceFeature(
            "q", CallableImpact(local, name="q", convex=True), FeatureBounds(-np.inf, 4.0)
        )
        cfg = SolverConfig(pool_size=2)
        results, _ = solve_radius_tasks_isolated(
            [(f, param, L2Norm(), cfg)] * 2, cfg, on_error="raise"
        )
        assert len(results) == 2
        assert results[0].radius == results[1].radius

    def test_engine_with_pool_matches_serial_engine(self):
        param = PerturbationParameter("x", [0.5, 0.5])
        feats = [quad_feature(f"q{i}", 4.0 + 0.5 * i) for i in range(4)]
        serial = RobustnessEngine().evaluate_metric(feats, param)
        pooled = RobustnessEngine(
            config=SolverConfig(pool_size=2)
        ).evaluate_metric(feats, param)
        assert pooled.value == serial.value
        for a, b in zip(pooled.radii, serial.radii):
            assert a.radius == b.radius
