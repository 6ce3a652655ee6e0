"""Cross-cutting property-based tests: invariants the metric must satisfy
regardless of instance.

These encode the *semantics* of the robustness metric — monotonicity in the
bounds, covariance under unit changes, dominance relations between systems —
rather than any single closed form.
"""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis", reason="property tests need hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alloc.generators import random_assignments, random_mapping
from repro.alloc.robustness import batch_robustness, robustness
from repro.core.config import SolverConfig
from repro.core.features import FeatureBounds, FeatureSet, PerformanceFeature
from repro.core.impact import AffineImpact
from repro.core.metric import robustness_metric
from repro.core.norms import L2Norm, WeightedL2Norm
from repro.core.perturbation import PerturbationParameter
from repro.engine.cache import RadiusCache, _key_digest
from repro.etcgen import cvb_etc_matrix
from repro.hiperd.generators import generate_system, random_hiperd_mappings
from repro.hiperd.model import HiperDSystem
from repro.hiperd.robustness import robustness as hrobustness

seeds = st.integers(0, 10_000)


class TestMetricMonotonicity:
    @given(seed=seeds)
    @settings(max_examples=20)
    def test_loosening_a_bound_never_decreases_rho(self, seed):
        rng = np.random.default_rng(seed)
        n, m = 4, 3
        coeffs = rng.uniform(0.2, 2.0, size=(m, n))
        origin = rng.uniform(0.0, 1.0, size=n)
        limits = coeffs @ origin + rng.uniform(0.5, 3.0, size=m)
        p = PerturbationParameter("pi", origin)

        def metric(lims):
            fs = FeatureSet(
                PerformanceFeature(f"f{k}", AffineImpact(coeffs[k]), FeatureBounds(upper=lims[k]))
                for k in range(m)
            )
            return robustness_metric(fs, p).value

        base = metric(limits)
        looser = limits.copy()
        looser[int(rng.integers(m))] += rng.uniform(0.1, 2.0)
        assert metric(looser) >= base - 1e-12

    @given(seed=seeds)
    @settings(max_examples=20)
    def test_adding_a_feature_never_increases_rho(self, seed):
        rng = np.random.default_rng(seed)
        n = 3
        origin = rng.uniform(0.0, 1.0, size=n)
        p = PerturbationParameter("pi", origin)
        feats = [
            PerformanceFeature(
                f"f{k}",
                AffineImpact(rng.uniform(0.2, 2.0, size=n)),
                FeatureBounds(upper=10.0),
            )
            for k in range(3)
        ]
        base = robustness_metric(FeatureSet(feats[:2]), p).value
        more = robustness_metric(FeatureSet(feats), p).value
        assert more <= base + 1e-12

    @given(seed=seeds, scale=st.floats(0.1, 10.0))
    @settings(max_examples=20)
    def test_unit_covariance(self, seed, scale):
        """Expressing the parameter in different units (pi' = s pi, impacts
        divided by s) scales rho by exactly s."""
        rng = np.random.default_rng(seed)
        n = 3
        c = rng.uniform(0.2, 2.0, size=n)
        origin = rng.uniform(0.0, 2.0, size=n)
        limit = float(c @ origin) + 1.5
        f1 = FeatureSet([PerformanceFeature("f", AffineImpact(c), FeatureBounds(upper=limit))])
        f2 = FeatureSet(
            [PerformanceFeature("f", AffineImpact(c / scale), FeatureBounds(upper=limit))]
        )
        r1 = robustness_metric(f1, PerturbationParameter("pi", origin)).value
        r2 = robustness_metric(f2, PerturbationParameter("pi", origin * scale)).value
        assert r2 == pytest.approx(scale * r1, rel=1e-9)


class TestAllocationInvariants:
    @given(seed=seeds)
    @settings(max_examples=15)
    def test_increasing_tau_increases_rho(self, seed):
        etc = cvb_etc_matrix(10, 3, seed=seed)
        a = random_assignments(5, 10, 3, seed=seed + 1)
        r_low = batch_robustness(a, etc, 1.1)
        r_high = batch_robustness(a, etc, 1.3)
        assert np.all(r_high >= r_low - 1e-12)

    @given(seed=seeds)
    @settings(max_examples=15)
    def test_rho_bounded_by_makespan_machine_line(self, seed):
        """rho <= (tau - 1) M / sqrt(n(m(C_orig))): the makespan machine's
        radius is an upper bound on the metric (Figure 3's lines)."""
        from repro.alloc.makespan import finishing_times

        etc = cvb_etc_matrix(12, 4, seed=seed)
        mapping = random_mapping(12, 4, seed=seed + 1)
        res = robustness(mapping, etc, 1.2)
        f = finishing_times(mapping, etc)
        j = int(np.argmax(f))
        line = (1.2 - 1.0) * f.max() / np.sqrt(mapping.counts()[j])
        assert res.value <= line + 1e-9

    @given(seed=seeds)
    @settings(max_examples=15)
    def test_permuting_tasks_on_same_machines_preserves_rho(self, seed):
        """Eq. 6 depends only on which tasks share machines via sums, so
        relabeling machines consistently preserves the metric."""
        etc = cvb_etc_matrix(8, 3, seed=seed)
        mapping = random_mapping(8, 3, seed=seed + 1)
        rng = np.random.default_rng(seed + 2)
        perm = rng.permutation(3)
        permuted_assign = perm[mapping.assignment]
        permuted_etc = etc.copy()
        # Move each column to its new machine index.
        inv = np.argsort(perm)
        permuted_etc = etc[:, inv]
        from repro.alloc.mapping import Mapping

        r1 = robustness(mapping, etc, 1.2).value
        r2 = robustness(Mapping(permuted_assign, 3), permuted_etc, 1.2).value
        assert r2 == pytest.approx(r1, rel=1e-12)


class TestHiperdInvariants:
    @pytest.fixture(scope="class")
    def system(self):
        return generate_system(seed=77, n_apps=10, n_paths=6)

    def test_raising_loads_weakly_decreases_rho(self, system):
        lam0 = np.array([100.0, 80.0, 60.0])
        for m in random_hiperd_mappings(system, 10, seed=78):
            r0 = hrobustness(system, m, lam0, apply_floor=False).raw_value
            r1 = hrobustness(system, m, lam0 * 1.2, apply_floor=False).raw_value
            assert r1 <= r0 + 1e-9

    def test_relaxing_latency_limits_weakly_increases_rho(self, system):
        lam0 = np.array([100.0, 80.0, 60.0])
        relaxed = HiperDSystem.from_paths(
            sensors=system.sensors,
            n_apps=system.n_apps,
            n_machines=system.n_machines,
            n_actuators=system.n_actuators,
            paths=system.paths,
            comp_coeffs=system.comp_coeffs,
            latency_limits=system.latency_limits * 2.0,
        )
        for m in random_hiperd_mappings(system, 10, seed=79):
            r0 = hrobustness(system, m, lam0, apply_floor=False).raw_value
            r1 = hrobustness(relaxed, m, lam0, apply_floor=False).raw_value
            assert r1 >= r0 - 1e-9

    def test_floored_rho_is_conservative(self, system):
        lam0 = np.array([100.0, 80.0, 60.0])
        for m in random_hiperd_mappings(system, 10, seed=80):
            res = hrobustness(system, m, lam0)
            assert res.value <= res.raw_value + 1e-12


class TestRadiusInvariants:
    """Eq. 6 radius invariants: unit equivariance, bound monotonicity, norm
    ordering, and engine/scalar parity on generated populations."""

    @given(seed=seeds, scale=st.floats(0.1, 10.0))
    @settings(max_examples=15)
    def test_etc_scale_equivariance(self, seed, scale):
        """Eq. 6 is homogeneous in the ETC entries: multiplying every
        estimated time by s multiplies the radius by exactly s."""
        etc = cvb_etc_matrix(10, 3, seed=seed)
        mapping = random_mapping(10, 3, seed=seed + 1)
        base = robustness(mapping, etc, 1.2).value
        scaled = robustness(mapping, etc * scale, 1.2).value
        assert scaled == pytest.approx(scale * base, rel=1e-9)

    @given(seed=seeds, slack=st.floats(0.1, 5.0))
    @settings(max_examples=20)
    def test_radius_monotone_in_beta_max(self, seed, slack):
        """Raising the tolerated maximum beta_max never shrinks the radius."""
        from repro.core.radius import robustness_radius

        rng = np.random.default_rng(seed)
        n = 3
        c = rng.uniform(0.2, 2.0, size=n)
        origin = rng.uniform(0.0, 1.0, size=n)
        beta_max = float(c @ origin) + 0.5
        p = PerturbationParameter("pi", origin)

        def radius(limit: float) -> float:
            feat = PerformanceFeature(
                "f", AffineImpact(c), FeatureBounds(upper=limit)
            )
            return robustness_radius(feat, p, apply_floor=False).radius

        assert radius(beta_max + slack) >= radius(beta_max) - 1e-12

    @given(seed=seeds)
    @settings(max_examples=20)
    def test_norm_radius_ordering(self, seed):
        """||.||_inf <= ||.||_2 <= ||.||_1 pointwise, so the minimum
        distance to the boundary inherits r_linf <= r_l2 <= r_l1."""
        from repro.core.radius import robustness_radius

        rng = np.random.default_rng(seed)
        n = 3
        c = rng.uniform(0.2, 2.0, size=n)
        origin = rng.uniform(0.0, 1.0, size=n)
        feat = PerformanceFeature(
            "f", AffineImpact(c), FeatureBounds(upper=float(c @ origin) + 1.0)
        )
        p = PerturbationParameter("pi", origin)
        radii = {
            norm: robustness_radius(feat, p, norm=norm, apply_floor=False).radius
            for norm in ("linf", "l2", "l1")
        }
        assert radii["linf"] <= radii["l2"] + 1e-12
        assert radii["l2"] <= radii["l1"] + 1e-12

    @given(seed=seeds)
    @settings(max_examples=10)
    def test_engine_matches_scalar_on_generated_populations(self, seed):
        """The batched engine must agree bit-for-bit with the scalar Eq. 2
        metric on arbitrary generated populations."""
        from repro.core.config import SolverConfig
        from repro.engine import RobustnessEngine

        rng = np.random.default_rng(seed)
        problems = []
        for k in range(4):
            n = int(rng.integers(2, 5))
            origin = rng.uniform(0.1, 1.0, size=n)
            feats = [
                PerformanceFeature(
                    f"f{k}_{i}",
                    AffineImpact(rng.uniform(0.2, 2.0, size=n)),
                    FeatureBounds(upper=rng.uniform(2.0, 6.0) * n),
                )
                for i in range(int(rng.integers(1, 4)))
            ]
            problems.append((feats, PerturbationParameter(f"pi{k}", origin)))

        cfg = SolverConfig(pool_size=0, cache_size=0)
        engine = RobustnessEngine(config=cfg)
        batch = engine.evaluate_population(problems)
        for result, (feats, param) in zip(batch, problems):
            scalar = robustness_metric(feats, param, config=cfg)
            assert result.value == scalar.value  # bit-for-bit
            assert [r.radius for r in result.radii] == [
                r.radius for r in scalar.radii
            ]


# Small value sets, so a drawn pair is often equal in some fields and the
# property sees both sides.  No negative zero: key_for compares floats by
# value (0.0 == -0.0) while the digest hashes their bits, and both are right
# because the solve does not depend on the sign of a zero.
_KEY_FIELDS = {
    "weights": st.none() | st.tuples(*[st.sampled_from([0.5, 1.0, 2.0])] * 2),
    "coeffs": st.tuples(*[st.sampled_from([0.5, 1.0, 2.0])] * 2),
    "intercept": st.sampled_from([0.0, 0.25, 1.0]),
    "bounds": st.sampled_from([(-np.inf, 3.0), (-np.inf, 4.0), (0.0, 3.0), (0.5, np.inf)]),
    "origin": st.tuples(*[st.sampled_from([0.1, 0.2, 1.0])] * 2),
    "config": st.fixed_dictionaries(
        {
            "n_starts": st.sampled_from([1, 4]),
            "seed": st.sampled_from([0, 1, None]),
            "maxiter": st.sampled_from([100, 200]),
            "ftol": st.sampled_from([1e-12, 1e-9]),
        }
    ),
}


@st.composite
def _key_input_pairs(draw):
    """Two solve inputs; the second re-draws one or two fields of the first."""
    a = draw(st.fixed_dictionaries(_KEY_FIELDS))
    b = dict(a)
    for field in draw(st.sets(st.sampled_from(sorted(_KEY_FIELDS)), min_size=1, max_size=2)):
        b[field] = draw(_KEY_FIELDS[field])
    return a, b


def _cache_key(spec: dict) -> tuple:
    feature = PerformanceFeature(
        "phi",
        AffineImpact(np.array(spec["coeffs"]), intercept=spec["intercept"]),
        FeatureBounds(*spec["bounds"]),
    )
    norm = L2Norm() if spec["weights"] is None else WeightedL2Norm(spec["weights"])
    param = PerturbationParameter("pi", np.array(spec["origin"]))
    return RadiusCache().key_for(feature, param, norm, SolverConfig(**spec["config"]))


class TestCacheKeyCollision:
    """Different solve inputs never share a radius-cache key or disk digest;
    equal inputs always share both."""

    @given(pair=_key_input_pairs())
    @settings(max_examples=300)
    def test_key_and_digest_separate_exactly_distinct_inputs(self, pair):
        a, b = pair
        ka, kb = _cache_key(a), _cache_key(b)
        assert (ka == kb) == (a == b)
        assert (_key_digest(ka) == _key_digest(kb)) == (a == b)
