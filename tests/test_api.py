"""The stable ``repro.api`` facade: delegation, streaming, curves.

The facade promises bit-for-bit identity with driving the engine directly,
lazy consumption in its streaming form, and — the redesign's acceptance
bar — streaming/eager equivalence on a population far larger than one
chunk (10k problems in 256-problem chunks).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import api, obs
from repro.alloc.generators import random_assignments
from repro.alloc.mapping import Mapping
from repro.core.config import SolverConfig
from repro.core.features import FeatureBounds, PerformanceFeature
from repro.core.impact import AffineImpact
from repro.core.perturbation import PerturbationParameter
from repro.engine import BatchRobustnessResult, RobustnessEngine
from repro.etcgen.cvb import cvb_etc_matrix
from repro.exceptions import ValidationError
from repro.hiperd.generators import (
    PAPER_INITIAL_LOAD,
    generate_system,
    random_hiperd_mappings,
)

PARAM = PerturbationParameter("pi", np.array([0.4, 0.6]))


def _affine_problem(i: int):
    feature = PerformanceFeature(
        f"a_{i}",
        AffineImpact(np.array([1.0, 0.5 + 0.001 * i]), intercept=0.1),
        FeatureBounds.upper_only(3.0),
    )
    return ([feature], PARAM)


@pytest.fixture(scope="module")
def alloc_case():
    etc = cvb_etc_matrix(12, 4, seed=41)
    assignments = random_assignments(8, 12, 4, seed=42)
    return etc, assignments


class TestFacadeDelegation:
    def test_evaluate_matches_engine(self):
        features, param = _affine_problem(0)
        via_api = api.evaluate(features, param)
        direct = RobustnessEngine().evaluate_metric(features, param)
        assert via_api.value == direct.value
        assert via_api.to_dict() == direct.to_dict()

    def test_evaluate_population_matches_engine(self):
        problems = [_affine_problem(i) for i in range(6)]
        via_api = api.evaluate_population(problems)
        direct = RobustnessEngine().evaluate_population(problems)
        assert [m.value for m in via_api] == [m.value for m in direct]

    def test_evaluate_accepts_any_iterable_of_features(self):
        features, param = _affine_problem(0)
        assert api.evaluate(iter(features), param).value == api.evaluate(
            features, param
        ).value

    def test_evaluate_allocation_matches_engine(self, alloc_case):
        etc, assignments = alloc_case
        via_api = api.evaluate_allocation(assignments, etc, 1.2)
        direct = RobustnessEngine().evaluate_allocation(assignments, etc, 1.2)
        assert np.array_equal(via_api.values, direct.values)

    def test_evaluate_hiperd_matches_engine(self):
        system = generate_system(seed=43)
        mappings = random_hiperd_mappings(system, 5, seed=44)
        load = np.asarray(PAPER_INITIAL_LOAD, dtype=float)
        via_api = api.evaluate_hiperd(system, mappings, load)
        direct = RobustnessEngine().evaluate_hiperd(system, mappings, load)
        assert np.array_equal(via_api.values, direct.values)

    def test_backend_keyword_is_honoured(self):
        problems = [_affine_problem(i) for i in range(4)]
        config = SolverConfig(pool_size=2)
        serial = api.evaluate_population(problems, config=config, backend="serial")
        pooled = api.evaluate_population(problems, config=config, backend="process")
        assert [m.value for m in serial] == [m.value for m in pooled]

    def test_closed_form_paths_accept_backend_and_store(self, alloc_case, tmp_path):
        """The facade keyword set is uniform even where the pass is
        closed-form and the backend is inert."""
        etc, assignments = alloc_case
        default = api.evaluate_allocation(assignments, etc, 1.2)
        with_backend = api.evaluate_allocation(
            assignments, etc, 1.2, backend="process", store=tmp_path / "radius.json"
        )
        assert np.array_equal(default.values, with_backend.values)
        curve = api.robustness_curve(assignments, etc, [1.1, 1.2], backend="serial")
        assert np.array_equal(curve.values[1], default.values)

    def test_store_keyword_populates(self, tmp_path):
        path = tmp_path / "radius.json"
        config = SolverConfig(solver="numeric", n_starts=1, seed=1)
        problems = [_affine_problem(i) for i in range(3)]
        cold = api.evaluate_population(problems, config=config, store=path)
        assert path.exists()
        obs.reset_metrics()
        try:
            with obs.observed():
                warm = api.evaluate_population(problems, config=config, store=path)
            events = obs.get_registry().to_json()["repro_cache_events_total"]
        finally:
            obs.reset_metrics()
        assert [(c["labels"], c["value"]) for c in events["children"]] == [
            ({"event": "hit"}, 3.0)
        ]
        assert [m.value for m in warm] == [m.value for m in cold]


class TestStreaming:
    def test_stream_is_lazy(self):
        consumed = []

        def gen():
            for i in range(10):
                consumed.append(i)
                yield _affine_problem(i)

        stream = api.evaluate_stream(gen(), chunk_size=3)
        assert consumed == []  # nothing consumed before the first next()
        first = next(stream)
        assert len(first) == 3
        assert len(consumed) <= 4  # one chunk plus at most one look-ahead

    def test_stream_chunks_merge_to_eager(self):
        problems = [_affine_problem(i) for i in range(10)]
        chunks = list(api.evaluate_stream(problems, chunk_size=4))
        assert [len(c) for c in chunks] == [4, 4, 2]
        merged = BatchRobustnessResult.merge(chunks)
        eager = api.evaluate_population(problems)
        assert [m.value for m in merged] == [m.value for m in eager]

    def test_chunk_size_validated(self):
        with pytest.raises(ValidationError, match="chunk_size"):
            next(api.evaluate_stream([_affine_problem(0)], chunk_size=0))
        with pytest.raises(ValidationError, match="chunk_size"):
            api.evaluate_population([_affine_problem(0)], chunk_size=0)

    def test_streaming_equals_eager_on_10k_population(self):
        # the acceptance bar: 10k problems streamed in 256-problem chunks
        # are bit-for-bit the eager batch (affine solves keep this fast)
        n = 10_000
        eager = api.evaluate_population(_affine_problem(i) for i in range(n))
        streamed = api.evaluate_population(
            (_affine_problem(i) for i in range(n)), chunk_size=256
        )
        assert len(streamed) == len(eager) == n
        assert [m.value for m in streamed] == [m.value for m in eager]
        assert streamed.failures == eager.failures == ()


class TestRobustnessCurve:
    def test_rows_match_single_tau_calls(self, alloc_case):
        etc, assignments = alloc_case
        taus = [1.1, 1.2, 1.5]
        curve = api.robustness_curve(assignments, etc, taus)
        assert len(curve) == 3
        assert curve.values.shape == (3, len(assignments))
        for i, tau in enumerate(taus):
            single = api.evaluate_allocation(assignments, etc, tau)
            assert np.array_equal(curve.values[i], single.values)

    @pytest.mark.parametrize("seed", range(5))
    def test_broadcast_rows_bit_equal_single_tau(self, seed):
        """The one (T, P, m) broadcast equals T single-tau engine passes,
        bit for bit, for Mapping sequences as well as assignment matrices."""
        rng = np.random.default_rng(seed)
        etc = cvb_etc_matrix(12, 4, seed=seed)
        assignments = random_assignments(30, 12, 4, seed=seed + 100)
        taus = np.sort(rng.uniform(1.0, 3.0, size=25))
        mappings = [Mapping(a, 4) for a in assignments]
        for given_mappings in (assignments, mappings):
            curve = api.robustness_curve(given_mappings, etc, taus)
            for row, tau in zip(curve.values, taus):
                single = RobustnessEngine().evaluate_allocation(assignments, etc, float(tau))
                assert row.tobytes() == single.values.tobytes()

    def test_values_decrease_as_tau_tightens(self, alloc_case):
        etc, assignments = alloc_case
        curve = api.robustness_curve(assignments, etc, [1.5, 1.2, 1.05])
        # tighter tolerance can only shrink the robustness metric
        assert np.all(curve.values[0] >= curve.values[1])
        assert np.all(curve.values[1] >= curve.values[2])

    def test_round_trip(self, alloc_case):
        etc, assignments = alloc_case
        curve = api.robustness_curve(assignments, etc, [1.1, 1.3])
        clone = api.RobustnessCurve.from_dict(curve.to_dict())
        assert np.array_equal(clone.taus, curve.taus)
        assert np.array_equal(clone.values, curve.values)

    def test_bad_payload_rejected(self):
        with pytest.raises(ValidationError, match="RobustnessCurve"):
            api.RobustnessCurve.from_dict({"type": "Nope"})

    @pytest.mark.parametrize("taus", [[], [[1.1, 1.2]]])
    def test_bad_taus_rejected(self, taus, alloc_case):
        etc, assignments = alloc_case
        with pytest.raises(ValidationError, match="taus"):
            api.robustness_curve(assignments, etc, taus)

    def test_empty_sweep_raises_clear_error(self, alloc_case):
        etc, assignments = alloc_case
        with pytest.raises(ValidationError, match="non-empty"):
            api.robustness_curve(assignments, etc, [])

    def test_single_point_sweep(self, alloc_case):
        etc, assignments = alloc_case
        curve = api.robustness_curve(assignments, etc, [1.2])
        assert len(curve) == 1
        assert curve.values.shape == (1, len(assignments))
        single = api.evaluate_allocation(assignments, etc, 1.2)
        assert np.array_equal(curve.values[0], single.values)

    @pytest.mark.parametrize(
        "taus",
        [
            [1.1, 1.3, 1.2],  # not monotone
            [1.1, 1.1, 1.2],  # repeated value (not strict)
            [1.5, 1.2, 1.4],  # decreasing then increasing
        ],
    )
    def test_non_monotonic_taus_raise_clear_error(self, taus, alloc_case):
        etc, assignments = alloc_case
        with pytest.raises(ValidationError, match="monotonic"):
            api.robustness_curve(assignments, etc, taus)

    def test_decreasing_sweep_still_allowed(self, alloc_case):
        etc, assignments = alloc_case
        down = api.robustness_curve(assignments, etc, [1.5, 1.2, 1.05])
        up = api.robustness_curve(assignments, etc, [1.05, 1.2, 1.5])
        assert np.array_equal(down.values, up.values[::-1])
