"""SolverConfig: validation, resolution and the deprecation shim."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FePIAAnalysis
from repro.core.config import DEFAULT_CONFIG, SolverConfig, resolve_config
from repro.exceptions import ValidationError


class TestSolverConfig:
    def test_defaults_match_numeric_solver_defaults(self):
        cfg = SolverConfig()
        assert cfg.numeric_kwargs() == {
            "n_starts": 4,
            "seed": 0,
            "maxiter": 200,
            "ftol": 1e-12,
        }
        assert cfg.solver == "auto"
        assert cfg.pool_size == 0

    def test_frozen(self):
        with pytest.raises(AttributeError):
            SolverConfig().n_starts = 7  # type: ignore[misc]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"solver": "simplex"},
            {"n_starts": -1},
            {"maxiter": -1},
            {"ftol": 0.0},
            {"pool_size": -2},
            {"cache_size": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValidationError):
            SolverConfig(**kwargs)

    def test_replace(self):
        cfg = SolverConfig().replace(n_starts=9)
        assert cfg.n_starts == 9
        assert cfg.maxiter == SolverConfig().maxiter

    def test_from_options_rejects_unknown_keys(self):
        with pytest.raises(ValidationError, match="unknown solver option"):
            SolverConfig.from_options({"nstarts": 3})

    def test_hashable_and_comparable(self):
        assert SolverConfig() == SolverConfig()
        assert hash(SolverConfig(n_starts=2)) == hash(SolverConfig(n_starts=2))


class TestResolveConfig:
    def test_none_gives_default(self):
        assert resolve_config(None, None) is DEFAULT_CONFIG

    def test_passthrough(self):
        cfg = SolverConfig(n_starts=2)
        assert resolve_config(cfg, None) is cfg

    def test_dict_config_warns(self):
        with pytest.warns(DeprecationWarning):
            cfg = resolve_config({"n_starts": 3}, None)
        assert cfg.n_starts == 3

    def test_solver_options_removed(self):
        with pytest.raises(ValidationError, match="solver_options.*SolverConfig"):
            resolve_config(None, {"maxiter": 50})

    def test_both_given_raises(self):
        with pytest.raises(ValidationError):
            resolve_config(SolverConfig(), {"n_starts": 2})

    def test_bad_type_raises(self):
        with pytest.raises(ValidationError):
            resolve_config(42, None)  # type: ignore[arg-type]


class TestShimThroughAnalysis:
    """The removed keyword fails loudly; the dict config shim still works."""

    def _analysis(self):
        return (
            FePIAAnalysis("shim")
            .with_perturbation("x", [0.5, 0.5])
            .add_feature("q", impact=lambda x: float(x @ x), upper=4.0)
        )

    def test_solver_options_raises_with_migration_recipe(self):
        with pytest.raises(ValidationError, match="docs/API.md"):
            self._analysis().analyze(solver_options={"n_starts": 2})

    def test_analytic_solver_rejected_for_callable_impact(self):
        with pytest.raises(ValidationError, match="analytic"):
            self._analysis().analyze(config=SolverConfig(solver="analytic"))

    def test_numeric_solver_forced_on_affine(self):
        analysis = (
            FePIAAnalysis("forced")
            .with_perturbation("x", [1.0, 1.0])
            .add_feature("f", impact=[1.0, 1.0], upper=4.0)
        )
        auto = analysis.analyze()
        forced = analysis.analyze(config=SolverConfig(solver="numeric"))
        assert auto.radii[0].solver == "analytic"
        assert forced.radii[0].solver == "numeric"
        assert forced.value == pytest.approx(auto.value, rel=1e-8)


class TestFaultToleranceKnobs:
    """task_timeout validation (retry settings live on RetryPolicy)."""

    def test_defaults(self):
        assert SolverConfig().task_timeout is None

    def test_valid_values_accepted(self):
        assert SolverConfig(task_timeout=2.5).task_timeout == 2.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"task_timeout": 0.0},
            {"task_timeout": -1.0},
            {"task_timeout": float("nan")},
        ],
        ids=lambda k: "-".join(f"{a}={v}" for a, v in k.items()),
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            SolverConfig(**kwargs)

    def test_knobs_do_not_affect_numeric_kwargs(self):
        # The deadline steers the pool supervisor, not the solver itself, so
        # it must not leak into (and invalidate) radius cache keys.
        assert (
            SolverConfig(task_timeout=1.0).numeric_kwargs()
            == SolverConfig().numeric_kwargs()
        )

    def test_replace_round_trip(self):
        cfg = SolverConfig().replace(task_timeout=0.5)
        assert cfg.task_timeout == 0.5
        with pytest.raises(ValidationError):
            cfg.replace(task_timeout=-0.5)
