"""Typed solver configuration — the replacement for ``solver_options`` dicts.

Every analysis entry point (:func:`~repro.core.radius.robustness_radius`,
:func:`~repro.core.metric.robustness_metric`, :class:`~repro.core.fepia.
FePIAAnalysis`, the system-specific ``robustness`` functions and the batched
:class:`~repro.engine.RobustnessEngine`) takes a ``config`` keyword holding a
:class:`SolverConfig`: a frozen, validated bundle of solver choice,
numeric-solver tolerances, process-pool sizing and cache sizing.

The historical ``solver_options: dict`` (forwarded blindly to the numeric
solver) has completed its deprecation cycle: the ``solver_options=`` keyword
now raises :class:`~repro.exceptions.ValidationError` with the migration
recipe, while a plain dict passed to ``config=`` is still converted (one
release behind on the same path) under a :class:`DeprecationWarning`.
:func:`resolve_config` implements both shims in one place; the lint rule
R009 flags internal call sites before they reach either.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass

from repro.exceptions import ValidationError

__all__ = ["SolverConfig", "DEFAULT_CONFIG", "resolve_config"]

#: valid values of :attr:`SolverConfig.solver`
_SOLVERS = ("auto", "analytic", "numeric")


@dataclass(frozen=True)
class SolverConfig:
    """Immutable configuration of the robustness solvers.

    Parameters
    ----------
    solver:
        ``"auto"`` (closed form for affine impacts, numeric otherwise),
        ``"analytic"`` (force the closed form; affine impacts only) or
        ``"numeric"`` (force the SLSQP boundary minimization even for affine
        impacts — useful for cross-checks).
    n_starts:
        Number of random multi-start directions of the numeric solver, in
        addition to its gradient warm start.
    seed:
        RNG seed of the multi-start directions (deterministic by default so
        solves are reproducible and cacheable).
    maxiter:
        Iteration cap of each SLSQP solve.
    ftol:
        Objective tolerance of each SLSQP solve.
    pool_size:
        Worker processes used by :class:`~repro.engine.RobustnessEngine` to
        fan out numeric solves (``0`` = solve in-process, no pool).
    cache_size:
        Entries of the engine's LRU boundary-solve cache (``0`` disables
        caching).
    task_timeout:
        Per-attempt wall-clock deadline, in seconds, of one pooled radius
        solve (``None`` = no deadline).  A task that overruns it is abandoned
        (its worker is hung), recorded as a :class:`~repro.exceptions.
        SolverTimeoutError`, and retried with a doubled deadline per the
        engine's :class:`~repro.engine.fault.RetryPolicy`.  Only enforceable
        when a pool is in use — in-process solves cannot be preempted.
    """

    solver: str = "auto"
    n_starts: int = 4
    seed: int | None = 0
    maxiter: int = 200
    ftol: float = 1e-12
    pool_size: int = 0
    cache_size: int = 256
    task_timeout: float | None = None

    def __post_init__(self) -> None:
        if self.solver not in _SOLVERS:
            raise ValidationError(
                f"solver must be one of {_SOLVERS}, got {self.solver!r}"
            )
        if int(self.n_starts) < 0:
            raise ValidationError("n_starts must be >= 0")
        if int(self.maxiter) <= 0:
            raise ValidationError("maxiter must be >= 1")
        if float(self.ftol) <= 0:
            raise ValidationError("ftol must be > 0")
        if int(self.pool_size) < 0:
            raise ValidationError("pool_size must be >= 0")
        if int(self.cache_size) < 0:
            raise ValidationError("cache_size must be >= 0")
        if self.task_timeout is not None:
            timeout = float(self.task_timeout)
            if math.isnan(timeout) or timeout <= 0:
                raise ValidationError(
                    f"task_timeout must be > 0 seconds (or None), got {self.task_timeout!r}"
                )

    def numeric_kwargs(self) -> dict:
        """Keyword arguments for :func:`repro.core.solvers.numeric.boundary_min_norm`."""
        return {
            "n_starts": self.n_starts,
            "seed": self.seed,
            "maxiter": self.maxiter,
            "ftol": self.ftol,
        }

    def replace(self, **changes: object) -> "SolverConfig":
        """A copy with the given fields replaced (validation re-runs)."""
        return dataclasses.replace(self, **changes)

    @classmethod
    def from_options(cls, options: dict) -> "SolverConfig":
        """Build a config from a legacy ``solver_options`` dict.

        Keys must be :class:`SolverConfig` field names; anything else (which
        the old code would have forwarded blindly to the numeric solver and
        crashed on) raises :class:`~repro.exceptions.ValidationError`.
        """
        if not isinstance(options, dict):
            raise ValidationError(
                f"solver options must be a dict, got {type(options).__name__}"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(options) - known)
        if unknown:
            raise ValidationError(
                f"unknown solver option(s) {unknown}; valid keys: {sorted(known)}"
            )
        return cls(**options)


#: the shared default configuration (module-level so identity checks are cheap)
DEFAULT_CONFIG = SolverConfig()

_DICT_MSG = (
    "passing a plain dict of solver options is deprecated; "
    "pass config=SolverConfig(...) instead"
)
_KWARG_MSG = (
    "the solver_options= keyword was removed after its deprecation cycle; "
    "migrate with config=SolverConfig(**solver_options) — "
    "see the migration table in docs/API.md"
)


def resolve_config(
    config: "SolverConfig | dict | None" = None,
    solver_options: dict | None = None,
    *,
    stacklevel: int = 3,
) -> SolverConfig:
    """Normalize the ``config`` / legacy ``solver_options`` pair to a config.

    A :class:`SolverConfig` passes through; ``None`` yields
    :data:`DEFAULT_CONFIG`; a plain dict via ``config=`` is converted with
    :meth:`SolverConfig.from_options` after emitting a
    :class:`DeprecationWarning`.  The ``solver_options=`` keyword completed
    its deprecation cycle and now raises
    :class:`~repro.exceptions.ValidationError` with the migration recipe.
    """
    if solver_options is not None:
        raise ValidationError(_KWARG_MSG)
    if config is None:
        return DEFAULT_CONFIG
    if isinstance(config, SolverConfig):
        return config
    if isinstance(config, dict):
        warnings.warn(_DICT_MSG, DeprecationWarning, stacklevel=stacklevel)
        return SolverConfig.from_options(config)
    raise ValidationError(
        f"config must be a SolverConfig, dict or None, got {type(config).__name__}"
    )
