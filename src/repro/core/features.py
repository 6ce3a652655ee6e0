"""Performance features and their tolerable-variation bounds — FePIA step 1.

A *performance feature* ``phi_i`` is a scalar system quantity whose variation
must stay within a tolerable interval ``<beta_i_min, beta_i_max>`` for the
system to be considered robust (paper Section 2, step 1).  Here a feature
bundles a name, that interval (:class:`FeatureBounds`), and the impact
function (step 3) that expresses the feature in terms of the perturbation
parameter.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from repro.core.impact import ImpactFunction, as_impact
from repro.exceptions import ValidationError

__all__ = ["FeatureBounds", "PerformanceFeature", "FeatureSet"]


@dataclass(frozen=True)
class FeatureBounds:
    """The tuple ``<beta_min, beta_max>`` of tolerable variation.

    Either end may be infinite (``-inf`` / ``+inf``) when the requirement only
    bounds one side — e.g. the makespan example bounds finishing times above
    by ``tau * M_orig`` and below by 0.
    """

    lower: float = -np.inf
    upper: float = np.inf

    def __post_init__(self) -> None:
        lower = float(self.lower)
        upper = float(self.upper)
        if np.isnan(lower) or np.isnan(upper):
            raise ValidationError("bounds must not be NaN")
        if lower > upper:
            raise ValidationError(f"lower bound {lower} exceeds upper bound {upper}")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @classmethod
    def upper_only(cls, upper: float) -> "FeatureBounds":
        """Bounds with only a maximum (``beta_min = -inf``)."""
        return cls(-np.inf, upper)

    @classmethod
    def lower_only(cls, lower: float) -> "FeatureBounds":
        """Bounds with only a minimum (``beta_max = +inf``)."""
        return cls(lower, np.inf)

    def contains(self, value: float, *, tol: float = 0.0) -> bool:
        """True when ``value`` lies within the tolerable interval (± ``tol``)."""
        return (self.lower - tol) <= value <= (self.upper + tol)

    def margin(self, value: float) -> float:
        """Distance (in feature units) from ``value`` to the nearer violated
        bound; negative when ``value`` is already outside the interval."""
        return min(value - self.lower, self.upper - value)


@dataclass
class PerformanceFeature:
    """A named feature ``phi_i`` with bounds and impact function.

    Parameters
    ----------
    name:
        Identifier used in reports (e.g. ``"F_3"`` for machine 3's finishing
        time, or ``"L_7"`` for path 7's latency).
    impact:
        The function ``f_ij`` with ``phi_i = f_ij(pi_j)`` (step 3).  May be an
        :class:`~repro.core.impact.ImpactFunction`, an array of affine
        coefficients, or a bare callable.
    bounds:
        The tolerable-variation tuple (step 1).
    """

    name: str
    impact: ImpactFunction
    bounds: FeatureBounds
    #: free-form metadata (machine index, path id, ...) carried into results
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("feature name must be non-empty")
        self.impact = as_impact(self.impact)
        if not isinstance(self.bounds, FeatureBounds):
            lo, hi = self.bounds  # accept a 2-tuple
            self.bounds = FeatureBounds(lo, hi)

    def value_at(self, pi: np.ndarray) -> float:
        """Evaluate the feature at perturbation value ``pi``."""
        return self.impact(np.asarray(pi, dtype=float))

    def satisfied_at(self, pi: np.ndarray, *, tol: float = 0.0) -> bool:
        """True when the robustness requirement holds for this feature at ``pi``."""
        return self.bounds.contains(self.value_at(pi), tol=tol)


class FeatureSet:
    """The set ``Phi`` of performance features (paper notation).

    A thin ordered container with name-based lookup and bulk evaluation.
    """

    def __init__(self, features: Iterable[PerformanceFeature] = ()) -> None:
        self._features: list[PerformanceFeature] = []
        self._by_name: dict[str, PerformanceFeature] = {}
        for f in features:
            self.add(f)

    def add(self, feature: PerformanceFeature) -> None:
        if not isinstance(feature, PerformanceFeature):
            raise ValidationError("FeatureSet elements must be PerformanceFeature")
        if feature.name in self._by_name:
            raise ValidationError(f"duplicate feature name {feature.name!r}")
        self._features.append(feature)
        self._by_name[feature.name] = feature

    def __iter__(self) -> Iterator[PerformanceFeature]:
        return iter(self._features)

    def __len__(self) -> int:
        return len(self._features)

    def __getitem__(self, key: int | str) -> PerformanceFeature:
        if isinstance(key, str):
            return self._by_name[key]
        return self._features[key]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def names(self) -> list[str]:
        return [f.name for f in self._features]

    def values_at(self, pi: np.ndarray) -> np.ndarray:
        """Evaluate every feature at ``pi`` (returns an array in set order)."""
        pi = np.asarray(pi, dtype=float)
        return np.array([f.value_at(pi) for f in self._features], dtype=float)

    def satisfied_rows(self, points: np.ndarray, *, tol: float = 0.0) -> np.ndarray:
        """Whether every feature's requirement holds at each row of ``points``
        (shape ``(k, n)``); each feature is evaluated once, through its batch."""
        points = np.asarray(points, dtype=float)
        ok = np.ones(points.shape[0], dtype=bool)
        for f in self._features:
            values = f.impact.batch(points)
            ok &= (f.bounds.lower - tol <= values) & (values <= f.bounds.upper + tol)
        return ok

    def all_satisfied_at(self, pi: np.ndarray, *, tol: float = 0.0) -> bool:
        """True when every feature's requirement holds at ``pi``."""
        return bool(self.satisfied_rows(np.asarray(pi, dtype=float)[None, :], tol=tol)[0])

    def violations_at(self, pi: np.ndarray, *, tol: float = 0.0) -> list[str]:
        """Names of features whose requirement is violated at ``pi``."""
        return [f.name for f in self._features if not f.satisfied_at(pi, tol=tol)]
