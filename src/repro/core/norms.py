"""Vector norms used to measure the size of a perturbation.

The paper measures perturbations with the Euclidean (l2) norm (Section 2,
Equation 1).  Ali's thesis [1] discusses generalizations; this module
implements the l2 norm plus the natural extensions (weighted l2, l1, linf)
behind one interface so every solver in :mod:`repro.core.solvers` is
norm-generic.

The key analytic fact used throughout is the point-to-hyperplane distance:
for a hyperplane ``{x : c . x = d}`` and a point ``x0``, the minimum
``||x - x0||`` over the hyperplane equals ``|d - c . x0| / ||c||_*`` where
``||.||_*`` is the *dual* norm (Cauchy-Schwarz / Hölder).  Each norm here
knows its dual and, for l2-like norms, the minimizing point itself.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.validation import as_1d_float_array

__all__ = [
    "Norm",
    "L2Norm",
    "WeightedL2Norm",
    "L1Norm",
    "LInfNorm",
    "get_norm",
]


class Norm(ABC):
    """A vector norm with enough structure for boundary analysis."""

    #: short identifier, e.g. ``"l2"``
    name: str = "norm"

    @abstractmethod
    def __call__(self, x: np.ndarray) -> float:
        """Return ``||x||``."""

    @abstractmethod
    def dual(self, c: np.ndarray) -> float:
        """Return the dual norm ``||c||_*`` (used in hyperplane distances)."""

    def rows(self, x: np.ndarray) -> np.ndarray:
        """Return ``||x_k||`` for every row of ``x``: one call per row here;
        :class:`L2Norm`, the validators' norm, overrides it with one expression."""
        return np.array([self(row) for row in np.asarray(x, dtype=float)], dtype=float)

    def distance_to_hyperplane(self, c: np.ndarray, d: float, x0: np.ndarray) -> float:
        """Signed distance from ``x0`` to the hyperplane ``{x : c . x = d}``.

        Positive when ``c . x0 < d`` (the origin is on the "feasible" side of
        an upper bound), negative when beyond it.  ``inf`` when ``c == 0`` and
        ``c . x0 != d`` (the boundary set is empty); ``0`` when ``c == 0`` and
        the degenerate "hyperplane" is all of space.
        """
        c = np.asarray(c, dtype=float)
        x0 = np.asarray(x0, dtype=float)
        gap = float(d) - float(c @ x0)
        denom = self.dual(c)
        if denom == 0.0:
            return 0.0 if gap == 0.0 else np.inf if gap > 0 else -np.inf
        return gap / denom

    def closest_point_on_hyperplane(
        self, c: np.ndarray, d: float, x0: np.ndarray
    ) -> np.ndarray:
        """Return a point of the hyperplane ``{x : c . x = d}`` closest to ``x0``.

        Subclasses override when a closed form exists; the base implementation
        raises ``NotImplementedError``.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no closed-form hyperplane projection"
        )

    def unit_steepest_direction(self, c: np.ndarray) -> np.ndarray:
        """A unit-norm direction ``u`` maximizing ``c . u`` (i.e. attaining the
        dual norm).  Used to construct boundary-touching perturbations."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class L2Norm(Norm):
    """Euclidean norm — the norm used by the paper (Equation 1)."""

    name = "l2"

    def __call__(self, x: np.ndarray) -> float:
        return float(np.linalg.norm(np.asarray(x, dtype=float)))

    def rows(self, x: np.ndarray) -> np.ndarray:
        return np.linalg.norm(np.asarray(x, dtype=float), axis=-1)

    def dual(self, c: np.ndarray) -> float:
        return float(np.linalg.norm(np.asarray(c, dtype=float)))

    def closest_point_on_hyperplane(
        self, c: np.ndarray, d: float, x0: np.ndarray
    ) -> np.ndarray:
        c = np.asarray(c, dtype=float)
        x0 = np.asarray(x0, dtype=float)
        cc = float(c @ c)
        if cc == 0.0:
            if float(d) == 0.0:
                return x0.copy()
            raise ValidationError("hyperplane with zero normal and nonzero offset is empty")
        # Orthogonal projection: x* = x0 + ((d - c.x0)/||c||^2) c
        return x0 + ((float(d) - float(c @ x0)) / cc) * c

    def unit_steepest_direction(self, c: np.ndarray) -> np.ndarray:
        c = np.asarray(c, dtype=float)
        n = float(np.linalg.norm(c))
        if n == 0.0:
            raise ValidationError("zero vector has no steepest direction")
        return c / n


class WeightedL2Norm(Norm):
    """``||x||_w = sqrt(sum_r w_r x_r^2)`` with strictly positive weights.

    Models perturbation components with different natural scales (e.g. sensor
    loads measured in incommensurate units).  Its dual norm is
    ``sqrt(sum_r c_r^2 / w_r)``.
    """

    name = "wl2"

    def __init__(self, weights: np.ndarray | list[float]) -> None:
        w = as_1d_float_array(weights, "weights")
        if np.any(w <= 0):
            raise ValidationError("weights must be strictly positive")
        self.weights = w

    def _check(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != self.weights.shape:
            raise ValidationError(
                f"vector has shape {x.shape}, weights have shape {self.weights.shape}"
            )
        return x

    def __call__(self, x: np.ndarray) -> float:
        x = self._check(x)
        return float(np.sqrt(np.sum(self.weights * x * x)))

    def dual(self, c: np.ndarray) -> float:
        c = self._check(c)
        return float(np.sqrt(np.sum(c * c / self.weights)))

    def closest_point_on_hyperplane(
        self, c: np.ndarray, d: float, x0: np.ndarray
    ) -> np.ndarray:
        c = self._check(c)
        x0 = self._check(x0)
        # Minimize sum w_r (x_r - x0_r)^2 s.t. c.x = d  (Lagrange):
        #   x_r = x0_r + lam * c_r / w_r,  lam = (d - c.x0) / sum(c_r^2 / w_r)
        denom = float(np.sum(c * c / self.weights))
        if denom == 0.0:
            if float(d) == 0.0:
                return x0.copy()
            raise ValidationError("hyperplane with zero normal and nonzero offset is empty")
        lam = (float(d) - float(c @ x0)) / denom
        return x0 + lam * c / self.weights

    def unit_steepest_direction(self, c: np.ndarray) -> np.ndarray:
        c = self._check(c)
        u = c / self.weights
        n = self(u)
        if n == 0.0:
            raise ValidationError("zero vector has no steepest direction")
        return u / n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WeightedL2Norm(weights={self.weights!r})"


class L1Norm(Norm):
    """``||x||_1`` — dual is linf; worst case concentrates in one coordinate."""

    name = "l1"

    def __call__(self, x: np.ndarray) -> float:
        return float(np.sum(np.abs(np.asarray(x, dtype=float))))

    def dual(self, c: np.ndarray) -> float:
        c = np.asarray(c, dtype=float)
        return float(np.max(np.abs(c))) if c.size else 0.0

    def closest_point_on_hyperplane(
        self, c: np.ndarray, d: float, x0: np.ndarray
    ) -> np.ndarray:
        c = np.asarray(c, dtype=float)
        x0 = np.asarray(x0, dtype=float)
        denom = self.dual(c)
        gap = float(d) - float(c @ x0)
        if denom == 0.0:
            if gap == 0.0:
                return x0.copy()
            raise ValidationError("hyperplane with zero normal and nonzero offset is empty")
        # Move only along the coordinate with the largest |c_r|.
        r = int(np.argmax(np.abs(c)))
        x = x0.copy()
        x[r] += gap / c[r]
        return x

    def unit_steepest_direction(self, c: np.ndarray) -> np.ndarray:
        c = np.asarray(c, dtype=float)
        if not np.any(c):
            raise ValidationError("zero vector has no steepest direction")
        r = int(np.argmax(np.abs(c)))
        u = np.zeros_like(c)
        u[r] = np.sign(c[r])
        return u


class LInfNorm(Norm):
    """``||x||_inf`` — dual is l1; worst case moves all coordinates equally."""

    name = "linf"

    def __call__(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return float(np.max(np.abs(x))) if x.size else 0.0

    def dual(self, c: np.ndarray) -> float:
        return float(np.sum(np.abs(np.asarray(c, dtype=float))))

    def closest_point_on_hyperplane(
        self, c: np.ndarray, d: float, x0: np.ndarray
    ) -> np.ndarray:
        c = np.asarray(c, dtype=float)
        x0 = np.asarray(x0, dtype=float)
        denom = self.dual(c)
        gap = float(d) - float(c @ x0)
        if denom == 0.0:
            if gap == 0.0:
                return x0.copy()
            raise ValidationError("hyperplane with zero normal and nonzero offset is empty")
        # Move every coordinate by t * sign(c_r) with t = gap / ||c||_1.
        t = gap / denom
        return x0 + t * np.sign(c) + (np.sign(c) == 0) * 0.0

    def unit_steepest_direction(self, c: np.ndarray) -> np.ndarray:
        c = np.asarray(c, dtype=float)
        if not np.any(c):
            raise ValidationError("zero vector has no steepest direction")
        return np.sign(c)


_NORMS = {
    "l2": L2Norm,
    "euclidean": L2Norm,
    "l1": L1Norm,
    "linf": LInfNorm,
}


def get_norm(norm: str | Norm | None) -> Norm:
    """Resolve ``norm`` to a :class:`Norm` instance.

    Accepts an instance (returned as-is), a name (``"l2"``, ``"l1"``,
    ``"linf"``, ``"euclidean"``), or ``None`` for the paper's default l2.
    """
    if norm is None:
        return L2Norm()
    if isinstance(norm, Norm):
        return norm
    try:
        return _NORMS[str(norm).lower()]()
    except KeyError:
        raise ValidationError(
            f"unknown norm {norm!r}; expected one of {sorted(_NORMS)} or a Norm instance"
        ) from None
