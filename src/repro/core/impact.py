"""Impact functions — step 3 of the FePIA procedure.

An *impact function* ``f_ij`` relates a perturbation-parameter vector
``pi_j`` to the value of a performance feature ``phi_i``
(``phi_i = f_ij(pi_j)``, Section 2, step 3).  The library represents them as
callables ``f : R^n -> R`` with optional structure:

- :class:`AffineImpact` — ``f(pi) = c . pi + b``.  Both example systems in the
  paper reduce to this form (machine finishing times, Eq. 4; HiPer-D
  computation/communication/latency times with the linear complexity
  functions of Section 4.3).  Affine impacts admit closed-form robustness
  radii via the point-to-hyperplane distance (Eq. 6).
- :class:`CallableImpact` — an arbitrary (ideally convex, see the paper's
  discussion at the end of Section 3.2) function, handled by the numeric
  solver.

Impacts compose: sums and positive scalings of impacts are impacts, and sums
of affine impacts stay affine — which is exactly how a HiPer-D path latency
(Eq. 8) is built from per-application computation and communication times.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.validation import as_1d_float_array, check_finite

__all__ = [
    "ImpactFunction",
    "AffineImpact",
    "CallableImpact",
    "SumImpact",
    "ScaledImpact",
    "as_impact",
    "affine_sum",
]


class ImpactFunction(ABC):
    """Maps a perturbation vector to a scalar feature value."""

    @abstractmethod
    def __call__(self, pi: np.ndarray) -> float:
        """Evaluate the feature value at perturbation-parameter value ``pi``."""

    def batch(self, pis: np.ndarray) -> np.ndarray:
        """Evaluate every row of ``pis`` (shape ``(k, n)``): one call per row
        here; :class:`AffineImpact` overrides it with one matrix product."""
        return np.array([self(pi) for pi in np.asarray(pis, dtype=float)], dtype=float)

    def gradient(self, pi: np.ndarray) -> np.ndarray | None:
        """Return ``grad f(pi)`` if known analytically, else ``None``.

        Numeric solvers fall back to finite differences when this returns
        ``None``.
        """
        return None

    @property
    def is_affine(self) -> bool:
        """True when the impact is affine (enables the analytic solver)."""
        return False

    # -- composition ------------------------------------------------------
    def __add__(self, other: "ImpactFunction") -> "ImpactFunction":
        if not isinstance(other, ImpactFunction):
            return NotImplemented
        if self.is_affine and other.is_affine:
            return AffineImpact(
                self.coefficients + other.coefficients,  # type: ignore[attr-defined]
                self.intercept + other.intercept,  # type: ignore[attr-defined]
            )
        return SumImpact([self, other])

    def __mul__(self, scalar: float) -> "ImpactFunction":
        if not isinstance(scalar, (int, float, np.floating, np.integer)):
            return NotImplemented
        if self.is_affine:
            return AffineImpact(
                float(scalar) * self.coefficients,  # type: ignore[attr-defined]
                float(scalar) * self.intercept,  # type: ignore[attr-defined]
            )
        return ScaledImpact(self, float(scalar))

    __rmul__ = __mul__


class AffineImpact(ImpactFunction):
    """``f(pi) = coefficients . pi + intercept``.

    Examples
    --------
    A machine finishing time (paper Eq. 4) over the perturbation vector of all
    application computation times is an affine impact whose coefficients are
    the 0/1 indicator of "application mapped to this machine"::

        F_j = AffineImpact(indicator_vector)  # intercept defaults to 0
    """

    def __init__(self, coefficients: np.ndarray | Sequence[float], intercept: float = 0.0) -> None:
        self.coefficients = as_1d_float_array(coefficients, "coefficients", allow_empty=False)
        self.intercept = check_finite(intercept, "intercept")

    @property
    def dimension(self) -> int:
        """Number of perturbation components the impact reads."""
        return self.coefficients.size

    @property
    def is_affine(self) -> bool:
        return True

    def __call__(self, pi: np.ndarray) -> float:
        pi = np.asarray(pi, dtype=float)
        if pi.shape[-1] != self.coefficients.size:
            raise ValidationError(
                f"pi has dimension {pi.shape[-1]}, impact expects {self.coefficients.size}"
            )
        return float(pi @ self.coefficients + self.intercept)

    def batch(self, pis: np.ndarray) -> np.ndarray:
        """Vectorized evaluation over rows of ``pis`` (shape ``(k, n)``)."""
        pis = np.asarray(pis, dtype=float)
        if pis.ndim != 2 or pis.shape[1] != self.coefficients.size:
            raise ValidationError(f"pis has shape {pis.shape}, not (k, {self.coefficients.size})")
        return pis @ self.coefficients + self.intercept

    def gradient(self, pi: np.ndarray) -> np.ndarray:
        return self.coefficients.copy()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AffineImpact(coefficients={self.coefficients!r}, intercept={self.intercept})"


def _read_only(pi: np.ndarray) -> np.ndarray:
    """A read-only float view of ``pi`` (the caller's array keeps its flags)."""
    view = np.asarray(pi, dtype=float).view()
    view.setflags(write=False)
    return view


class CallableImpact(ImpactFunction):
    """Wraps an arbitrary scalar function ``f(pi)`` (optionally with gradient).

    The paper assumes such functions are convex so the boundary minimization
    is a convex program (Section 3.2, final paragraph); non-convex functions
    are still accepted and handled with multi-start heuristics, matching the
    paper's "heuristic techniques ... to find near-optimal solutions".

    Eq. 1 assumes ``f`` is a pure function of ``pi``, and the solvers and
    validators re-read the points they evaluate.  ``func`` and ``grad``
    therefore receive a read-only view of ``pi``: an in-place write raises
    ``ValueError`` at the write instead of corrupting later evaluations.
    """

    def __init__(
        self,
        func: Callable[[np.ndarray], float],
        *,
        grad: Callable[[np.ndarray], np.ndarray] | None = None,
        name: str | None = None,
        convex: bool | None = None,
    ) -> None:
        if not callable(func):
            raise ValidationError("func must be callable")
        self._func = func
        self._grad = grad
        self.name = name or getattr(func, "__name__", "impact")
        #: declared convexity (None = unknown); informs solver multi-start count
        self.convex = convex

    def __call__(self, pi: np.ndarray) -> float:
        return float(self._func(_read_only(pi)))

    def gradient(self, pi: np.ndarray) -> np.ndarray | None:
        if self._grad is None:
            return None
        g = self._grad(_read_only(pi))
        if g is None:  # a wrapped gradient may itself be partial
            return None
        return np.asarray(g, dtype=float)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CallableImpact({self.name})"


class SumImpact(ImpactFunction):
    """Sum of impact functions (used when terms are not all affine)."""

    def __init__(self, terms: Sequence[ImpactFunction]) -> None:
        terms = list(terms)
        if not terms:
            raise ValidationError("SumImpact requires at least one term")
        for t in terms:
            if not isinstance(t, ImpactFunction):
                raise ValidationError(f"SumImpact terms must be ImpactFunction, got {type(t)}")
        self.terms = terms

    def __call__(self, pi: np.ndarray) -> float:
        return float(sum(t(pi) for t in self.terms))

    def gradient(self, pi: np.ndarray) -> np.ndarray | None:
        grads = [t.gradient(pi) for t in self.terms]
        if any(g is None for g in grads):
            return None
        return np.sum(grads, axis=0)


class ScaledImpact(ImpactFunction):
    """``scalar * f(pi)`` for a non-affine ``f``."""

    def __init__(self, inner: ImpactFunction, scalar: float) -> None:
        if not isinstance(inner, ImpactFunction):
            raise ValidationError("inner must be an ImpactFunction")
        self.inner = inner
        self.scalar = check_finite(scalar, "scalar")

    def __call__(self, pi: np.ndarray) -> float:
        return self.scalar * self.inner(pi)

    def gradient(self, pi: np.ndarray) -> np.ndarray | None:
        g = self.inner.gradient(pi)
        return None if g is None else self.scalar * g


def as_impact(obj: ImpactFunction | Callable[[np.ndarray], float] | np.ndarray | Sequence[float]) -> ImpactFunction:
    """Coerce ``obj`` to an :class:`ImpactFunction`.

    Accepts an existing impact, a 1-D array of affine coefficients, or a bare
    callable.
    """
    if isinstance(obj, ImpactFunction):
        return obj
    if callable(obj):
        return CallableImpact(obj)
    return AffineImpact(obj)


def affine_sum(impacts: Sequence[AffineImpact]) -> AffineImpact:
    """Sum a sequence of affine impacts into a single affine impact.

    Vectorized building block for path latencies (paper Eq. 8): the latency
    coefficients are the sum of the member computation/communication
    coefficient vectors.
    """
    impacts = list(impacts)
    if not impacts:
        raise ValidationError("affine_sum requires at least one impact")
    coeff = np.zeros_like(impacts[0].coefficients)
    intercept = 0.0
    for imp in impacts:
        if not isinstance(imp, AffineImpact):
            raise ValidationError("affine_sum requires AffineImpact terms")
        if imp.coefficients.shape != coeff.shape:
            raise ValidationError("affine_sum impacts must share a dimension")
        coeff = coeff + imp.coefficients
        intercept += imp.intercept
    return AffineImpact(coeff, intercept)
