"""Empirical validation of computed robustness radii.

A robustness radius makes a falsifiable promise (paper Section 2): every
perturbation of norm less than ``r`` keeps every performance feature inside
its tolerable interval.  This module attacks that promise with sampling:

- **soundness** — perturbations drawn strictly *inside* the radius ball must
  produce zero violations;
- **tightness** — stepping to ``r * (1 + eps)`` along the witness direction
  (the solver's minimizing boundary point) must produce a violation, proving
  the radius is not a gross under-estimate.

Both checks are provided for the paper's two example systems:
:func:`validate_allocation_radius` (Eq. 6, independent allocation — the
Figure 3 setting) and :func:`validate_hiperd_radius` (Eqs. 8-11, the HiPer-D
system).  Both are one check of affine feature rows ``A x <= b`` against
:func:`~repro.core.solvers.montecarlo.sample_ball` draws, one matrix product
per chunk of draws.  :func:`certify` wraps the allocation check in an acceptance-
sampling certificate: zero violations in ``n`` seeded samples bounds the
violation probability below ``eps`` at the requested confidence
(``(1 - eps)^n <= 1 - confidence``).  :func:`machine_failure_scenario`
drives the larger machine-death disturbance through
:mod:`repro.sim.failures` and reports it against the same tolerance bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.alloc.mapping import Mapping
from repro.alloc.robustness import boundary_etc_vector, robustness as alloc_robustness
from repro.core.solvers.montecarlo import SAMPLE_CHUNK, sample_ball
from repro.exceptions import ValidationError
from repro.hiperd.model import HiperDSystem
from repro.hiperd.robustness import robustness as hiperd_robustness
from repro.sim.failures import MachineFailureResult, simulate_machine_failure
from repro.utils.rng import ensure_rng

__all__ = [
    "PerturbationValidation",
    "Certificate",
    "validate_allocation_radius",
    "validate_hiperd_radius",
    "certify",
    "machine_failure_scenario",
]

#: relative tolerance when testing a feature bound (guards float round-off
#: on perturbations constructed to sit exactly on the boundary hyperplane)
_BOUND_RTOL = 1e-9


@dataclass(frozen=True)
class PerturbationValidation:
    """Report of one sampled-perturbation radius validation."""

    #: ``"allocation"`` or ``"hiperd"``
    system: str
    #: the claimed (unfloored) robustness radius under test
    radius: float
    #: interior samples drawn
    n_samples: int
    #: interior samples that violated a bound (0 for a sound radius)
    interior_violations: int
    #: whether ``r * (1 + eps)`` along the witness direction violated
    witness_violated: bool
    #: the overshoot factor used for the witness probe
    eps: float
    #: RNG seed of the sample draw
    seed: int

    @property
    def violation_rate(self) -> float:
        """Fraction of interior samples that violated (0.0 when sound)."""
        return self.interior_violations / self.n_samples if self.n_samples else 0.0

    @property
    def sound(self) -> bool:
        """No interior sample violated any bound."""
        return self.interior_violations == 0

    @property
    def tight(self) -> bool:
        """The witness overshoot violated, so ``r`` is not an under-estimate."""
        return self.witness_violated


@dataclass(frozen=True)
class Certificate:
    """Acceptance-sampling certificate for a mapping's robustness radius.

    ``holds`` means: zero violations were observed in ``n_samples`` interior
    draws, which bounds the violation probability (under the sampling
    distribution) below ``eps`` with the stated ``confidence`` — because a
    violation probability of at least ``eps`` would have produced at least
    one hit with probability ``>= 1 - (1 - eps)^n >= confidence``.
    """

    holds: bool
    radius: float
    eps: float
    confidence: float
    n_samples: int
    violations: int

    def to_dict(self) -> dict:
        """Encode as a JSON-ready dict."""
        return {
            "type": "Certificate",
            "version": 1,
            "holds": bool(self.holds),
            "radius": float(self.radius),
            "eps": float(self.eps),
            "confidence": float(self.confidence),
            "n_samples": int(self.n_samples),
            "violations": int(self.violations),
        }


def _validate_linear(system: str, radius: float, a, b, x0, x_star, n_samples, eps, seed, slack):
    """The check both systems share, on feature rows ``a @ x <= b``.

    Counts the :func:`~repro.core.solvers.montecarlo.sample_ball` draws of
    radius ``r * (1 - slack)`` around ``x0`` that break a bound (beyond
    ``_BOUND_RTOL``), then probes the witness ``x0 + (1 + eps)(x_star - x0)``.
    """
    radius = float(radius)
    if not np.isfinite(radius) or radius <= 0:
        raise ValidationError(
            f"{system} validation needs a finite positive radius (strictly "
            f"robust, feasible origin), got {radius!r}"
        )
    rng = ensure_rng(seed)
    limit = b * (1.0 + _BOUND_RTOL)
    # a contiguous (dim, m) operand: for a full chunk against HiPer-D's
    # three-column matrix, OpenBLAS took ~80x longer on the transposed view
    a_t = np.ascontiguousarray(a.T)
    violations = 0
    for start in range(0, int(n_samples), SAMPLE_CHUNK):
        size = min(SAMPLE_CHUNK, int(n_samples) - start)
        x = x0 + sample_ball(rng, size, x0.size, radius * (1.0 - slack))
        violations += int(np.count_nonzero(np.any(x @ a_t > limit, axis=1)))
    overshoot = x0 + (1.0 + float(eps)) * (x_star - x0)
    return PerturbationValidation(
        system=system,
        radius=radius,
        n_samples=int(n_samples),
        interior_violations=violations,
        witness_violated=bool(np.any(a @ overshoot > b)),
        eps=float(eps),
        seed=int(seed),
    )


def validate_allocation_radius(
    mapping: Mapping,
    etc: np.ndarray,
    tau: float,
    *,
    n_samples: int = 256,
    eps: float = 1e-3,
    seed: int = 0,
    slack: float = 1e-9,
) -> PerturbationValidation:
    """Empirically validate an Eq. 6 allocation radius.

    Samples perturbations ``delta`` of the actual-time vector ``C`` uniform
    in the ball of radius ``r * (1 - slack)`` and checks every machine
    finishing time against ``tau * M_orig``; then probes the witness point
    ``C_orig + (1 + eps)(C* - C_orig)`` built from
    :func:`~repro.alloc.robustness.boundary_etc_vector`, which must violate.
    """
    rob = alloc_robustness(mapping, etc, tau)
    a = mapping.indicator_matrix().astype(float)  # (m, n_tasks)
    b = rob.tau * rob.makespan
    x0 = mapping.executed_times(etc).astype(float)
    x_star = boundary_etc_vector(mapping, etc, tau)
    return _validate_linear("allocation", rob.value, a, b, x0, x_star, n_samples, eps, seed, slack)


def validate_hiperd_radius(
    system: HiperDSystem,
    mapping: Mapping,
    load_orig,
    *,
    n_samples: int = 256,
    eps: float = 1e-3,
    seed: int = 0,
    slack: float = 1e-9,
) -> PerturbationValidation:
    """Empirically validate a HiPer-D (Eqs. 8-11) sensor-load radius.

    Samples load perturbations uniform in the ball of radius
    ``r * (1 - slack)`` around ``lambda_orig`` and checks every QoS
    constraint row of Eq. 9; then probes ``lambda_orig + (1 + eps)
    (lambda* - lambda_orig)`` with the solver's boundary load, which must
    violate the binding constraint.
    """
    rob = hiperd_robustness(system, mapping, load_orig, apply_floor=False)
    a, b = rob.constraints.coefficients, rob.constraints.limits
    x0, x_star = np.asarray(load_orig, dtype=float), rob.boundary
    return _validate_linear("hiperd", rob.raw_value, a, b, x0, x_star, n_samples, eps, seed, slack)


def certify(
    mapping: Mapping,
    etc: np.ndarray,
    tau: float,
    *,
    eps: float = 0.01,
    confidence: float = 0.99,
    seed: int = 0,
    n_samples: int | None = None,
) -> Certificate:
    """Certify a mapping's radius by zero-violation acceptance sampling.

    Draws ``n = ceil(log(1 - confidence) / log(1 - eps))`` interior samples
    (unless ``n_samples`` overrides the count) and issues a certificate that
    holds exactly when none violates — bounding the violation probability of
    an interior perturbation below ``eps`` at the given confidence.
    """
    if not 0.0 < float(eps) < 1.0:
        raise ValidationError(f"eps must be in (0, 1), got {eps!r}")
    if not 0.0 < float(confidence) < 1.0:
        raise ValidationError(f"confidence must be in (0, 1), got {confidence!r}")
    if n_samples is None:
        n_samples = int(math.ceil(math.log(1.0 - confidence) / math.log(1.0 - eps)))
    report = validate_allocation_radius(
        mapping, etc, tau, n_samples=int(n_samples), seed=seed
    )
    return Certificate(
        holds=report.sound,
        radius=report.radius,
        eps=float(eps),
        confidence=float(confidence),
        n_samples=int(n_samples),
        violations=report.interior_violations,
    )


def machine_failure_scenario(
    mapping: Mapping,
    etc: np.ndarray,
    tau: float,
    *,
    fail_machine: int | None = None,
    fail_fraction: float = 0.5,
) -> MachineFailureResult:
    """Drive a machine-death disturbance through the event simulator.

    Kills the mapping's *critical* machine (the binding machine of Eq. 7,
    the worst case for the makespan bound) unless ``fail_machine`` says
    otherwise, at ``fail_fraction`` of the predicted makespan, and reports
    the degraded execution against the ``tau * M_orig`` tolerance — the same
    bound the robustness radius certifies against parameter perturbations.
    """
    rob = alloc_robustness(mapping, etc, tau)
    if fail_machine is None:
        fail_machine = rob.critical_machine
    if not 0.0 <= float(fail_fraction) <= 1.0:
        raise ValidationError(f"fail_fraction must be in [0, 1], got {fail_fraction!r}")
    return simulate_machine_failure(
        mapping,
        etc,
        int(fail_machine),
        float(fail_fraction) * rob.makespan,
        tau=float(tau),
    )
