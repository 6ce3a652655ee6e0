"""Perturbation parameters — FePIA step 2.

A *perturbation parameter* ``pi_j`` is a vector of uncertain system or
environment quantities (paper Section 2, step 2): e.g. the vector ``C`` of
actual application computation times (Section 3.1) or the sensor-load vector
``lambda`` (Section 3.2).  The analysis is anchored at the assumed operating
point ``pi_orig``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.validation import as_1d_float_array

__all__ = ["PerturbationParameter"]


@dataclass
class PerturbationParameter:
    """The uncertain vector ``pi_j`` with its assumed value ``pi_orig``.

    Parameters
    ----------
    name:
        Identifier (``"C"`` for computation times, ``"lambda"`` for sensor
        loads, ...).
    origin:
        The assumed operating point ``pi_orig`` — estimated computation times
        / initial sensor loads.  Stored as a read-only copy: the caller's
        array stays writeable, and an in-place write to ``origin`` raises
        ``ValueError`` instead of silently moving the anchor of every radius.
    discrete:
        True when the parameter only takes integer values (e.g. objects per
        data set).  The paper treats such parameters continuously and floors
        the resulting metric (Section 3.2, discussion after Eq. 11); solvers
        honor this flag the same way, and
        :mod:`repro.core.solvers.discrete` offers the bracketing alternative
        of step 4's parenthetical.
    component_names:
        Optional per-component labels used in reports.
    """

    name: str
    origin: np.ndarray
    discrete: bool = False
    component_names: list[str] | None = None
    #: free-form metadata carried into results
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("perturbation parameter name must be non-empty")
        # copy first: as_1d_float_array hands back the caller's own array
        origin = as_1d_float_array(self.origin, "origin").copy()
        origin.setflags(write=False)
        self.origin = origin
        if self.component_names is not None:
            if len(self.component_names) != self.origin.size:
                raise ValidationError(
                    f"component_names has {len(self.component_names)} entries for a "
                    f"{self.origin.size}-dimensional parameter"
                )
            self.component_names = [str(c) for c in self.component_names]

    @property
    def dimension(self) -> int:
        """Number of components ``n_pi`` of the parameter vector."""
        return self.origin.size

    def displacement(self, pi: np.ndarray) -> np.ndarray:
        """``pi - pi_orig`` as a float array (validates dimension)."""
        pi = np.asarray(pi, dtype=float)
        if pi.shape != self.origin.shape:
            raise ValidationError(
                f"pi has shape {pi.shape}, expected {self.origin.shape}"
            )
        return pi - self.origin

    def label(self, r: int) -> str:
        """Human-readable label of component ``r``."""
        if self.component_names is not None:
            return self.component_names[r]
        return f"{self.name}[{r}]"
