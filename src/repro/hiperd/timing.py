"""Computation / communication / latency time functions of the load vector.

With the linear model of Section 4.3 every time quantity is an affine (in
fact linear) function of the sensor-load vector ``lambda``; this module
builds their coefficient vectors for a given mapping:

- ``T^c_i(lambda)  = mtf(m(i)) * (b[i, m(i)] . lambda)``  (computation),
- ``T^n_ip(lambda) = d[i, p] . lambda``                    (communication),
- ``L_k(lambda)    = sum over the chain of the above``      (Eq. 8).

The coefficient matrices returned here are one-mapping views of the
system's compiled constraint structure
(:class:`~repro.hiperd.constraints.CompiledSystem`).
"""

from __future__ import annotations

import numpy as np

from repro.alloc.mapping import Mapping
from repro.exceptions import ValidationError
from repro.hiperd.constraints import assignment_matrix, build_constraints
from repro.hiperd.model import HiperDSystem

__all__ = [
    "computation_coefficients",
    "communication_coefficients",
    "latency_coefficients",
    "computation_times",
    "latencies",
]


def computation_coefficients(system: HiperDSystem, mapping: Mapping) -> np.ndarray:
    """``(n_apps, n_sensors)`` matrix: row ``i`` holds the coefficients of
    ``T^c_i(lambda)`` under ``mapping`` (multitasking factor included)."""
    return system.compiled.computation(assignment_matrix(system, [mapping]))[0]


def communication_coefficients(system: HiperDSystem) -> dict[tuple[int, int], np.ndarray]:
    """Coefficient vectors of the app-to-app transfer times ``T^n_ip``.

    Mapping-independent in this model (network multitasking is not load-
    dependent here); edges without declared coefficients are zero —
    returned lazily as the declared dict (missing = zero vector).
    """
    return dict(system.comm_coeffs)


def latency_coefficients(system: HiperDSystem, mapping: Mapping) -> np.ndarray:
    """``(n_paths, n_sensors)`` matrix of the coefficients of ``L_k(lambda)``
    (Eq. 8): the sum of the member applications' computation coefficients
    plus the chain's communication coefficients."""
    return build_constraints(system, mapping).coefficients[system.compiled.latency_rows]


def computation_times(system: HiperDSystem, mapping: Mapping, load) -> np.ndarray:
    """``T^c_i(lambda)`` for every application at load vector ``load``."""
    load = np.asarray(load, dtype=float)
    if load.shape != (system.n_sensors,):
        raise ValidationError(f"load must have shape ({system.n_sensors},)")
    return computation_coefficients(system, mapping) @ load


def latencies(system: HiperDSystem, mapping: Mapping, load) -> np.ndarray:
    """``L_k(lambda)`` for every path at load vector ``load``."""
    load = np.asarray(load, dtype=float)
    if load.shape != (system.n_sensors,):
        raise ValidationError(f"load must have shape ({system.n_sensors},)")
    return latency_coefficients(system, mapping) @ load
