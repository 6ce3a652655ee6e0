"""HiPer-D system model (paper Section 3.2).

The system consists of heterogeneous sets of **sensors**, **applications**,
**machines** and **actuators**.  Sensors emit data streams periodically;
applications (mapped to multitasking machines) process them and feed other
applications or actuators.  Applications and data transfers form a directed
acyclic graph; **paths** are producer-consumer chains that start at a sensor
(the *driving sensor*) and end at an actuator ("trigger path") or at a
multiple-input application ("update path").

The perturbation parameter is the sensor-load vector ``lambda`` (objects per
data set, one entry per sensor).  Computation times are modeled as functions
of ``lambda``; in the paper's experiments (and the default here) they are
linear, ``T^c_ij(lambda) = mtf * (b_ij . lambda)``, where ``b_ijz = 0`` when
no route exists from sensor ``z`` to application ``a_i`` and ``mtf`` is the
multitasking factor ``1.3 n(m_j)`` for machines running ``n >= 2``
applications (Table 2's caption).  Communication times may carry their own
linear coefficients (the experiments set them to zero).

Two construction styles are supported:

- declare the DAG edges and let :func:`repro.hiperd.dag.enumerate_paths`
  derive the path set (hand-built systems, Figure 2 style);
- declare the paths directly (:meth:`HiperDSystem.from_paths`), the style of
  the Section 4.3 experiments ("a system that consisted of 19 paths").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import ModelError, ValidationError
from repro.utils.validation import as_1d_float_array

if TYPE_CHECKING:
    from repro.hiperd.constraints import CompiledSystem

__all__ = ["Sensor", "Path", "HiperDSystem", "multitasking_factors"]

#: multitasking coefficient from Table 2's caption: mtf = 1.3 n(m_j), n >= 2
MULTITASK_COEFF = 1.3


@dataclass(frozen=True)
class Sensor:
    """A sensor with its maximum periodic output data rate ``R`` (Hz)."""

    name: str
    rate: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("sensor name must be non-empty")
        if not (self.rate > 0 and np.isfinite(self.rate)):
            raise ValidationError(f"sensor rate must be positive, got {self.rate}")


@dataclass(frozen=True)
class Path:
    """One producer-consumer chain ``P_k``.

    ``apps`` lists the applications in chain order (single-input apps only —
    an update path's terminal multiple-input application receives the result
    but is not part of the chain, matching the latency definition "until ...
    the multiple-input application fed by the path *receives* the result").

    ``terminal`` is ``("actuator", t)`` for a trigger path or ``("app", i)``
    for an update path.
    """

    driving_sensor: int
    apps: tuple[int, ...]
    terminal: tuple[str, int]

    def __post_init__(self) -> None:
        if self.driving_sensor < 0:
            raise ValidationError("driving_sensor must be a valid sensor index")
        apps = tuple(int(a) for a in self.apps)
        if len(set(apps)) != len(apps):
            raise ValidationError(f"path visits an application twice: {apps}")
        object.__setattr__(self, "apps", apps)
        kind, idx = self.terminal
        if kind not in ("actuator", "app"):
            raise ValidationError(f"terminal kind must be 'actuator' or 'app', got {kind!r}")
        object.__setattr__(self, "terminal", (kind, int(idx)))

    @property
    def kind(self) -> str:
        """``"trigger"`` (ends at an actuator) or ``"update"`` (ends at a
        multiple-input application)."""
        return "trigger" if self.terminal[0] == "actuator" else "update"

    def edges(self) -> list[tuple[int, int]]:
        """The app-to-app transfer edges along the chain (excluding the
        sensor-to-first and last-to-terminal hops)."""
        return list(zip(self.apps[:-1], self.apps[1:]))


class HiperDSystem:
    """A HiPer-D-like system instance.

    Parameters
    ----------
    sensors:
        The sensor set (rates included).
    n_apps, n_machines, n_actuators:
        Set sizes; applications, machines and actuators are index-identified.
    paths:
        The path set ``P`` (see :class:`Path`).  Build from a DAG with
        :meth:`from_dag` when you have edges instead.
    comp_coeffs:
        ``(n_apps, n_machines, n_sensors)`` array of the linear
        computation-time coefficients ``b_ijz`` (before the multitasking
        factor).  Entry ``[i, j, z]`` must be 0 when sensor ``z`` has no
        route to ``a_i``.
    latency_limits:
        ``L_k^max`` per path, aligned with ``paths``.
    comm_coeffs:
        Optional ``{(i, p): vector}`` linear communication-time coefficients
        for app-to-app transfers (zero = instantaneous, the experiments'
        setting).
    """

    def __init__(
        self,
        *,
        sensors: list[Sensor],
        n_apps: int,
        n_machines: int,
        n_actuators: int,
        paths: list[Path],
        comp_coeffs: np.ndarray,
        latency_limits,
        comm_coeffs: dict[tuple[int, int], np.ndarray] | None = None,
    ) -> None:
        if not sensors:
            raise ValidationError("at least one sensor is required")
        self.sensors = list(sensors)
        self.n_apps = int(n_apps)
        self.n_machines = int(n_machines)
        self.n_actuators = int(n_actuators)
        if min(self.n_apps, self.n_machines) <= 0 or self.n_actuators < 0:
            raise ValidationError("n_apps/n_machines must be >= 1, n_actuators >= 0")

        self.paths = list(paths)
        if not self.paths:
            raise ValidationError("at least one path is required")
        for p in self.paths:
            if p.driving_sensor >= self.n_sensors:
                raise ModelError(f"path driving sensor {p.driving_sensor} out of range")
            for a in p.apps:
                if not (0 <= a < self.n_apps):
                    raise ModelError(f"path application index {a} out of range")
            kind, idx = p.terminal
            bound = self.n_actuators if kind == "actuator" else self.n_apps
            if not (0 <= idx < bound):
                raise ModelError(f"path terminal {p.terminal} out of range")

        coeffs = np.asarray(comp_coeffs, dtype=float)
        want = (self.n_apps, self.n_machines, self.n_sensors)
        if coeffs.shape != want:
            raise ValidationError(f"comp_coeffs shape {coeffs.shape}, expected {want}")
        if np.any(~np.isfinite(coeffs)) or np.any(coeffs < 0):
            raise ValidationError("comp_coeffs must be finite and non-negative")
        self.comp_coeffs = coeffs

        self.latency_limits = as_1d_float_array(latency_limits, "latency_limits")
        if self.latency_limits.size != len(self.paths):
            raise ValidationError(
                f"{self.latency_limits.size} latency limits for {len(self.paths)} paths"
            )
        if np.any(self.latency_limits <= 0):
            raise ValidationError("latency limits must be positive")

        self.comm_coeffs: dict[tuple[int, int], np.ndarray] = {}
        for edge, vec in (comm_coeffs or {}).items():
            i, p = int(edge[0]), int(edge[1])
            v = as_1d_float_array(vec, f"comm_coeffs[{edge}]")
            if v.size != self.n_sensors:
                raise ValidationError(
                    f"comm coefficient vector for edge {edge} has size {v.size}, "
                    f"expected {self.n_sensors}"
                )
            if np.any(v < 0):
                raise ValidationError("comm coefficients must be non-negative")
            self.comm_coeffs[(i, p)] = v

        self._check_route_consistency()

    # ------------------------------------------------------------------
    @property
    def n_sensors(self) -> int:
        return len(self.sensors)

    @property
    def rates(self) -> np.ndarray:
        """Sensor output data rates as an array."""
        return np.array([s.rate for s in self.sensors], dtype=float)

    @cached_property
    def compiled(self) -> CompiledSystem:
        """The mapping-independent constraint structure
        (:class:`~repro.hiperd.constraints.CompiledSystem`), built on first
        use; a system is never mutated after construction."""
        from repro.hiperd.constraints import CompiledSystem  # local: it imports us

        return CompiledSystem.from_system(self)

    def apps_on_paths(self) -> np.ndarray:
        """Sorted indices of applications that belong to at least one path."""
        seen: set[int] = set()
        for p in self.paths:
            seen.update(p.apps)
        return np.array(sorted(seen), dtype=np.int64)

    def paths_of_app(self, app: int) -> list[int]:
        """Indices of the paths containing application ``app``."""
        return [k for k, p in enumerate(self.paths) if app in p.apps]

    def effective_rates(self) -> np.ndarray:
        """``R(a_i)`` per application: the *highest* driving-sensor rate over
        the paths containing it (the binding throughput requirement when an
        application serves several paths); 0 for apps on no path (no
        throughput constraint)."""
        rates = self.rates
        out = np.zeros(self.n_apps)
        for p in self.paths:
            r = rates[p.driving_sensor]
            for a in p.apps:
                out[a] = max(out[a], r)
        return out

    def routed_sensors(self, app: int) -> np.ndarray:
        """Boolean mask of sensors with a route to ``app`` (via the paths)."""
        mask = np.zeros(self.n_sensors, dtype=bool)
        for p in self.paths:
            if app in p.apps:
                mask[p.driving_sensor] = True
        return mask

    def _check_route_consistency(self) -> None:
        """``b_ijz`` must vanish for sensors with no route to ``a_i``
        (Section 4.3); apps on no path may still have coefficients (they are
        modeled but unconstrained)."""
        for i in map(int, self.apps_on_paths()):
            mask = self.routed_sensors(i)
            bad = self.comp_coeffs[i][:, ~mask]
            if np.any(bad != 0):
                raise ModelError(
                    f"application {i} has nonzero computation coefficients for "
                    f"sensors without a route to it"
                )

    # ------------------------------------------------------------------
    @classmethod
    def from_paths(
        cls,
        *,
        sensors,
        n_apps,
        n_machines,
        n_actuators,
        paths,
        comp_coeffs,
        latency_limits,
        comm_coeffs=None,
    ) -> "HiperDSystem":
        """Construct directly from a declared path set (Section 4.3 style)."""
        return cls(
            sensors=sensors,
            n_apps=n_apps,
            n_machines=n_machines,
            n_actuators=n_actuators,
            paths=paths,
            comp_coeffs=comp_coeffs,
            latency_limits=latency_limits,
            comm_coeffs=comm_coeffs,
        )

    @classmethod
    def from_dag(
        cls,
        *,
        sensors,
        n_apps,
        n_machines,
        n_actuators,
        sensor_edges,
        app_edges,
        actuator_edges,
        comp_coeffs,
        latency_limits,
        comm_coeffs=None,
    ) -> "HiperDSystem":
        """Construct from DAG edges; the path set is derived by enumeration
        (see :func:`repro.hiperd.dag.enumerate_paths`).  ``latency_limits``
        must align with the enumeration order."""
        from repro.hiperd.dag import enumerate_paths_from_edges, validate_dag

        validate_dag(
            n_apps=n_apps,
            n_sensors=len(sensors),
            n_actuators=n_actuators,
            sensor_edges=sensor_edges,
            app_edges=app_edges,
            actuator_edges=actuator_edges,
        )
        paths = enumerate_paths_from_edges(
            n_apps=n_apps,
            sensor_edges=sensor_edges,
            app_edges=app_edges,
            actuator_edges=actuator_edges,
        )
        return cls(
            sensors=sensors,
            n_apps=n_apps,
            n_machines=n_machines,
            n_actuators=n_actuators,
            paths=paths,
            comp_coeffs=comp_coeffs,
            latency_limits=latency_limits,
            comm_coeffs=comm_coeffs,
        )


def multitasking_factors(counts: np.ndarray) -> np.ndarray:
    """Per-machine multitasking factor: ``1.3 n(m_j)`` when ``n(m_j) >= 2``,
    1 otherwise (a machine running a single application is not slowed)."""
    counts = np.asarray(counts)
    return np.where(counts >= 2, MULTITASK_COEFF * counts, 1.0)
