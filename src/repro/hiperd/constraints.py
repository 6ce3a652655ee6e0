"""The QoS constraint set of a mapped HiPer-D system (FePIA steps 1+3).

Assembles the feature set ``Phi`` of Eq. 9 with its bounds as a flat list of
affine constraints ``coeff . lambda <= limit``:

- **throughput (computation)** — for every application on a path:
  ``T^c_i(lambda) <= 1 / R(a_i)``;
- **throughput (communication)** — for every app-to-app transfer on a path:
  ``T^n_ip(lambda) <= 1 / R(a_i)``;
- **latency** — for every path: ``L_k(lambda) <= L_k^max``.

Transfers with zero communication coefficients are constant (never violate)
and are kept with zero rows so indices stay aligned; the radius machinery
reports them as infinitely robust.

Only the computation and latency rows depend on the mapping, and only
through ``mtf(m(i)) * b[i, m(i)]``.  Everything else — row names, kinds and
limits, which application each row reads, the path membership and the
communication vectors — is compiled once per system into a
:class:`CompiledSystem` (``HiperDSystem.compiled``).  Its
:meth:`~CompiledSystem.coefficients` builds the ``(P, R, n_sensors)``
coefficient tensor of a whole assignment matrix in one pass;
:func:`build_constraints` is its one-mapping view, so the scalar API and the
batched engine assemble the very same rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.alloc.mapping import Mapping
from repro.exceptions import ValidationError
from repro.hiperd.model import HiperDSystem, multitasking_factors

__all__ = ["ConstraintSet", "CompiledSystem", "assignment_matrix", "build_constraints"]


@dataclass(frozen=True)
class ConstraintSet:
    """All QoS constraints of a mapped system, in matrix form.

    ``coefficients[r] . lambda <= limits[r]`` for every row ``r``; ``names``
    and ``kinds`` (``"comp"`` / ``"comm"`` / ``"latency"``) describe the rows.
    """

    coefficients: np.ndarray  # (n_constraints, n_sensors)
    limits: np.ndarray  # (n_constraints,)
    names: tuple[str, ...]
    kinds: tuple[str, ...]

    def __len__(self) -> int:
        return self.limits.size

    def values_at(self, load) -> np.ndarray:
        """Left-hand sides at a given load vector."""
        return self.coefficients @ np.asarray(load, dtype=float)

    def satisfied_at(self, load, *, tol: float = 0.0) -> bool:
        """True when every constraint holds at ``load``."""
        return bool(np.all(self.values_at(load) <= self.limits + tol))

    def fractional_values_at(self, load) -> np.ndarray:
        """Per-constraint value as a fraction of its limit (Section 4.3's
        'fractional value of a QoS attribute')."""
        return self.values_at(load) / self.limits

    def select(self, kind: str) -> "ConstraintSet":
        """Sub-set of one kind (``"comp"``, ``"comm"`` or ``"latency"``)."""
        mask = np.array([k == kind for k in self.kinds], dtype=bool)
        return ConstraintSet(
            coefficients=self.coefficients[mask],
            limits=self.limits[mask],
            names=tuple(n for n, m in zip(self.names, mask) if m),
            kinds=tuple(k for k, m in zip(self.kinds, mask) if m),
        )

    def to_dict(self) -> dict:
        """Encode as a JSON-ready dict (round-trips via :meth:`from_dict`)."""
        from repro.utils.serialization import encode_array

        return {
            "type": "ConstraintSet",
            "version": 1,
            "coefficients": encode_array(self.coefficients),
            "limits": encode_array(self.limits),
            "names": list(self.names),
            "kinds": list(self.kinds),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ConstraintSet":
        """Decode a payload written by :meth:`to_dict`; validates the type tag."""
        from repro.exceptions import ValidationError
        from repro.utils.serialization import decode_array

        if data.get("type") != "ConstraintSet":
            raise ValidationError(
                f"expected type 'ConstraintSet', got {data.get('type')!r}"
            )
        return cls(
            coefficients=decode_array(data["coefficients"]),
            limits=decode_array(data["limits"]),
            names=tuple(data["names"]),
            kinds=tuple(data["kinds"]),
        )


@dataclass(frozen=True)
class CompiledSystem:
    """The mapping-independent structure of a system's constraint set.

    Row ``r`` of every mapping's constraint matrix has name ``names[r]``,
    kind ``kinds[r]`` and limit ``limits[r]``; the rows are the computation
    rows of :attr:`app_rows`, then the constant :attr:`comm_rows`, then one
    latency row per path.  Built once per system by
    :meth:`from_system` (``HiperDSystem.compiled`` caches it); all arrays
    are read-only.
    """

    names: tuple[str, ...]
    kinds: tuple[str, ...]
    #: ``(R,)`` upper bound of every row
    limits: np.ndarray
    #: ``(n_comp,)`` application of each computation row (apps on a path)
    app_rows: np.ndarray
    #: ``(n_comm, n_sensors)`` communication rows, mapping-independent
    comm_rows: np.ndarray
    #: ``(n_paths, max_len)`` member applications in chain order, padded
    #: with ``n_apps`` (an all-zero computation row)
    path_apps: np.ndarray
    #: ``(n_paths, max_hops, n_sensors)`` declared transfer vectors of each
    #: path in chain order (terminal hop last), zero-padded
    path_comm: np.ndarray
    #: ``(n_apps, n_machines, n_sensors)`` the system's ``b_ijz``
    comp_coeffs: np.ndarray

    @classmethod
    def from_system(cls, system: HiperDSystem) -> "CompiledSystem":
        """Compile ``system``; use ``system.compiled`` for the cached copy."""
        rates = system.effective_rates()
        app_rows = system.apps_on_paths()
        names = [f"T_c[a{i}]" for i in app_rows]
        limits = [1.0 / rates[i] for i in app_rows]

        # Communication rows: each transfer on a path once (the sending
        # application's rate applies); undeclared transfers are zero rows.
        comm_rows: list[np.ndarray] = []
        seen: set[tuple[int, int]] = set()
        hops: list[list[np.ndarray]] = []
        for path in system.paths:
            edges = path.edges()
            kind, idx = path.terminal
            if kind == "app" and path.apps:
                edges.append((path.apps[-1], idx))
            hops.append([system.comm_coeffs[e] for e in edges if e in system.comm_coeffs])
            for i, p in edges:
                if (i, p) in seen:
                    continue
                seen.add((i, p))
                vec = system.comm_coeffs.get((i, p))
                comm_rows.append(np.zeros(system.n_sensors) if vec is None else vec)
                limits.append(1.0 / rates[i])
                names.append(f"T_n[a{i}->a{p}]")

        n_paths, n_sensors = len(system.paths), system.n_sensors
        names += [f"L[{k}]" for k in range(n_paths)]
        limits += [float(v) for v in system.latency_limits]
        path_apps = np.full(
            (n_paths, max(len(p.apps) for p in system.paths)), system.n_apps, dtype=np.int64
        )
        path_comm = np.zeros((n_paths, max(map(len, hops)), n_sensors))
        for k, path in enumerate(system.paths):
            path_apps[k, : len(path.apps)] = path.apps
            for h, vec in enumerate(hops[k]):
                path_comm[k, h] = vec
        n_comp, n_comm = app_rows.size, len(comm_rows)
        arrays = {
            "limits": np.array(limits, dtype=float),
            "app_rows": app_rows,
            "comm_rows": np.array(comm_rows, dtype=float).reshape(n_comm, n_sensors),
            "path_apps": path_apps,
            "path_comm": path_comm,
        }
        for arr in arrays.values():
            arr.setflags(write=False)
        return cls(
            names=tuple(names),
            kinds=("comp",) * n_comp + ("comm",) * n_comm + ("latency",) * n_paths,
            comp_coeffs=system.comp_coeffs,
            **arrays,
        )

    def computation(self, assignments: np.ndarray) -> np.ndarray:
        """``(P, n_apps, n_sensors)``: row ``[p, i]`` holds the coefficients
        of ``T^c_i(lambda)`` under mapping ``p`` (multitasking included)."""
        n_apps, n_machines, _ = self.comp_coeffs.shape
        p = assignments.shape[0]
        offsets = assignments + n_machines * np.arange(p)[:, None]
        counts = np.bincount(offsets.ravel(), minlength=p * n_machines)
        mtf = multitasking_factors(counts.reshape(p, n_machines))
        b = self.comp_coeffs[np.arange(n_apps), assignments]
        return np.take_along_axis(mtf, assignments, axis=1)[:, :, None] * b

    def coefficients(self, assignments: np.ndarray) -> np.ndarray:
        """The ``(P, R, n_sensors)`` coefficient tensor of an assignment matrix.

        Latency rows are accumulated path position by path position, then
        each path's transfer vectors in chain order — the order a per-path
        sum takes, so every row is bit-equal to assembling one mapping alone.
        """
        comp = self.computation(assignments)
        p, _, n_sensors = comp.shape
        n_comp = self.app_rows.size
        out = np.empty((p, len(self.names), n_sensors))
        out[:, :n_comp] = comp[:, self.app_rows]
        out[:, n_comp : n_comp + self.comm_rows.shape[0]] = self.comm_rows
        latency = out[:, self.latency_rows]
        latency[...] = 0.0
        padded = np.concatenate([comp, np.zeros((p, 1, n_sensors))], axis=1)
        for pos in range(self.path_apps.shape[1]):
            latency += padded[:, self.path_apps[:, pos]]
        for hop in range(self.path_comm.shape[1]):
            latency += self.path_comm[:, hop]
        return out

    @property
    def latency_rows(self) -> slice:
        """The latency rows, one per path, in path order."""
        return slice(self.app_rows.size + self.comm_rows.shape[0], None)


def assignment_matrix(system: HiperDSystem, mappings) -> np.ndarray:
    """Validate ``mappings`` against ``system`` as a ``(P, n_apps)`` matrix.

    ``mappings`` is an assignment matrix or a sequence of
    :class:`~repro.alloc.mapping.Mapping` objects or assignment rows.
    """
    if not isinstance(mappings, np.ndarray):
        mappings = list(mappings)
        for m in mappings:
            if isinstance(m, Mapping) and (
                m.n_tasks != system.n_apps or m.n_machines != system.n_machines
            ):
                raise ValidationError(
                    f"mapping is {m.n_tasks} apps x {m.n_machines} machines; "
                    f"system has {system.n_apps} x {system.n_machines}"
                )
        mappings = [m.assignment if isinstance(m, Mapping) else m for m in mappings]
    arr = np.asarray(mappings)
    if arr.size == 0:
        raise ValidationError("mappings must be non-empty")
    if arr.ndim != 2 or arr.shape[1] != system.n_apps:
        raise ValidationError(
            f"mappings must form a (P, {system.n_apps}) assignment matrix, "
            f"got shape {arr.shape}"
        )
    if not np.issubdtype(arr.dtype, np.integer):
        if not np.all(arr == np.floor(arr)):
            raise ValidationError("assignment entries must be integers")
    arr = arr.astype(np.int64, copy=False)
    if arr.min() < 0 or arr.max() >= system.n_machines:
        raise ValidationError(
            f"assignment entries must lie in [0, {system.n_machines - 1}]"
        )
    return arr


def build_constraints(system: HiperDSystem, mapping: Mapping) -> ConstraintSet:
    """Assemble the full constraint set for ``mapping`` (Eq. 9 + step 4 bounds)."""
    compiled = system.compiled
    return ConstraintSet(
        coefficients=compiled.coefficients(assignment_matrix(system, [mapping]))[0],
        limits=compiled.limits.copy(),
        names=compiled.names,
        kinds=compiled.kinds,
    )
