"""Random HiPer-D scenario generation (paper Section 4.3).

The experiment generates "a system that consisted of 19 paths", three sensors
(rates 4e-5, 3e-5, 8e-6), three actuators, 20 applications and five machines;
``T^c_ij(lambda) = sum_z b_ijz lambda_z`` with ``b_ijz ~ Gamma(mean 10, task
and machine heterogeneity 0.7)`` for routed sensors (0 otherwise); latency
limits uniform over [750, 1250]; communication times zero; initial loads
``lambda_orig = (962, 380, 240)``.

**Calibration note** (documented in DESIGN.md / EXPERIMENTS.md): taken
literally, those constants are mutually inconsistent — at the stated loads a
typical computation time is tens of thousands of time units, far above both
the latency cap ~1000 and most throughput caps ``1/R``; *every* random
mapping would be infeasible, while the paper's Figure 4 shows positive slack
up to ~0.65.  The generator therefore keeps the paper's *relative* rates and
the uniform [750, 1250] latency shape, but rescales both families so that a
typical constraint sits at a configurable fraction of its limit
(``target_fraction``, default 0.5) for an average mapping.  This preserves
everything the experiment measures (the robustness/slack relationship is
scale-covariant) while making the instance realizable.
"""

from __future__ import annotations

import numpy as np

from repro.alloc.mapping import Mapping
from repro.etcgen.gamma import gamma_mean_cov
from repro.exceptions import ValidationError
from repro.hiperd.model import MULTITASK_COEFF, HiperDSystem, Path, Sensor
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive, check_positive_int

__all__ = ["PAPER_RATES", "PAPER_INITIAL_LOAD", "generate_system", "random_hiperd_mappings"]

#: sensor output data rates from Section 4.3
PAPER_RATES = (4e-5, 3e-5, 8e-6)
#: initial sensor loads from Table 2
PAPER_INITIAL_LOAD = (962.0, 380.0, 240.0)


def _generate_paths(
    rng: np.random.Generator,
    n_paths: int,
    n_apps: int,
    n_sensors: int,
    n_actuators: int,
    length_range: tuple[int, int],
) -> list[Path]:
    """Sample a path set covering every application at least once.

    Paths are trigger paths (sensor -> chain of applications -> actuator)
    with lengths uniform in ``length_range``; applications are shared across
    paths (the paper: "an application may be present in multiple paths").
    Every sensor drives at least one path and every application appears on at
    least one path so that all throughput constraints are defined.
    """
    lo, hi = length_range
    if not (1 <= lo <= hi <= n_apps):
        raise ValidationError(f"bad path length range {length_range}")
    if n_paths < n_sensors:
        raise ValidationError("need at least one path per sensor")
    lengths = rng.integers(lo, hi + 1, size=n_paths)
    # Deal every application into the pool first so each occurs somewhere,
    # then pad with uniform draws.
    total_slots = int(lengths.sum())
    if total_slots < n_apps:
        # Stretch the last paths until every app can appear.
        deficit = n_apps - total_slots
        for k in range(n_paths):
            room = n_apps - lengths[k]
            take = min(room, deficit)
            lengths[k] += take
            deficit -= take
            if deficit == 0:
                break
        total_slots = int(lengths.sum())
    pool = list(rng.permutation(n_apps))
    pool += list(rng.integers(0, n_apps, size=total_slots - n_apps))
    rng.shuffle(pool)

    # Driving sensors: each sensor at least once, rest uniform.
    drivers = list(range(n_sensors)) + list(
        rng.integers(0, n_sensors, size=n_paths - n_sensors)
    )
    rng.shuffle(drivers)

    paths: list[Path] = []
    cursor = 0
    for k in range(n_paths):
        want = int(lengths[k])
        chain: list[int] = []
        seen: set[int] = set()
        while len(chain) < want and cursor < len(pool):
            a = int(pool[cursor])
            cursor += 1
            if a not in seen:
                chain.append(a)
                seen.add(a)
        while len(chain) < want:  # top up if duplicates exhausted the pool
            a = int(rng.integers(0, n_apps))
            if a not in seen:
                chain.append(a)
                seen.add(a)
        paths.append(
            Path(int(drivers[k]), tuple(chain), ("actuator", int(rng.integers(0, n_actuators))))
        )
    return paths


def generate_system(
    *,
    n_apps: int = 20,
    n_machines: int = 5,
    n_sensors: int = 3,
    n_actuators: int = 3,
    n_paths: int = 19,
    rates=PAPER_RATES,
    initial_load=PAPER_INITIAL_LOAD,
    latency_range: tuple[float, float] = (750.0, 1250.0),
    mean_coeff: float = 10.0,
    task_het: float = 0.7,
    machine_het: float = 0.7,
    path_length_range: tuple[int, int] = (2, 5),
    target_fraction: float = 0.5,
    calibrate: bool = True,
    comm_mean: float = 0.0,
    comm_het: float = 0.7,
    seed=None,
) -> HiperDSystem:
    """Generate a random Section-4.3 system instance.

    With ``calibrate=True`` (default) the sensor rates and latency limits are
    rescaled as described in the module docstring; with ``calibrate=False``
    the literal paper constants are used (virtually always infeasible at the
    paper's initial loads — provided for inspection).

    ``comm_mean = 0`` (default) reproduces the paper's zero-communication
    experiments; a positive value draws linear communication-time
    coefficients ``T^n_ip(lambda) = d_ip . lambda`` for every app-to-app
    transfer on a path, with ``d ~ Gamma(comm_mean, comm_het)`` on the
    sending application's routed sensors (data volumes scale with the loads
    that reach the sender).
    """
    n_apps = check_positive_int(n_apps, "n_apps")
    n_machines = check_positive_int(n_machines, "n_machines")
    n_sensors = check_positive_int(n_sensors, "n_sensors")
    n_paths = check_positive_int(n_paths, "n_paths")
    check_positive(target_fraction, "target_fraction")
    rates = np.asarray(rates, dtype=float)
    initial_load = np.asarray(initial_load, dtype=float)
    if rates.shape != (n_sensors,) or initial_load.shape != (n_sensors,):
        raise ValidationError("rates and initial_load must have one entry per sensor")
    rng = ensure_rng(seed)

    paths = _generate_paths(rng, n_paths, n_apps, n_sensors, n_actuators, path_length_range)

    # Routed-sensor masks from the path set.
    routed = np.zeros((n_apps, n_sensors), dtype=bool)
    for p in paths:
        for a in p.apps:
            routed[a, p.driving_sensor] = True

    # CVB-style coefficients: a per-application magnitude q_i, then
    # per-(machine, sensor) variation — zeroed where no route exists.
    q = np.atleast_1d(gamma_mean_cov(mean_coeff, task_het, size=n_apps, seed=rng))
    coeffs = np.zeros((n_apps, n_machines, n_sensors))
    for i in range(n_apps):
        if machine_het == 0.0:
            draw = np.full((n_machines, n_sensors), q[i])
        else:
            alpha = 1.0 / (machine_het**2)
            draw = rng.gamma(shape=alpha, size=(n_machines, n_sensors)) * (
                q[i] * machine_het**2
            )
        coeffs[i] = np.where(routed[i][None, :], draw, 0.0)

    raw_latency = rng.uniform(latency_range[0], latency_range[1], size=n_paths)

    # Optional linear communication coefficients on the path edges.
    comm_coeffs: dict[tuple[int, int], np.ndarray] = {}
    if comm_mean > 0.0:
        edges: set[tuple[int, int]] = set()
        for p in paths:
            edges.update(p.edges())
        for i, pdst in sorted(edges):
            mask = routed[i]
            draw = np.where(
                mask,
                np.atleast_1d(
                    gamma_mean_cov(comm_mean, comm_het, size=n_sensors, seed=rng)
                ),
                0.0,
            )
            comm_coeffs[(i, pdst)] = draw

    if not calibrate:
        return HiperDSystem.from_paths(
            sensors=[Sensor(f"s{z}", float(rates[z])) for z in range(n_sensors)],
            n_apps=n_apps,
            n_machines=n_machines,
            n_actuators=n_actuators,
            paths=paths,
            comp_coeffs=coeffs,
            latency_limits=raw_latency,
            comm_coeffs=comm_coeffs,
        )

    # --- calibration -----------------------------------------------------
    # The slack of a mapping is set by its *worst* constraint, so each limit
    # family (throughput via rates, latency via L_max) is scaled so that the
    # median random mapping's worst fraction within the family equals
    # ``target_fraction``.  Sample a small batch of random mappings and
    # measure directly.
    probe = HiperDSystem.from_paths(
        sensors=[Sensor(f"s{z}", float(rates[z])) for z in range(n_sensors)],
        n_apps=n_apps,
        n_machines=n_machines,
        n_actuators=n_actuators,
        paths=paths,
        comp_coeffs=coeffs,
        latency_limits=raw_latency,
        comm_coeffs=comm_coeffs,
    )
    compiled = probe.compiled
    # One draw per probe mapping: a single (40, n_apps) draw would consume
    # the stream differently and move every calibrated system.
    assignments = np.array([rng.integers(0, n_machines, size=n_apps) for _ in range(40)])
    coefficients = compiled.coefficients(assignments)
    frac = (coefficients.reshape(-1, n_sensors) @ initial_load).reshape(
        len(assignments), -1
    ) / compiled.limits
    kinds = np.asarray(compiled.kinds)
    # Both computation and communication throughput limits scale with the
    # rates, so calibrate them together.
    worst_comp = frac[:, kinds != "latency"].max(axis=1)
    worst_lat = frac[:, kinds == "latency"].max(axis=1)
    # Throughput: fraction scales with the rate, so divide rates by the
    # needed limit inflation.
    phi = target_fraction / float(np.median(worst_comp))
    rates_cal = rates * phi
    # Latency: inflate the limits directly.
    psi = float(np.median(worst_lat)) / target_fraction
    latency_cal = raw_latency * psi

    return HiperDSystem.from_paths(
        sensors=[Sensor(f"s{z}", float(rates_cal[z])) for z in range(n_sensors)],
        n_apps=n_apps,
        n_machines=n_machines,
        n_actuators=n_actuators,
        paths=paths,
        comp_coeffs=coeffs,
        latency_limits=latency_cal,
        comm_coeffs=comm_coeffs,
    )


def random_hiperd_mappings(
    system: HiperDSystem,
    n_mappings: int,
    seed=None,
) -> list[Mapping]:
    """Uniformly random app-to-machine mappings for a HiPer-D system."""
    rng = ensure_rng(seed)
    rows = rng.integers(0, system.n_machines, size=(n_mappings, system.n_apps))
    return [Mapping(row, system.n_machines) for row in rows]
