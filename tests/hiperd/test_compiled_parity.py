"""The compiled HiPer-D assembly against the per-mapping loop it replaced.

``HiperDSystem.compiled`` builds every mapping's constraint matrix as one
``(P, R, n_sensors)`` tensor.  The oracle below is the per-mapping assembly
the package used before: one computation matrix per mapping, a Python loop
over each path's members and transfers for the latency rows, and the scalar
radius and boundary arithmetic.  Every comparison is bitwise — not
``allclose`` — over randomly drawn systems of every shape the model allows:
generated systems with and without communication, declared paths with
update-path terminal hops, one-application paths and applications on no
path, and systems built from a DAG (including an update path with an empty
chain).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.alloc.mapping import Mapping
from repro.core.norms import L2Norm, get_norm
from repro.engine import RobustnessEngine
from repro.exceptions import InfeasibleAtOriginError
from repro.hiperd.constraints import ConstraintSet, build_constraints
from repro.hiperd.dag import enumerate_paths_from_edges
from repro.hiperd.generators import PAPER_INITIAL_LOAD, generate_system
from repro.hiperd.model import HiperDSystem, Path, Sensor, multitasking_factors
from repro.hiperd.robustness import robustness
from repro.hiperd.slack import slack
from repro.hiperd.timing import computation_coefficients, latency_coefficients

# -- the oracle: per-mapping assembly ------------------------------------------


def oracle_computation(system: HiperDSystem, mapping: Mapping) -> np.ndarray:
    mtf = multitasking_factors(mapping.counts())
    b = system.comp_coeffs[np.arange(system.n_apps), mapping.assignment, :]
    return mtf[mapping.assignment][:, None] * b


def oracle_latency(system: HiperDSystem, mapping: Mapping) -> np.ndarray:
    comp = oracle_computation(system, mapping)
    out = np.zeros((len(system.paths), system.n_sensors))
    for k, path in enumerate(system.paths):
        for a in path.apps:
            out[k] += comp[a]
        for edge in path.edges():
            vec = system.comm_coeffs.get(edge)
            if vec is not None:
                out[k] += vec
        kind, idx = path.terminal
        if kind == "app" and path.apps:
            vec = system.comm_coeffs.get((path.apps[-1], idx))
            if vec is not None:
                out[k] += vec
    return out


def oracle_constraints(system: HiperDSystem, mapping: Mapping) -> ConstraintSet:
    comp = oracle_computation(system, mapping)
    lat = oracle_latency(system, mapping)
    rates = system.effective_rates()
    rows, limits, names, kinds = [], [], [], []
    for i in map(int, system.apps_on_paths()):
        rows.append(comp[i])
        limits.append(1.0 / rates[i])
        names.append(f"T_c[a{i}]")
        kinds.append("comp")
    seen: set[tuple[int, int]] = set()
    for path in system.paths:
        edges = path.edges()
        kind, idx = path.terminal
        if kind == "app" and path.apps:
            edges.append((path.apps[-1], idx))
        for i, p in edges:
            if (i, p) in seen:
                continue
            seen.add((i, p))
            vec = system.comm_coeffs.get((i, p))
            rows.append(
                np.zeros(system.n_sensors) if vec is None else np.asarray(vec, float)
            )
            limits.append(1.0 / rates[i])
            names.append(f"T_n[a{i}->a{p}]")
            kinds.append("comm")
    for k in range(len(system.paths)):
        rows.append(lat[k])
        limits.append(float(system.latency_limits[k]))
        names.append(f"L[{k}]")
        kinds.append("latency")
    return ConstraintSet(
        coefficients=np.array(rows, dtype=float),
        limits=np.array(limits, dtype=float),
        names=tuple(names),
        kinds=tuple(kinds),
    )


def oracle_floor(radius: float) -> float:
    if not np.isfinite(radius):
        return radius
    nearest = round(radius)
    if abs(radius - nearest) <= 1e-9 * max(1.0, abs(radius)):
        radius = float(nearest)
    return float(math.floor(radius)) if radius >= 0 else float(math.ceil(radius))


def oracle_robustness(cs: ConstraintSet, load: np.ndarray, norm):
    """Radii, binding row and boundary load the scalar path computed."""
    gaps = cs.limits - cs.coefficients @ load
    if isinstance(norm, L2Norm):
        norms = np.linalg.norm(cs.coefficients, axis=1)
        degenerate = np.where(gaps > 0, np.inf, np.where(gaps < 0, -np.inf, 0.0))
        radii = np.where(norms > 0, gaps / np.where(norms > 0, norms, 1.0), degenerate)
    else:
        duals = np.array([norm.dual(row) for row in cs.coefficients])
        with np.errstate(divide="ignore", invalid="ignore"):
            radii = np.where(duals > 0, gaps / np.maximum(duals, 1e-300), np.inf)
    k = int(np.argmin(radii))
    c = cs.coefficients[k]
    cc = float(c @ c)
    if not isinstance(norm, L2Norm) and np.any(c != 0):
        boundary = norm.closest_point_on_hyperplane(c, float(cs.limits[k]), load)
    elif cc > 0:
        boundary = load + ((cs.limits[k] - c @ load) / cc) * c
    else:
        boundary = load.copy()
    return radii, k, boundary


def assert_bits(a, b) -> None:
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes(), (a, b)


# -- systems -----------------------------------------------------------------


def _sensors(rng, n_sensors):
    return [Sensor(f"s{z}", float(rng.uniform(5e-3, 5e-2))) for z in range(n_sensors)]


def _coefficients(rng, paths, n_apps, n_machines, n_sensors):
    """Gamma draws, zero for sensors without a route to an on-path app;
    apps on no path keep arbitrary coefficients."""
    routed = np.zeros((n_apps, n_sensors), dtype=bool)
    on_path = np.zeros(n_apps, dtype=bool)
    for p in paths:
        routed[list(p.apps), p.driving_sensor] = True
        on_path[list(p.apps)] = True
    allowed = routed | ~on_path[:, None]
    draw = rng.gamma(2.0, 0.5, size=(n_apps, n_machines, n_sensors))
    return np.where(allowed[:, None, :], draw, 0.0)


def _comm(rng, paths, n_sensors):
    """Declared transfer vectors on a random subset of the path hops."""
    comm = {}
    for p in paths:
        hops = p.edges()
        if p.terminal[0] == "app" and p.apps:
            hops.append((p.apps[-1], p.terminal[1]))
        for hop in hops:
            if rng.random() < 0.7:
                comm[hop] = rng.gamma(2.0, 0.2, size=n_sensors) * (
                    rng.random(n_sensors) < 0.8
                )
    return comm


def generated_case(seed: int):
    rng = np.random.default_rng(seed)
    system = generate_system(
        n_apps=8,
        n_machines=3,
        n_paths=5,
        path_length_range=(1, 4),
        comm_mean=float(rng.choice([0.0, 2.0])),
        seed=seed,
    )
    return system, np.asarray(PAPER_INITIAL_LOAD, dtype=float)


def declared_case(seed: int):
    """Declared paths: 1-app chains, update terminals and off-path apps."""
    rng = np.random.default_rng(seed)
    n_sensors = int(rng.integers(1, 4))
    n_machines = int(rng.integers(1, 5))
    n_on = int(rng.integers(2, 7))
    n_apps = n_on + int(rng.integers(0, 3))  # the extra apps are on no path
    paths = []
    for _ in range(int(rng.integers(1, 6))):
        length = int(rng.integers(1, min(n_on, 3) + 1))
        apps = tuple(int(a) for a in rng.choice(n_on, size=length, replace=False))
        outside = [a for a in range(n_apps) if a not in apps]
        if outside and rng.random() < 0.5:
            terminal = ("app", int(rng.choice(outside)))
        else:
            terminal = ("actuator", 0)
        paths.append(Path(int(rng.integers(n_sensors)), apps, terminal))
    system = HiperDSystem.from_paths(
        sensors=_sensors(rng, n_sensors),
        n_apps=n_apps,
        n_machines=n_machines,
        n_actuators=1,
        paths=paths,
        comp_coeffs=_coefficients(rng, paths, n_apps, n_machines, n_sensors),
        latency_limits=rng.uniform(20.0, 200.0, size=len(paths)),
        comm_coeffs=_comm(rng, paths, n_sensors),
    )
    return system, rng.uniform(1.0, 10.0, size=n_sensors)


def dag_case(seed: int):
    """Sensor-rooted out-trees, plus a multi-input merge application fed by
    tree nodes (update paths) and sometimes directly by a sensor (an update
    path with an empty chain); the merge app and its successor are on no
    path."""
    rng = np.random.default_rng(seed)
    n_sensors = int(rng.integers(1, 4))
    sensor_edges, app_edges, actuator_edges = [], [], []
    n_apps = 0
    for z in range(n_sensors):
        size = int(rng.integers(1, 5))
        nodes = list(range(n_apps, n_apps + size))
        n_apps += size
        sensor_edges.append((z, nodes[0]))
        for k in range(1, size):
            app_edges.append((nodes[int(rng.integers(0, k))], nodes[k]))
        parents = {i for i, _ in app_edges}
        actuator_edges += [(node, 0) for node in nodes if node not in parents]
    if n_apps >= 2 and rng.random() < 0.7:
        merge, after = n_apps, n_apps + 1
        feeders = rng.choice(n_apps, size=2, replace=False)
        app_edges += [(int(i), merge) for i in feeders]
        if rng.random() < 0.5:
            sensor_edges.append((int(rng.integers(n_sensors)), merge))
        app_edges.append((merge, after))
        actuator_edges.append((after, 0))
        n_apps += 2
    n_machines = int(rng.integers(1, 4))
    paths = enumerate_paths_from_edges(
        n_apps=n_apps,
        sensor_edges=sensor_edges,
        app_edges=app_edges,
        actuator_edges=actuator_edges,
    )
    system = HiperDSystem.from_dag(
        sensors=_sensors(rng, n_sensors),
        n_apps=n_apps,
        n_machines=n_machines,
        n_actuators=1,
        sensor_edges=sensor_edges,
        app_edges=app_edges,
        actuator_edges=actuator_edges,
        comp_coeffs=_coefficients(rng, paths, n_apps, n_machines, n_sensors),
        latency_limits=rng.uniform(20.0, 200.0, size=len(paths)),
        comm_coeffs=_comm(rng, paths, n_sensors),
    )
    return system, rng.uniform(1.0, 10.0, size=n_sensors)


CASES = {"generated": generated_case, "declared": declared_case, "dag": dag_case}

cases = st.tuples(st.sampled_from(sorted(CASES)), st.integers(0, 10_000))


def make_case(case, n_mappings: int, load_scale: float = 1.0):
    kind, seed = case
    system, load = CASES[kind](seed)
    rng = np.random.default_rng(seed + 1)
    rows = rng.integers(0, system.n_machines, size=(n_mappings, system.n_apps))
    return system, [Mapping(r, system.n_machines) for r in rows], load * load_scale


# -- the wall ----------------------------------------------------------------


class TestAssemblyParity:
    @given(case=cases, n=st.integers(1, 10))
    def test_rows_match_per_mapping_loop(self, case, n):
        system, mappings, _ = make_case(case, n)
        tensor = system.compiled.coefficients(np.array([m.assignment for m in mappings]))
        for p, m in enumerate(mappings):
            want = oracle_constraints(system, m)
            got = build_constraints(system, m)
            assert_bits(got.coefficients, want.coefficients)
            assert_bits(tensor[p], want.coefficients)
            assert_bits(got.limits, want.limits)
            assert got.names == want.names
            assert got.kinds == want.kinds
            assert_bits(computation_coefficients(system, m), oracle_computation(system, m))
            assert_bits(latency_coefficients(system, m), oracle_latency(system, m))

    def test_kinds_cover_update_and_empty_paths(self):
        """The DAG family really draws the shapes the wall claims to cover."""
        shapes = set()
        for seed in range(200):
            system, _ = dag_case(seed)
            for p in system.paths:
                shapes.add((p.kind, len(p.apps) == 0))
            if len(system.apps_on_paths()) < system.n_apps:
                shapes.add("off-path app")
        assert {("update", True), ("update", False), ("trigger", False), "off-path app"} <= shapes


class TestEngineScalarParity:
    @given(
        case=cases,
        n=st.integers(1, 10),
        norm=st.sampled_from(["l2", "l1", "linf"]),
        apply_floor=st.booleans(),
        load_scale=st.sampled_from([0.25, 1.0, 4.0]),
    )
    def test_engine_scalar_and_oracle_agree(self, case, n, norm, apply_floor, load_scale):
        system, mappings, load = make_case(case, n, load_scale)
        batch = RobustnessEngine(norm=norm).evaluate_hiperd(
            system, mappings, load, apply_floor=apply_floor
        )
        for p, m in enumerate(mappings):
            scalar = robustness(system, m, load, norm=norm, apply_floor=apply_floor)
            cs = oracle_constraints(system, m)
            radii, k, boundary = oracle_robustness(cs, load, get_norm(norm))
            raw = float(radii[k])
            assert_bits(batch.radii[p], scalar.radii)
            assert_bits(scalar.radii, radii)
            assert batch.binding_indices[p] == scalar.binding_index == k
            assert batch.binding_names[p] == scalar.binding_name == cs.names[k]
            assert_bits(batch.boundaries[p], scalar.boundary)
            assert_bits(scalar.boundary, boundary)
            assert_bits(batch.raw_values[p], raw)
            assert_bits(batch.values[p], scalar.value)
            assert_bits(scalar.value, oracle_floor(raw) if apply_floor else raw)
            feasible = bool(np.all(cs.coefficients @ load <= cs.limits))
            assert bool(batch.feasible_at_origin[p]) == scalar.feasible_at_origin == feasible
            want_slack = float(np.min(1.0 - (cs.coefficients @ load) / cs.limits))
            assert_bits(batch.slacks[p], slack(system, m, load))
            assert_bits(batch.slacks[p], want_slack)

    @given(case=cases, n=st.integers(1, 10), load_scale=st.sampled_from([1.0, 4.0, 16.0]))
    def test_require_feasible_names_same_mapping_and_constraint(self, case, n, load_scale):
        system, mappings, load = make_case(case, n, load_scale)
        sets = [oracle_constraints(system, m) for m in mappings]
        bad = [i for i, cs in enumerate(sets) if not cs.satisfied_at(load)]
        engine = RobustnessEngine()
        if not bad:
            engine.evaluate_hiperd(system, mappings, load, require_feasible=True)
            return
        i = bad[0]
        frac = sets[i].fractional_values_at(load)
        worst = int(np.argmax(frac))
        detail = (
            f"constraint {sets[i].names[worst]} violated at lambda_orig "
            f"(fractional value {frac[worst]:.3f})"
        )
        with pytest.raises(InfeasibleAtOriginError) as err:
            engine.evaluate_hiperd(system, mappings, load, require_feasible=True)
        assert str(err.value) == f"mapping {i}: {detail}"
        with pytest.raises(InfeasibleAtOriginError) as err:
            robustness(system, mappings[i], load, require_feasible=True)
        assert str(err.value) == detail

    @given(case=cases, n=st.integers(1, 10))
    def test_array_and_mapping_inputs_agree(self, case, n):
        system, mappings, load = make_case(case, n)
        engine = RobustnessEngine()
        a = engine.evaluate_hiperd(system, mappings, load)
        b = engine.evaluate_hiperd(system, np.array([m.assignment for m in mappings]), load)
        assert a.to_dict() == b.to_dict()
