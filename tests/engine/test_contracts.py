"""Runtime contracts behind Eqs. 1-2: impacts are pure functions of ``pi``.

The multi-start solver, the Monte-Carlo fallback and the validators re-read
the points they evaluate, and every radius is measured from ``pi_orig``.  An
impact that writes into the array it is handed would silently corrupt later
results and the caller's origin (on ``f(pi) = pi . pi <= 10`` from
``(1, 1, 1)`` a ``pi[0] = 0`` write yields 1.748 instead of the exact
``sqrt(10) - sqrt(3) = 1.430``).  :class:`~repro.core.impact.CallableImpact`
hands user code a read-only view of ``pi`` and
:class:`~repro.core.perturbation.PerturbationParameter` keeps a read-only
copy of its origin, so the write raises ``ValueError`` at the write, on
every backend.  The batch post-conditions (no silent NaN, ``rho`` = min of
the radii) are covered by ``test_sanitize.py`` and
``tests/faults/test_sanitizer_chaos.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.alloc.mapping import Mapping
from repro.core.config import SolverConfig
from repro.core.features import FeatureBounds, PerformanceFeature
from repro.core.impact import AffineImpact, CallableImpact, ScaledImpact, SumImpact
from repro.core.multi import MultiParameterAnalysis
from repro.core.perturbation import PerturbationParameter
from repro.engine import RobustnessEngine
from repro.faults import FaultyImpact
from repro.hiperd.generators import generate_system
from repro.hiperd.nonlinear import power_law_analysis
from repro.serve.protocol import QuadraticImpact


def _writes_pi(pi):
    pi[0] = 0.0
    return float(pi @ pi)


def _quad(pi):
    return float(pi @ pi)


def _doubles_pi_in_place(pi):
    pi *= 2.0
    return pi


def _writing_feature() -> PerformanceFeature:
    return PerformanceFeature(
        "phi", CallableImpact(_writes_pi), FeatureBounds.upper_only(10.0)
    )


class TestReadOnlyPi:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_impact_writing_pi_raises_at_the_write(self, backend):
        origin = np.ones(3)
        param = PerturbationParameter("pi", origin)
        engine = RobustnessEngine(backend=backend, config=SolverConfig(pool_size=2))
        with pytest.raises(ValueError, match="read-only") as err:
            engine.evaluate_population([([_writing_feature()], param)])
        if backend == "serial":
            assert err.traceback[-1].name == "_writes_pi"
        assert np.array_equal(param.origin, np.ones(3))
        assert np.array_equal(origin, np.ones(3))

    def test_origin_is_a_read_only_copy(self):
        mine = np.array([1.0, 2.0])
        param = PerturbationParameter("pi", mine)
        with pytest.raises(ValueError, match="read-only"):
            param.origin[0] = 1.0
        assert mine.flags.writeable
        mine[0] = 5.0
        assert param.origin.tolist() == [1.0, 2.0]

    def test_callable_impact_leaves_the_callers_array_writeable(self):
        pi = np.array([1.0, 2.0])
        assert CallableImpact(_quad)(pi) == 5.0
        assert pi.flags.writeable

    @pytest.mark.parametrize("entry", ["call", "gradient", "batch"])
    def test_every_entry_point_hands_over_a_read_only_view(self, entry):
        impact = CallableImpact(_writes_pi, grad=_doubles_pi_in_place)
        pi = np.array([1.0, 2.0])
        with pytest.raises(ValueError, match="read-only"):
            if entry == "call":
                impact(pi)
            elif entry == "gradient":
                impact.gradient(pi)
            else:
                impact.batch(np.array([pi, pi]))
        assert pi.tolist() == [1.0, 2.0]


def _multi_impacts():
    analysis = (
        MultiParameterAnalysis()
        .with_parameter("C", origin=[5.0, 4.0])
        .with_parameter("s", origin=[1.0])
        .add_feature("F", impacts={"C": _quad, "s": [9.0]}, upper=60.0)
    )
    (bf,) = analysis._features
    return {
        "multi-joint": (analysis._joint_feature(bf).impact, 3),
        "multi-marginal": (analysis._marginal_feature(bf, "C").impact, 2),
    }


def _power_law_impacts():
    system = generate_system(seed=1, n_apps=6, n_paths=4)
    mapping = Mapping(np.arange(6) % system.n_machines, system.n_machines)
    load = np.array([50.0, 30.0, 20.0])
    analysis = power_law_analysis(system, mapping, load, np.full((6, 3), 1.5))
    out = {}
    for feature in analysis.features:
        out.setdefault(f"power-law-{feature.name.split('[')[0]}", (feature.impact, 3))
    return out


def _shipped_impacts():
    quad = QuadraticImpact([1.0, 2.0, 3.0])
    affine = AffineImpact([1.0, -2.0, 0.5], 0.25)
    return {
        "affine": (affine, 3),
        "quadratic": (quad, 3),
        "faulty": (FaultyImpact(quad, mode="nan", on_call=10**9), 3),
        "sum": (SumImpact([affine, quad]), 3),
        "scaled": (ScaledImpact(quad, 2.0), 3),
        "callable": (CallableImpact(_quad, grad=lambda pi: 2.0 * pi), 3),
        **_multi_impacts(),
        **_power_law_impacts(),
    }


SHIPPED = _shipped_impacts()


class TestShippedImpactsArePure:
    """Every impact class the library ships evaluates on a read-only ``pi``:
    none of them writes into the point it is handed."""

    @pytest.mark.parametrize("name", sorted(SHIPPED))
    def test_read_only_inputs(self, name):
        impact, dim = SHIPPED[name]
        pi = np.linspace(1.0, 2.0, dim)
        pi.setflags(write=False)
        rows = np.array([pi, pi + 0.5])
        rows.setflags(write=False)

        value = impact(pi)
        grad = impact.gradient(pi)
        batch = impact.batch(rows)

        assert np.isfinite(value)
        assert grad is None or np.all(np.isfinite(grad))
        assert batch[0] == pytest.approx(value)
        assert pi.tolist() == np.linspace(1.0, 2.0, dim).tolist()
