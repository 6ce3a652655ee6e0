"""``find_ab_pair`` and ``find_flat_band`` against the Python sweeps they replaced.

The oracles below are the original per-pair sweep (one ``ABPair`` per
candidate pair, kept when its ratio is strictly larger) and the dict
grouping of the flat band.  Slack and robustness are drawn on coarse grids
so that equal ratios, equal robustness and slack gaps of exactly
``slack_tolerance`` all occur.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.experiments.experiment2 import (
    ABPair,
    ExperimentTwoResult,
    find_ab_pair,
    find_flat_band,
)
from repro.hiperd.generators import PAPER_INITIAL_LOAD, generate_system

SYSTEM = generate_system(seed=0)
NAMES = SYSTEM.compiled.names
SRC = Path(__file__).resolve().parents[2] / "src"


def oracle_ab_pair(result, *, slack_tolerance=0.01, min_robustness=1.0):
    """The original sweep; ``None`` when no pair lies within the window."""
    feas = np.flatnonzero(result.feasible & (result.robustness >= min_robustness))
    if feas.size < 2:
        raise ValueError("not enough feasible mappings to form a pair")
    order = feas[np.argsort(result.slack[feas])]
    best = None
    sl, rho = result.slack, result.robustness
    for ii in range(order.size):
        i = order[ii]
        jj = ii + 1
        while jj < order.size and sl[order[jj]] - sl[i] <= slack_tolerance:
            j = order[jj]
            lo, hi = (i, j) if rho[i] <= rho[j] else (j, i)
            pair = ABPair(
                index_a=int(lo),
                index_b=int(hi),
                robustness_a=float(rho[lo]),
                robustness_b=float(rho[hi]),
                slack_a=float(sl[lo]),
                slack_b=float(sl[hi]),
            )
            if best is None or pair.ratio > best.ratio:
                best = pair
            jj += 1
    return best


def oracle_flat_band(result, *, min_size=5):
    """The original dict grouping; the dominant name breaks count ties by
    the lowest constraint row."""
    feas = np.flatnonzero(result.feasible)
    if feas.size == 0:
        raise ValueError("no feasible mappings to form a band")
    groups: dict[float, list[int]] = {}
    for k in feas:
        groups.setdefault(float(result.robustness[k]), []).append(int(k))
    best = None
    for rho, idxs in groups.items():
        if len(idxs) < min_size:
            continue
        idx = np.asarray(idxs)
        names = [result.binding_names[k] for k in idxs]
        dominant = max(sorted(set(names), key=NAMES.index), key=names.count)
        band = (idx, rho, float(result.slack[idx].min()), float(result.slack[idx].max()), dominant)
        if best is None or band[3] - band[2] > best[3] - best[2]:
            best = band
    if best is None:
        raise ValueError(f"no robustness group of size >= {min_size}")
    return best


def make_result(seed: int, n: int, grid: float) -> ExperimentTwoResult:
    """``n`` mappings with slack on a ``grid`` lattice (some infeasible) and
    small-integer robustness."""
    rng = np.random.default_rng(seed)
    slack = rng.integers(-3, 30, size=n) * grid
    robustness = rng.integers(0, 9, size=n).astype(float)
    names = tuple(rng.choice(NAMES[-4:] + NAMES[:2], size=n))
    return ExperimentTwoResult(
        system=SYSTEM,
        assignments=np.zeros((n, SYSTEM.n_apps), dtype=np.int64),
        initial_load=np.asarray(PAPER_INITIAL_LOAD, dtype=float),
        robustness=robustness,
        slack=slack,
        binding_names=names,
        binding_kinds=tuple(SYSTEM.compiled.kinds[NAMES.index(x)] for x in names),
    )


params = {
    "seed": st.integers(0, 10_000),
    "n": st.integers(1, 80),
    # 1/64 steps make slack gaps of exactly the 1/32 and 1/64 tolerances.
    "grid": st.sampled_from([0.005, 0.01, 1 / 64]),
}


class TestFindABPair:
    @given(
        **params,
        slack_tolerance=st.sampled_from([0.0, 0.01, 1 / 64, 1 / 32, 0.1]),
        min_robustness=st.sampled_from([0.5, 1.0, 3.0]),
    )
    def test_matches_sweep(self, seed, n, grid, slack_tolerance, min_robustness):
        result = make_result(seed, n, grid)
        kwargs = {"slack_tolerance": slack_tolerance, "min_robustness": min_robustness}
        try:
            want = oracle_ab_pair(result, **kwargs)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                find_ab_pair(result, **kwargs)
            return
        if want is None:  # no pair in the window: the sweep used to trip an assert
            with pytest.raises(ValueError, match="within slack"):
                find_ab_pair(result, **kwargs)
            return
        assert find_ab_pair(result, **kwargs) == want

    def test_paper_run_matches_sweep(self):
        from repro.experiments.experiment2 import run_experiment_two

        result = run_experiment_two(n_mappings=300, seed=4)
        assert find_ab_pair(result) == oracle_ab_pair(result)


class TestFindFlatBand:
    @given(**params, min_size=st.integers(1, 6))
    def test_matches_grouping(self, seed, n, grid, min_size):
        result = make_result(seed, n, grid)
        try:
            idx, rho, lo, hi, name = oracle_flat_band(result, min_size=min_size)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                find_flat_band(result, min_size=min_size)
            return
        band = find_flat_band(result, min_size=min_size)
        assert np.array_equal(band.indices, idx)
        assert (band.robustness, band.slack_min, band.slack_max) == (rho, lo, hi)
        assert band.binding_name == name

    def test_count_tie_independent_of_hash_seed(self):
        """A 2-2 tie between binding constraints resolves to the lower row,
        whatever the interpreter's string hash seed."""
        script = """
import numpy as np
from repro.experiments.experiment2 import ExperimentTwoResult, find_flat_band
from repro.hiperd.generators import PAPER_INITIAL_LOAD, generate_system

system = generate_system(seed=0)
names = ("L[2]", "T_c[a3]", "L[2]", "T_c[a3]", "L[0]")
result = ExperimentTwoResult(
    system=system,
    assignments=np.zeros((5, system.n_apps), dtype=np.int64),
    initial_load=np.asarray(PAPER_INITIAL_LOAD),
    robustness=np.array([7.0, 7.0, 7.0, 7.0, 3.0]),
    slack=np.array([0.2, 0.3, 0.4, 0.5, -0.1]),
    binding_names=names,
    binding_kinds=tuple("latency" if n[0] == "L" else "comp" for n in names),
)
print(find_flat_band(result, min_size=4).binding_name)
"""
        answers = set()
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
            out = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
            )
            answers.add(out.stdout.strip())
        assert answers == {"T_c[a3]"}
