"""Seeded inputs of every workload.

Each input stream draws from its own ``SeedSequence([seed, stream])``, so
the same ``--seed`` always gives the same requests, problems and arrival
times, and changing how much one stream draws leaves the others alone.
The program only ever sees the generated inputs, never the seed.
"""

from __future__ import annotations

import json

import numpy as np

ALLOC_TASKS, ALLOC_MACHINES, ALLOC_TAU = 20, 5, 1.2
FEPIA_COMPONENTS, FEPIA_FEATURES = 3, 2
HOT_PROBLEMS, HOT_SHARE = 32, 0.25

POP_SIZE, POP_SURVIVORS, POP_CLONES, POP_GENERATIONS = 150, 50, 15, 8
POP_NEW = POP_SIZE - POP_SURVIVORS - POP_CLONES

#: input streams, numbered from 1 in this order
_STREAMS = (
    "etc", "mappings", "fepia", "hot", "arrivals", "sample", "population", "clones", "warmup",
)


def rng(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAMS.index(stream) + 1])


def arrival_offsets(seed: int, rate: float, n: int) -> np.ndarray:
    """Poisson arrival times (seconds from the step start) of ``n`` requests.

    The exponential gaps are drawn stratified -- one from each of ``n``
    equal-probability slices of the distribution -- and shuffled, so every
    seed offers the same mix of short and long gaps in a different order.
    How often requests bunch up then no longer varies from seed to seed,
    which would otherwise dominate the spread of the latency tail.
    """
    gen = rng(seed, "arrivals")
    u = (np.arange(n) + gen.random(n)) / n
    gaps = -np.log1p(-u) / rate
    gen.shuffle(gaps)
    return np.cumsum(gaps)


# -- allocation (Eq. 6/7) -----------------------------------------------------


def alloc_etc(seed: int) -> np.ndarray:
    """The ETC matrix every allocation request of a run shares."""
    from repro.etcgen import cvb_etc_matrix

    return cvb_etc_matrix(ALLOC_TASKS, ALLOC_MACHINES, seed=rng(seed, "etc"))


def alloc_problems(seed: int, n: int, stream: str = "mappings") -> list[dict]:
    """``n`` allocation problems on the shared ETC matrix, fresh mappings."""
    etc = alloc_etc(seed).tolist()
    mappings = rng(seed, stream).integers(0, ALLOC_MACHINES, (n, ALLOC_TASKS))
    return [
        {"kind": "allocation", "mapping": m.tolist(), "etc": etc, "tau": ALLOC_TAU}
        for m in mappings
    ]


# -- generic FePIA problems with quadratic impacts (numeric solves) -----------


def fepia_problem(gen: np.random.Generator) -> dict:
    """One wire FePIA problem: quadratic features, each feasible at the origin."""
    origin = gen.uniform(0.5, 1.5, FEPIA_COMPONENTS)
    features = []
    for k in range(FEPIA_FEATURES):
        weights = gen.uniform(0.5, 2.0, FEPIA_COMPONENTS)
        upper = float(weights @ origin**2) * gen.uniform(1.5, 3.0)
        features.append(
            {
                "name": f"phi{k}",
                "impact": {"kind": "quadratic", "weights": weights.tolist()},
                "bounds": {"upper": upper},
            }
        )
    return {
        "kind": "fepia",
        "parameter": {"name": "pi", "origin": origin.tolist()},
        "features": features,
    }


def served_fepia_problems(seed: int, n: int, stream: str = "fepia") -> list[dict]:
    """``n`` served FePIA problems; a quarter (exactly) repeat one of 32 hot
    problems, at seeded positions."""
    hot_gen = rng(seed, "hot")
    hot = [fepia_problem(hot_gen) for _ in range(HOT_PROBLEMS)]
    gen = rng(seed, stream)
    repeats = set(gen.choice(n, int(round(HOT_SHARE * n)), replace=False).tolist())
    return [
        hot[int(gen.integers(HOT_PROBLEMS))] if i in repeats else fepia_problem(gen)
        for i in range(n)
    ]


def population_plan(seed: int) -> tuple[list[dict], list[list[dict]], np.ndarray]:
    """The GA schedule of ``population_numeric``.

    Returns the first generation's problems, the problems each later
    generation adds, and per later generation the indices (into the ranked
    survivors) of the survivors cloned into it.
    """
    gen = rng(seed, "population")
    first = [fepia_problem(gen) for _ in range(POP_SIZE)]
    added = [
        [fepia_problem(gen) for _ in range(POP_NEW)]
        for _ in range(POP_GENERATIONS - 1)
    ]
    pick = rng(seed, "clones")
    clones = np.array(
        [
            pick.choice(POP_SURVIVORS, POP_CLONES, replace=False)
            for _ in range(POP_GENERATIONS - 1)
        ]
    )
    return first, added, clones


def request_body(request_id: str, problem: dict) -> bytes:
    return json.dumps({"id": request_id, "problem": problem}).encode("utf-8")
