"""R009 fixture: the modern spellings — clean."""

from repro.core.config import SolverConfig
from repro.core.metric import robustness_metric
from repro.engine.fault import solve_radius_tasks_isolated


def modern_everything(tasks, features, parameter):
    config = SolverConfig(n_starts=2, pool_size=2)
    solved, failures = solve_radius_tasks_isolated(
        tasks, config, on_error="record", backend="process"
    )
    metric = robustness_metric(features, parameter, config=config)
    none_is_fine = robustness_metric(features, parameter, solver_options=None)
    return solved, failures, metric, none_is_fine
