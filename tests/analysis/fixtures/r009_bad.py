"""R009 fixture: internal use of deprecated entry points (2 findings)."""

from repro.core.metric import robustness_metric
from repro.core.radius import robustness_radius


def legacy_everything(features, feature, parameter):
    one = robustness_radius(feature, parameter, solver_options={"n_starts": 2})
    many = robustness_metric(features, parameter, config={"n_starts": 2})
    return one, many
