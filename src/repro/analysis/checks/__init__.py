"""Built-in checkers.

Importing this package registers every rule with
:mod:`repro.analysis.registry` (each module applies the ``@register``
decorator at import time).
"""

from __future__ import annotations

from repro.analysis.checks.concur import (
    AwaitStraddleRule,
    BlockingInAsyncRule,
    ContextPropagationGapRule,
    FireAndForgetTaskRule,
)
from repro.analysis.checks.frozen import FrozenMutationRule
from repro.analysis.checks.interproc import (
    PoolSharedStateRule,
    SeedProvenanceRule,
    UnrecordedFailureRule,
)
from repro.analysis.checks.pickle_safety import UnpicklableSubmitRule
from repro.analysis.checks.rng import LegacyGlobalRngRule, UnseededDefaultRngRule
from repro.analysis.checks.stale import StaleSuppressionRule

__all__ = [
    "LegacyGlobalRngRule",
    "UnseededDefaultRngRule",
    "UnpicklableSubmitRule",
    "FrozenMutationRule",
    "SeedProvenanceRule",
    "PoolSharedStateRule",
    "UnrecordedFailureRule",
    "BlockingInAsyncRule",
    "AwaitStraddleRule",
    "FireAndForgetTaskRule",
    "ContextPropagationGapRule",
    "StaleSuppressionRule",
]
