"""Batched robustness evaluation engine.

:class:`RobustnessEngine` evaluates the paper's robustness metric for whole
populations of mappings in one call — vectorized closed forms for the affine
systems (allocation Eq. 6, HiPer-D Eqs. 10-11), an LRU solve cache (with an
optional on-disk tier, the engine's ``store=`` path) and a pluggable
execution backend for non-affine impacts.  Batched results are
bit-for-bit identical to the per-mapping scalar API.

See :mod:`repro.engine.engine` for the evaluator,
:mod:`repro.engine.backends` for the execution-backend protocol
(serial / process),
:mod:`repro.engine.cache` for the solve cache and its disk tier and
:mod:`repro.engine.fault` for the fault-isolated scheduler
(retries, per-task timeouts, crash attribution, failure records).
"""

from repro.engine.backends import (
    BACKEND_NAMES,
    BackendCapabilities,
    BackendSpec,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    resolve_backend,
)
from repro.engine.cache import RadiusCache, norm_cache_key
from repro.engine.engine import (
    AllocationBatchResult,
    BatchRobustnessResult,
    HiperdBatchResult,
    RobustnessEngine,
)
from repro.engine.fault import (
    FailureRecord,
    RetryPolicy,
    solve_radius_tasks_isolated,
)

__all__ = [
    "AllocationBatchResult",
    "BatchRobustnessResult",
    "HiperdBatchResult",
    "RobustnessEngine",
    "RadiusCache",
    "norm_cache_key",
    "solve_radius_tasks_isolated",
    "RetryPolicy",
    "FailureRecord",
    "BACKEND_NAMES",
    "BackendCapabilities",
    "BackendSpec",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "resolve_backend",
]
