"""Shared test fixtures and hypothesis configuration."""

from __future__ import annotations

import importlib
import warnings

import numpy as np
import pytest

try:  # hypothesis is an optional test dependency
    from hypothesis import HealthCheck, settings
except ImportError:  # pragma: no cover - exercised only without hypothesis
    pass
else:
    # When a property fails, hypothesis's pytest plugin imports libcst to
    # write a fix patch, and libcst's import-time DeprecationWarning (from
    # mypy_extensions) becomes an error under the suite's filter: pytest then
    # prints INTERNALERROR instead of the falsifying example.  Import it once
    # here with that warning silenced; the suite's filter is unchanged.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        try:
            importlib.import_module("hypothesis.extra._patching")
        except ImportError:  # pragma: no cover - libcst not installed
            pass
    # A single moderate profile: deterministic, no deadline (numeric solves
    # vary in speed on shared CI machines).
    settings.register_profile(
        "repro",
        deadline=None,
        max_examples=50,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.load_profile("repro")


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for tests."""
    return np.random.default_rng(12345)
