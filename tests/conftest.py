"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, settings

# The property-based/differential suites (tests/properties/) run under a
# fixed, derandomized profile by default: no wall-clock deadline (the
# 1-CPU CI runner is slow and shared) and derandomized example generation,
# so every run of the suite is deterministic.  Export
# HYPOTHESIS_PROFILE=explore locally for randomized bug-hunting runs.
settings.register_profile(
    "repro-deterministic",
    deadline=None,
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("explore", deadline=None, max_examples=200)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "repro-deterministic"))

from repro.core.bounds import RoleAggregates
from repro.core.costs import RoleCosts, TaskCosts
from repro.sim.crypto import KeyPair


@pytest.fixture
def paper_costs() -> RoleCosts:
    """The paper's Section V-A cost aggregates (in Algos)."""
    return RoleCosts.paper_defaults()


@pytest.fixture
def paper_task_costs() -> TaskCosts:
    return TaskCosts.paper_defaults()


@pytest.fixture
def small_aggregates() -> RoleAggregates:
    """Hand-sized role aggregates for bound arithmetic tests."""
    return RoleAggregates(
        stake_leaders=8.0,
        stake_committee=16.0,
        stake_others=26.0,
        min_leader=3.0,
        min_committee=4.0,
        min_other=2.0,
    )


@pytest.fixture
def keypair() -> KeyPair:
    return KeyPair.generate("test-keypair")
