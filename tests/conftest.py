"""Shared fixtures: the two documented instances and hypothesis defaults."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from femlab import (
    Grid,
    make_pl,
    metric_context,
    model_from_interval,
    rat,
)
from femlab.sampling import nondegenerate_reference

settings.register_profile(
    "femlab",
    deadline=None,
    max_examples=60,
    derandomize=True,
    suppress_health_check=(HealthCheck.too_slow,),
)
settings.load_profile("femlab")


@pytest.fixture(scope="session")
def grid3():
    """Three-node instance used for every frozen value in the docs."""
    return Grid(nodes=(-1, 0, 1), polytope=(0, 1))


@pytest.fixture(scope="session")
def ref3(grid3):
    """Documented reference (0, 1/2, 1): degenerate at the middle node."""
    return make_pl(grid3, (0, rat(1, 2), 1), 0, 1)


@pytest.fixture(scope="session")
def tent3(grid3):
    """The comparison potential (0, 0, 1); all its mass sits at node 0."""
    return make_pl(grid3, (0, 0, 1), 0, 1)


@pytest.fixture(scope="session")
def psi3(grid3, ref3):
    return model_from_interval(grid3, grid3.polytope, ref3)


@pytest.fixture(scope="session")
def ctx3(psi3):
    return metric_context(psi3)


@pytest.fixture(scope="session")
def grid5():
    return Grid(nodes=(-2, -1, 0, 1, 2), polytope=(0, 1))


@pytest.fixture(scope="session")
def ref5(grid5):
    """Nondegenerate reference: charges every node of the five-node grid."""
    return nondegenerate_reference(grid5)


@pytest.fixture(scope="session")
def psi5(grid5, ref5):
    return model_from_interval(grid5, grid5.polytope, ref5)


@pytest.fixture(scope="session")
def ctx5(psi5):
    return metric_context(psi5)
