"""Shared fixtures: parameter points, ladders, and midpoint trajectories.

Session-scoped because bracket searches dominate the suite's runtime; every
consumer treats them as read-only.
"""

import pytest

from boundstate_lab import (
    FULL_RANGE_POLICY,
    FieldParams,
    IntegratorControls,
    ProblemParams,
    build_ladder,
    integrate,
)
from boundstate_lab.verify import truncate_for_structure


@pytest.fixture(scope="session")
def field33():
    return FieldParams(n=3, p=3.0)


@pytest.fixture(scope="session")
def field42():
    return FieldParams(n=4, p=2.0)


@pytest.fixture(scope="session")
def ladder33(field33):
    return build_ladder(field33, k_max=2, tol=1e-12)


@pytest.fixture(scope="session")
def mid1_full(field33, ladder33):
    """Full-range run from the k=1 bracket midpoint."""
    alpha = ladder33[1].midpoint
    return integrate(ProblemParams(field33, alpha, IntegratorControls()),
                     FULL_RANGE_POLICY)


@pytest.fixture(scope="session")
def mid1_struct(mid1_full):
    """The k=1 midpoint run truncated to its structural span."""
    return truncate_for_structure(mid1_full)
