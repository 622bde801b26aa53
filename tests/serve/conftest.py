"""Fixtures for the serve-layer test suites (helpers in _serve_helpers)."""

import pytest

from repro.dataset.generators import generate_random_table


@pytest.fixture(scope="session")
def slow_relation():
    """A table whose discovery takes long enough (~1.1s with the compiled
    kernels) to observe queueing, deadlines, and cancellation mid-run —
    longer than the HTTP server's 0.5s shutdown poll."""
    return generate_random_table(3000, 10, cardinality=8, seed=1)


@pytest.fixture(scope="session")
def quick_relation():
    """A table whose discovery is quick (tens of ms) but still multi-level."""
    return generate_random_table(400, 6, cardinality=8, seed=1)
