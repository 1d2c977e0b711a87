"""Shared fixtures: small deterministic matrices, queries, serving stubs."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.data.synthetic import synthetic_embeddings
from repro.utils.rng import sample_unit_queries

try:  # Hypothesis profiles: `dev` (fast, default) vs `ci` (thorough).
    from hypothesis import settings as _hyp_settings

    _hyp_settings.register_profile("ci", max_examples=200, deadline=None)
    # `dev` is tier-1: derandomised, so a run neither depends on nor feeds
    # the local `.hypothesis/` example database; `ci` keeps random search.
    _hyp_settings.register_profile(
        "dev", max_examples=25, deadline=None, derandomize=True
    )
    _hyp_settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))
except ImportError:  # property suites will skip/fail on their own imports
    pass


def pytest_collection_modifyitems(items):
    """Tier the suite: property suites join the ``slow`` marker tier.

    ``pytest -m "not slow"`` is the fast lane (unit + integration);
    the plain tier-1 run still executes everything.  CI runs the full tier
    with ``HYPOTHESIS_PROFILE=ci`` for more examples per property.
    """
    for item in items:
        if "tests/property/" in str(item.fspath).replace("\\", "/"):
            item.add_marker(pytest.mark.slow)


@pytest.fixture
def rng():
    """A deterministic RNG for ad-hoc draws inside tests."""
    return np.random.default_rng(1234)


@pytest.fixture
def small_matrix():
    """A 2 000 x 256 uniform embedding matrix (avg 12 nnz/row)."""
    return synthetic_embeddings(
        n_rows=2000, n_cols=256, avg_nnz=12, distribution="uniform", seed=7
    )


@pytest.fixture
def gamma_matrix():
    """A 2 000 x 256 Γ-distributed matrix (has empty rows)."""
    return synthetic_embeddings(
        n_rows=2000, n_cols=256, avg_nnz=8, distribution="gamma", seed=11
    )


@pytest.fixture
def query(rng):
    """One L2-normalised non-negative query of dimension 256."""
    return sample_unit_queries(rng, 1, 256)[0]


@pytest.fixture
def queries(rng):
    """Five L2-normalised non-negative queries of dimension 256."""
    return sample_unit_queries(rng, 5, 256)


# Serving stubs for schedule-level tests live in tests/serving_stubs.py
# (importable as ``from serving_stubs import StubBatchEngine`` because this
# conftest's directory joins sys.path).
