"""Deterministic random-number-generator plumbing.

All stochastic components of the library (workload generators, Monte Carlo
precision estimation, query sampling) accept either a seed or a
:class:`numpy.random.Generator`.  These helpers centralise the conversion so
experiments are reproducible end-to-end from a single integer seed.
"""

from __future__ import annotations

import numpy as np

__all__ = ["derive_rng", "spawn_rngs"]

RngLike = "int | np.random.Generator | None"


def derive_rng(seed: "int | np.random.Generator | None") -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from a seed or pass one through.

    ``None`` yields a fresh, OS-entropy-seeded generator; an ``int`` yields a
    deterministic generator; an existing generator is returned unchanged so
    that callers can thread one RNG through a whole experiment.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: "int | np.random.Generator | None", count: int) -> list[np.random.Generator]:
    """Derive ``count`` statistically independent child generators.

    Uses NumPy's ``spawn`` API so children are independent regardless of how
    many draws each consumes — required when simulating per-core or per-query
    randomness that must not depend on iteration order.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    parent = derive_rng(seed)
    return list(parent.spawn(count))


def sample_unit_queries(
    rng: np.random.Generator, count: int, size: int, non_negative: bool = True
) -> np.ndarray:
    """Sample ``count`` L2-normalised dense query vectors of dimension ``size``.

    The paper evaluates with 30 random query vectors per matrix; queries are
    non-negative by default to match the unsigned fixed-point designs.
    """
    queries = rng.standard_normal((count, size))
    if non_negative:
        queries = np.abs(queries)
    norms = np.linalg.norm(queries, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return queries / norms
