"""O(1) engine stand-ins for schedule-level serving tests.

Schedule-level properties (batch formation, routing, admission,
conservation, replay) only need *when* batches run and *how long* they
take, not real Top-K math — these stubs make those suites run in
milliseconds.  Importable from any test module because ``tests/`` is on
``sys.path`` once ``tests/conftest.py`` loads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from hypothesis import strategies as st

from repro.core.reference import TopKResult
from repro.serving.batcher import ServiceTable

__all__ = ["StubBatchEngine", "service_tables"]


class _StubCollection:
    """Just enough collection surface for cache keying (digest + width)."""

    def __init__(self, digest: str, n_cols: int):
        self.digest = str(digest)
        self.n_cols = int(n_cols)


@dataclass(frozen=True)
class _StubBatch:
    topk: "list[TopKResult]"
    seconds: float
    energy_j: float


class _StubMatrix:
    def __init__(self, n_cols: int):
        self.n_cols = int(n_cols)


class StubBatchEngine:
    """A deterministic ``query_batch`` engine with O(1) service time.

    Service time (``batch_seconds``) is affine in the batch size; the
    returned top-k is a distinctive per-engine ``marker`` so tests can tell
    which engine served a request.
    """

    def __init__(self, base_s: float = 1e-3, per_query_s: float = 2e-4,
                 power_w: float = 40.0, marker: int = 0, n_cols: int = 8,
                 digest: "str | None" = None):
        self.base_s = float(base_s)
        self.per_query_s = float(per_query_s)
        self.power_w = float(power_w)
        self.marker = int(marker)
        self.matrix = _StubMatrix(n_cols)
        if digest is not None:
            # Opt into cache-mode runs: ClusterRuntime keys its exact-result
            # cache on the replica's collection digest.
            self.collection = _StubCollection(digest, n_cols)

    def batch_seconds(self, n_queries):
        return self.base_s + self.per_query_s * n_queries

    def query_batch(self, queries, top_k):
        queries = np.atleast_2d(queries)
        seconds = self.batch_seconds(len(queries))
        topk = [
            TopKResult(
                indices=np.array([self.marker], dtype=np.int64),
                values=np.array([float(q.sum())]),
            )
            for q in queries
        ]
        return _StubBatch(topk=topk, seconds=seconds,
                          energy_j=self.power_w * seconds)


@st.composite
def _service_table(draw) -> ServiceTable:
    # Starts at 1 and reaches 8 or 16, covering every max_batch_size the
    # property suites draw (at most 8), as a measured table does.
    inner = draw(st.lists(
        st.integers(min_value=2, max_value=7), max_size=3, unique=True,
    ))
    sizes = [1, *sorted(inner), draw(st.sampled_from([8, 16]))]
    first = draw(st.sampled_from([0.0, 1e-4, 2e-3, 2e-2]))
    steps = draw(st.lists(
        st.sampled_from([0.0, 1e-4, 5e-4, 3e-3]),
        min_size=len(sizes) - 1, max_size=len(sizes) - 1,
    ))
    return ServiceTable(tuple(sizes), tuple(np.cumsum([first, *steps])))


#: A runtime's recorded service clock: ``None`` (the engines' declared
#: ``batch_seconds``) or one frozen non-decreasing table up to batch size 8
#: or more.
service_tables = st.none() | _service_table()
