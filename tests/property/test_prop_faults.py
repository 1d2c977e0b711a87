"""Property suite: the serving tier's contract *under injected faults*.

The fault-injection layer extends the cluster runtime's headline guarantees
(determinism, conservation, exactness) to degraded schedules.  Over
arbitrary arrival patterns, fleet shapes and generated fault plans:

* **Conservation** — every offered request reaches exactly one terminal
  state (served, cache hit, rejected, or typed failed); no request hangs,
  none is double-delivered, even when crashes strand whole batches.
* **Deterministic replay** — a run under a plan replays trace-identically
  (every dispatch, retry, hedge, failover and health transition), which is
  the decision-lock the live daemon's ``verify`` op leans on.
* **Bit-identity** — a request served under a fault plan returns results
  bit-identical to the clean run (failover changes *where and when* a query
  runs, never *what* it computes).
* **Exactly-once under hedging** — hedge twins never double-deliver.

Schedule-level properties run on O(1) stub engines (hypothesis); the
bit-identity property runs on real engines over a shared collection.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from serving_stubs import StubBatchEngine
from repro.core.collection import compile_collection
from repro.core.engine import TopKSpmvEngine
from repro.data.synthetic import synthetic_embeddings
from repro.hw.design import PAPER_DESIGNS
from repro.serving import ClusterRuntime, poisson_arrivals
from repro.serving.batcher import CACHE_HIT, FAILED, REJECTED, SERVED
from repro.serving.faults import FaultPlan, ResilienceConfig
from repro.utils.rng import sample_unit_queries

arrival_lists = st.lists(
    st.floats(min_value=0.0, max_value=0.05, allow_nan=False),
    min_size=1,
    max_size=32,
)

fault_params = st.tuples(
    st.integers(min_value=1, max_value=4),      # replicas
    st.integers(min_value=0, max_value=7),      # plan seed
    st.integers(min_value=0, max_value=3),      # crashes requested
    st.integers(min_value=0, max_value=2),      # slow windows
    st.integers(min_value=0, max_value=3),      # engine faults
    st.integers(min_value=0, max_value=3),      # max retries
    st.sampled_from([None, 5e-3, 2e-2]),        # hedge_after_s
)


def _make_runtime(params):
    n_replicas, seed, n_crashes, n_slow, n_faults, retries, hedge = params
    plan = FaultPlan.generate(
        seed=seed,
        n_replicas=n_replicas,
        horizon_s=0.1,
        n_crashes=n_crashes,
        n_slow=n_slow,
        n_engine_faults=n_faults,
        mean_downtime_s=0.02,
    )
    replicas = [
        StubBatchEngine(base_s=1e-3, per_query_s=2e-4, marker=r)
        for r in range(n_replicas)
    ]
    return ClusterRuntime(
        replicas,
        router="least-outstanding",
        max_batch_size=4,
        max_wait_s=1e-4,
        fault_plan=plan,
        resilience=ResilienceConfig(
            max_retries=retries,
            backoff_base_s=1e-3,
            hedge_after_s=hedge,
            seed=seed,
        ),
    )


@settings(deadline=None)
@given(arrivals=arrival_lists, params=fault_params)
# Three engine faults strike the only replica DOWN before request 1 arrives:
# it is rejected with ``replica == -1`` and must still be counted.
@example(arrivals=[0.0, 0.03125], params=(1, 0, 0, 2, 3, 2, None))
def test_every_request_terminal_exactly_once_under_faults(arrivals, params):
    runtime = _make_runtime(params)
    n = len(arrivals)
    results, report = runtime.run(np.ones((n, 8)), np.array(arrivals), top_k=1)
    assert report.n_offered == n
    statuses = {t.request_id: t.status for t in report.trace}
    assert sorted(statuses) == list(range(n))   # one trace entry per request
    assert set(statuses.values()) <= {SERVED, CACHE_HIT, REJECTED, FAILED}
    for rid in range(n):
        if statuses[rid] in (REJECTED, FAILED):
            assert results[rid] is None
        else:
            assert results[rid] is not None
    assert (
        report.n_served + report.n_cache_hits + report.n_rejected
        + report.n_failed
    ) == n
    # Exactly-once: a request appears in at most one *delivered* batch.
    # (Batches lost to crashes or engine faults never enter the log.)
    delivered = [i for b in report.batches for i in b.indices]
    assert len(delivered) == len(set(delivered))
    assert sorted(delivered) == sorted(
        rid for rid, s in statuses.items() if s == SERVED
    )


@settings(deadline=None)
@given(arrivals=arrival_lists, params=fault_params)
def test_fault_schedule_replays_trace_identically(arrivals, params):
    n = len(arrivals)
    queries = np.ones((n, 8))
    arrivals = np.array(arrivals)
    first_rt, second_rt = _make_runtime(params), _make_runtime(params)
    _, first = first_rt.run(queries, arrivals, top_k=1)
    _, second = second_rt.run(queries, arrivals, top_k=1)
    assert first.trace == second.trace          # float-exact, field by field
    assert first.fault_stats == second.fault_stats
    assert first.to_dict() == second.to_dict()
    assert [
        (b.indices, b.dispatch_s, b.service_s) for b in first.batches
    ] == [(b.indices, b.dispatch_s, b.service_s) for b in second.batches]


@settings(deadline=None)
@given(arrivals=arrival_lists, params=fault_params)
def test_slow_windows_stretch_only_the_covered_batches(arrivals, params):
    runtime = _make_runtime(params)
    plan = runtime.fault_plan
    n = len(arrivals)
    _, report = runtime.run(np.ones((n, 8)), np.array(arrivals), top_k=1)
    # Each delivered batch's service time is the stub's affine cost times
    # the plan's factor at its dispatch instant — the slow window applies
    # exactly where scheduled, nowhere else.
    served_replica = {
        (t.dispatch_s, t.request_id): t.replica
        for t in report.trace
        if t.status == SERVED
    }
    for batch in report.batches:
        replica = served_replica[(batch.dispatch_s, batch.indices[0])]
        factor = plan.service_factor(replica, batch.dispatch_s)
        base = 1e-3 + 2e-4 * len(batch.indices)
        assert batch.service_s == base * factor


# --------------------------------------------------------------------- #
# Bit-identity on real engines over one shared compiled collection
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def collection():
    matrix = synthetic_embeddings(
        n_rows=2000, n_cols=256, avg_nnz=12, distribution="uniform", seed=91
    )
    return compile_collection(matrix, PAPER_DESIGNS["20b"])


def _real_fleet(collection, n_replicas, plan=None, resilience=None):
    return ClusterRuntime(
        [
            TopKSpmvEngine.from_collection(collection)
            for _ in range(n_replicas)
        ],
        router="least-outstanding",
        max_batch_size=8,
        max_wait_s=1e-3,
        fault_plan=plan,
        resilience=resilience,
    )


class TestFaultBitIdentity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_failover_never_changes_result_bits(self, collection, seed):
        rng = np.random.default_rng(100 + seed)
        queries = sample_unit_queries(rng, 40, collection.n_cols)
        arrivals = poisson_arrivals(40, 25_000.0, rng)
        horizon = float(arrivals[-1]) + 1e-3
        plan = FaultPlan.generate(
            seed=seed,
            n_replicas=3,
            horizon_s=horizon,
            n_crashes=2,
            n_slow=1,
            n_engine_faults=2,
            mean_downtime_s=horizon / 4.0,
        )
        resilience = ResilienceConfig(
            max_retries=3, hedge_after_s=horizon / 8.0, seed=seed
        )
        clean_results, clean = _real_fleet(collection, 3).run(
            queries, arrivals, top_k=10
        )
        fault_results, degraded = _real_fleet(
            collection, 3, plan, resilience
        ).run(queries, arrivals, top_k=10)
        statuses = {t.request_id: t.status for t in degraded.trace}
        assert clean.n_queries == 40  # the clean fleet serves everything
        n_checked = 0
        for rid in range(40):
            if statuses[rid] in (REJECTED, FAILED):
                assert fault_results[rid] is None
                continue
            assert (
                fault_results[rid].indices.tobytes()
                == clean_results[rid].indices.tobytes()
            )
            assert (
                fault_results[rid].values.tobytes()
                == clean_results[rid].values.tobytes()
            )
            n_checked += 1
        assert n_checked > 0
