"""Chaos benchmark for the fault-tolerant serving tier (ISSUE-9 tentpole).

Drives the *same* seeded Poisson stream through a replica fleet twice —
once clean, once under a seeded :class:`~repro.serving.faults.FaultPlan`
(replica crashes, slow windows, injected engine faults) with retries and
hedging enabled — and reports what an SRE would ask of the degraded run:

* **availability** — fraction of offered requests that still completed
  (served or cache hit) despite the faults;
* **rescued fraction** — requests whose first dispatch died on a failed
  batch but that a retry or hedge still delivered, over all offered;
* **p99 degradation** — degraded-run p99 latency over the clean baseline.

Because both runs are seeded event simulations, every number here is
exactly reproducible — the benchmark re-runs the degraded schedule and
asserts it is decision-identical before trusting its own report.  Emits
``benchmarks/results/chaos_report.json`` (including the exact plan JSON,
so any regression can be replayed byte-for-byte) and asserts the floors:
**availability >= 0.95** under the plan and **every offered request
reaches a terminal state** (conservation — nothing hangs, nothing is
double-delivered).
"""

import json
from pathlib import Path

from repro import PAPER_DESIGNS, TopKSpmvEngine, compile_collection
from repro.data.synthetic import synthetic_embeddings
from repro.serving import ClusterRuntime, poisson_arrivals
from repro.serving.faults import FaultPlan, ResilienceConfig
from repro.serving.live import decisions_equivalent
from repro.utils.rng import derive_rng, sample_unit_queries

N_REPLICAS = 3
N_QUERIES = 384
MAX_BATCH = 16
MAX_WAIT_S = 2e-3
TOP_K = 10
SEED = 42
AVAILABILITY_FLOOR = 0.95


def _fleet(collection, fault_plan=None, resilience=None):
    return ClusterRuntime(
        [
            TopKSpmvEngine.from_collection(collection)
            for _ in range(N_REPLICAS)
        ],
        router="least-outstanding",
        max_batch_size=MAX_BATCH,
        max_wait_s=MAX_WAIT_S,
        fault_plan=fault_plan,
        resilience=resilience,
    )


def test_chaos_availability_and_degradation():
    """Seeded fault plan: availability holds, retries rescue, replay locks."""
    matrix = synthetic_embeddings(
        n_rows=6000, n_cols=256, avg_nnz=12, distribution="uniform", seed=SEED
    )
    collection = compile_collection(matrix, PAPER_DESIGNS["20b"])
    probe = TopKSpmvEngine.from_collection(collection)
    # Moderate load: busy enough that crashes strand in-flight batches,
    # light enough that the surviving replicas can absorb the failover.
    full_batch_s = (
        MAX_BATCH * probe.timing.makespan_s + probe.constants.host_overhead_s
    )
    rate = 1.5 * N_REPLICAS * MAX_BATCH / full_batch_s
    rng = derive_rng(SEED)
    queries = sample_unit_queries(rng, N_QUERIES, collection.n_cols)
    arrivals = poisson_arrivals(N_QUERIES, rate, rng)
    horizon_s = float(arrivals[-1])

    plan = FaultPlan.generate(
        seed=SEED,
        n_replicas=N_REPLICAS,
        horizon_s=horizon_s,
        n_crashes=2,
        n_slow=2,
        n_engine_faults=2,
    )
    resilience = ResilienceConfig(
        max_retries=3, hedge_after_s=4.0 * full_batch_s, seed=SEED
    )

    _, baseline = _fleet(collection).run(queries, arrivals, top_k=TOP_K)
    assert baseline.n_queries == N_QUERIES

    results, degraded = _fleet(collection, plan, resilience).run(
        queries, arrivals, top_k=TOP_K
    )

    # Conservation: every offered request reaches exactly one terminal
    # state, and every completed one carries a result.
    terminal = degraded.n_queries + degraded.n_rejected + degraded.n_failed
    assert terminal == N_QUERIES, (
        f"{N_QUERIES - terminal} requests never reached a terminal state"
    )
    assert sum(r is not None for r in results) == degraded.n_queries

    stats = degraded.fault_stats or {}
    availability = degraded.availability
    rescued_fraction = stats.get("n_rescued", 0) / N_QUERIES
    p99_degradation = (
        degraded.p99_latency_s / baseline.p99_latency_s
        if baseline.p99_latency_s > 0.0
        else 1.0
    )

    # The degraded schedule must replay decision-identically: same plan,
    # same stream, bit-identical results and trace.
    replay_results, replay = _fleet(collection, plan, resilience).run(
        queries, arrivals, top_k=TOP_K
    )
    equivalent, detail = decisions_equivalent(
        results, degraded, replay_results, replay
    )
    assert equivalent, f"chaos run did not replay deterministically: {detail}"

    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    payload = {
        "collection": {"rows": 6000, "cols": 256, "avg_nnz": 12, "seed": SEED},
        "design": "20b",
        "router": "least-outstanding",
        "n_replicas": N_REPLICAS,
        "n_queries": N_QUERIES,
        "offered_rate_qps": rate,
        "fault_plan": plan.to_dict(),
        "resilience": resilience.to_dict(),
        "baseline": {
            "qps": baseline.qps,
            "p50_latency_ms": baseline.p50_latency_s * 1e3,
            "p99_latency_ms": baseline.p99_latency_s * 1e3,
        },
        "degraded": {
            "qps": degraded.qps,
            "p50_latency_ms": degraded.p50_latency_s * 1e3,
            "p99_latency_ms": degraded.p99_latency_s * 1e3,
            "n_rejected": degraded.n_rejected,
            "n_failed": degraded.n_failed,
            "fault_stats": stats,
        },
        "availability": availability,
        "rescued_fraction": rescued_fraction,
        "p99_degradation": p99_degradation,
        "replay_equivalent": bool(equivalent),
    }
    with open(results_dir / "chaos_report.json", "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)

    assert availability >= AVAILABILITY_FLOOR, (
        f"availability {availability:.1%} under the fault plan is below the "
        f"{AVAILABILITY_FLOOR:.0%} floor"
    )
