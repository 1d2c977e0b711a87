"""The ``serve-bench`` workload: end-to-end serving simulation + report.

Builds a synthetic embedding collection, shards it across simulated boards,
drives a Poisson query stream through
:class:`~repro.serving.cluster.ClusterRuntime` and reports the latency
distribution, throughput and a sanity recall@K against the exact float64
reference.  The default is one replica fleet; ``--replicas``/``--router``/
``--cache-size``/``--queue-capacity`` add replica fleets built from one
shared compiled collection, routing, an exact-result cache and
bounded-queue admission control.  The CLI
(``python -m repro serve-bench``) prints the rendered report and can dump
the raw numbers as JSON so successive PRs can track the serving trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.synthetic import synthetic_embeddings
from repro.hw.design import design_by_name
from repro.serving.batcher import poisson_arrivals
from repro.serving.cluster import ClusterRuntime
from repro.serving.sharded import ShardedEngine
from repro.utils.rng import derive_rng, sample_unit_queries

__all__ = ["ServingConfig", "build_runtime", "run_serve_bench"]


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of one served fleet, simulated or live (defaults are CLI-speed
    friendly).

    The one home of every serving default: the ``serve-bench`` and
    ``serve-live`` flags map onto these fields by name and declare no
    default of their own.

    ``collection`` names a compiled artifact (``repro compile`` output); when
    set, the serving fleet is constructed straight from the loaded buffers —
    no synthetic build, no re-encode — and ``rows``/``cols``/``avg_nnz``/
    ``design`` are taken from the artifact instead of this config.  Both
    sharding modes serve the artifact's buffers as-is; ``cores_per_shard``
    only changes how each board is timed.

    ``replicas``/``router``/``cache_size``/``queue_capacity`` configure the
    cluster tier: every replica is one sharded fleet over the *same*
    compiled collection, so replication multiplies capacity without
    duplicating the build.
    """

    rows: int = 20_000
    cols: int = 512
    avg_nnz: int = 20
    design: str = "20b"
    collection: "str | None" = None
    n_shards: int = 4
    cores_per_shard: "int | None" = None
    n_queries: int = 256
    top_k: int = 10
    max_batch_size: int = 16
    max_wait_ms: float = 0.0
    rate_qps: "float | None" = None  # None: ~80% of the fleet's scan rate
    seed: int = 0
    recall_queries: int = 16
    replicas: int = 1
    router: str = "round-robin"
    cache_size: int = 0
    queue_capacity: "int | None" = None

    def quick(self) -> "ServingConfig":
        """A reduced-scale copy for smoke runs."""
        from dataclasses import replace

        return replace(self, rows=4000, n_queries=64, recall_queries=8)


def _recall_at_k(engine: ShardedEngine, queries: np.ndarray, top_k: int) -> float:
    """Mean |served ∩ exact| / K over a query sample."""
    served = engine.query_batch(queries, top_k)
    hits = 0
    for x, got in zip(queries, served.topk):
        exact = engine.query_exact(x, top_k)
        hits += len(set(got.indices.tolist()) & set(exact.indices.tolist()))
    return hits / (len(queries) * top_k)


def _build_collection(config: ServingConfig):
    """Resolve the compiled collection the fleet(s) serve, plus labels."""
    from repro.core.collection import CompiledCollection, compile_collection
    from repro.hw.design import PAPER_DESIGNS

    if config.collection is not None:
        compiled = CompiledCollection.load(config.collection)
        # Report the short design key ('20b') when the artifact's design is a
        # paper design point, so payloads group with synthetic-mode runs.
        design_name = next(
            (k for k, v in PAPER_DESIGNS.items() if v.name == compiled.design.name),
            compiled.design.name,
        )
        return compiled, design_name
    matrix = synthetic_embeddings(
        n_rows=config.rows,
        n_cols=config.cols,
        avg_nnz=config.avg_nnz,
        distribution="uniform",
        seed=config.seed,
    )
    compiled = compile_collection(matrix, design_by_name(config.design))
    return compiled, config.design


def build_runtime(
    config: ServingConfig, compiled, fault_plan=None, resilience=None
) -> ClusterRuntime:
    """``config.replicas`` sharded fleets over one compiled collection behind
    one :class:`ClusterRuntime` (``serve-bench`` and ``serve-live`` alike)."""
    return ClusterRuntime(
        [
            ShardedEngine(
                compiled,
                n_shards=config.n_shards,
                cores_per_shard=config.cores_per_shard,
            )
            for _ in range(config.replicas)
        ],
        router=config.router,
        cache_size=config.cache_size or None,
        max_batch_size=config.max_batch_size,
        max_wait_s=config.max_wait_ms * 1e-3,
        queue_capacity=config.queue_capacity,
        router_seed=config.seed,
        fault_plan=fault_plan,
        resilience=resilience,
    )


def run_serve_bench(config: ServingConfig) -> tuple[str, dict]:
    """Run the serving simulation; returns (rendered report, JSON payload)."""
    from repro.errors import ConfigurationError
    from repro.utils.validation import check_positive_int

    # Validate the cluster knobs up front: a zero replica count must not
    # surface later as a cryptic rate error.
    check_positive_int(config.replicas, "replicas")
    if config.cache_size < 0:
        raise ConfigurationError(
            f"cache_size must be >= 0, got {config.cache_size}"
        )
    rng = derive_rng(config.seed)
    compiled, design_name = _build_collection(config)
    n_cols = compiled.n_cols
    # The runtime is built before the arrival process so its parameters are
    # validated first (a zero batch size must not surface as a rate error).
    runtime = build_runtime(config, compiled)
    engine = runtime.replicas[0]
    queries = sample_unit_queries(rng, config.n_queries, n_cols)
    rate = config.rate_qps
    if rate is None:
        # Offered load at ~80% of the deployment's *batch-amortised*
        # capacity (full batches of max_batch_size, one host invocation
        # each, summed over replicas) so queues stay stable but batching
        # has something to coalesce.
        full_batch_s = (
            config.max_batch_size * engine.makespan_s
            + engine.constants.host_overhead_s
        )
        rate = 0.8 * config.replicas * config.max_batch_size / full_batch_s
    arrivals = poisson_arrivals(config.n_queries, rate, rng)
    _, report = runtime.run(queries, arrivals, top_k=config.top_k)
    recall = _recall_at_k(
        engine, queries[: config.recall_queries], config.top_k
    )

    payload = {
        "config": {
            "rows": engine.matrix.n_rows,
            "cols": n_cols,
            "avg_nnz": (
                config.avg_nnz
                if config.collection is None
                else round(engine.matrix.nnz / max(1, engine.matrix.n_rows))
            ),
            "design": design_name,
            "collection": config.collection,
            "n_shards": config.n_shards,
            "cores_per_shard": config.cores_per_shard,
            "n_queries": config.n_queries,
            "top_k": config.top_k,
            "max_batch_size": config.max_batch_size,
            "max_wait_ms": config.max_wait_ms,
            "offered_rate_qps": rate,
            "seed": config.seed,
            "replicas": config.replicas,
            "router": config.router,
            "cache_size": config.cache_size,
            "queue_capacity": config.queue_capacity,
        },
        "report": report.to_dict(),
        "recall_at_k": recall,
        "fleet": {
            "latency_ms": engine.latency_s * 1e3,
            "power_w": engine.power_w * config.replicas,
            "shard_makespans_ms": [
                s.timing.makespan_s * 1e3 for s in engine.shards
            ],
        },
    }
    frontend = (
        f"cluster: {config.replicas} replicas, {config.router} router, "
        f"batches of max {config.max_batch_size}, "
        f"{config.max_wait_ms:g} ms idle wait, "
        f"cache {config.cache_size or 'off'}, "
        f"queue capacity {config.queue_capacity or 'unbounded'}"
    )
    text = "\n".join(
        [
            "# serve-bench — sharded batch serving simulation",
            "",
            engine.describe(),
            "",
            f"offered load: {rate:.1f} QPS (Poisson), {frontend}",
            report.render(),
            f"recall@{config.top_k} vs exact float64: {recall:.3f} "
            f"(over {config.recall_queries} queries)",
        ]
    )
    return text, payload
