"""Serving layer: sharded boards, the cluster tier and its live daemon.

:class:`~repro.serving.sharded.ShardedEngine` spreads one collection across
N simulated boards with a scatter-gather merge, and
:class:`~repro.serving.cluster.ClusterRuntime` — the one simulated serving
loop — coalesces a timed query stream into micro-batches
(:class:`~repro.serving.batcher.BatchQueue`: a batch forms while its
replica is busy) for one or N replica engines
behind pluggable routing (:mod:`repro.serving.router`), an exact-result LRU
(:class:`~repro.serving.cache.QueryCache`) and bounded-queue admission
control, as one deterministic event simulation reported by one
:class:`~repro.serving.cluster.ClusterReport`.
:class:`~repro.serving.live.LiveServer` serves the same decision core over
a socket on a wall clock — build the ``ClusterRuntime`` and wrap it,
``LiveServer(runtime, top_k=...)`` — and
:func:`~repro.serving.loadgen.run_load_gen` drives it.  Every serving
number — counts, rates, availability, p50/p99, QPS — comes from one
:class:`~repro.serving.batcher.ServingMetrics`, of which the simulator's
report, the daemon's ``wall_stats()`` and the load generator's
:class:`~repro.serving.loadgen.LoadGenResult` are views.  One
:class:`~repro.serving.bench.ServingConfig` holds every knob (and default)
of a served fleet; the ``serve-bench`` and ``serve-live`` CLI verbs both
build from it.
"""

from repro.serving.batcher import (
    BatchQueue,
    ServedBatch,
    ServiceTable,
    ServingMetrics,
    ServingReport,
    check_served_batch,
    poisson_arrivals,
)
from repro.serving.bench import ServingConfig, run_serve_bench
from repro.serving.cache import QueryCache, query_cache_key
from repro.serving.cluster import ClusterReport, ClusterRuntime, RequestTrace
from repro.serving.live import LiveServer, decisions_equivalent
from repro.serving.loadgen import LoadGenResult, load_gen, run_load_gen
from repro.serving.policy import ClusterPolicy
from repro.serving.router import (
    ROUTERS,
    LeastOutstandingRouter,
    PowerOfTwoChoicesRouter,
    RoundRobinRouter,
    Router,
    make_router,
)
from repro.serving.sharded import BoardShard, ShardedEngine, ShardedResult

__all__ = [
    "BatchQueue",
    "ServedBatch",
    "ServiceTable",
    "ServingMetrics",
    "ServingReport",
    "check_served_batch",
    "poisson_arrivals",
    "ClusterPolicy",
    "LiveServer",
    "decisions_equivalent",
    "LoadGenResult",
    "load_gen",
    "run_load_gen",
    "ServingConfig",
    "run_serve_bench",
    "QueryCache",
    "query_cache_key",
    "ClusterReport",
    "ClusterRuntime",
    "RequestTrace",
    "ROUTERS",
    "Router",
    "RoundRobinRouter",
    "LeastOutstandingRouter",
    "PowerOfTwoChoicesRouter",
    "make_router",
    "BoardShard",
    "ShardedEngine",
    "ShardedResult",
]
