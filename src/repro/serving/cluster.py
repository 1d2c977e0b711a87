"""Cluster serving runtime: N replicas, routed, cached, admission-controlled.

One board (:class:`~repro.core.engine.TopKSpmvEngine`) or one sharded fleet
(:class:`~repro.serving.sharded.ShardedEngine`) saturates; the next scaling
axis is *replication*: several identical engines built from one shared
:class:`~repro.core.collection.CompiledCollection`, fronted by a load
balancer.  :class:`ClusterRuntime` models that tier as a deterministic
discrete-event simulation — no wall clock, no threads, no randomness beyond
the seeds you pass — which is what makes every behaviour exactly replayable
and therefore testable down to float bits.

Per arriving request, in simulated-time order:

1. **Cache** — an optional exact-result LRU
   (:class:`~repro.serving.cache.QueryCache`) keyed on
   ``(collection digest, quantised query, K)``.  A hit completes the request
   instantly with a result bit-identical to what the engines produce;
   results enter the cache only at their batch's *completion* time, so a
   duplicate arriving while the first copy is still in flight is honestly a
   miss.
2. **Routing** — a pluggable policy (:mod:`repro.serving.router`) picks a
   replica from the per-replica outstanding counts: round-robin,
   least-outstanding, or power-of-two-choices.
3. **Admission** — each replica's waiting room is a bounded
   :class:`~repro.serving.batcher.BatchQueue`; a request routed to a full
   queue is *rejected* and accounted, never silently dropped.

Each replica then runs the micro-batching dispatch rule via its own
``BatchQueue``: a batch leaves when its replica frees, taking everything
queued by then (``max_wait_s``, 0 by default, lets it wait for more on an
idle replica).  A batch occupies its replica for the engine's declared
``batch_seconds(n)``, or for the time a recorded
:class:`~repro.serving.batcher.ServiceTable` gives (``service_tables``: the
clock a live daemon measured on its host, carried into its replay).  This
is the one simulated serving loop: a single board is served as a
1-replica cluster, ``ClusterRuntime([engine], max_batch_size=...)``.  The
run returns per-request results plus a :class:`ClusterReport` — the one
report type: the :class:`~repro.serving.batcher.ServingReport` metrics
cluster-wide and per replica, reject accounting, cache counters, and a
per-request :class:`RequestTrace` (the object the deterministic-replay
tests compare), every view derived from the trace and the batch log.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.reference import TopKResult
from repro.errors import ConfigurationError
from repro.serving.batcher import (
    COMPLETED,
    ServiceTable,
    ServingReport,
    share,
)
from repro.serving.cache import QueryCache, collection_version
from repro.serving.faults import FaultPlan, ResilienceConfig
from repro.serving.policy import ClusterPolicy, RequestTrace
from repro.serving.router import Router, make_router
from repro.utils.validation import check_positive_int

__all__ = ["RequestTrace", "ClusterReport", "ClusterRuntime"]

@dataclass(frozen=True)
class ClusterReport(ServingReport):
    """The report of one serving run: the :class:`ServingReport` metrics
    cluster-wide and per replica, reject/cache/fault accounting and the
    per-request :class:`RequestTrace`.

    Its primary records are the trace, the batch log (``batches`` in the
    order they were recorded, ``batch_replica`` naming the replica that ran
    each) and the per-replica routed/rejected/span/energy counters.  Every
    other view — the cluster-wide ``outcomes`` (trace statuses) and
    ``latencies_s`` (completed requests, cache hits included, in request
    order) the :class:`~repro.serving.batcher.ServingMetrics` counts come
    from, ``energy_j``, and ``replica_reports`` — is derived from those by
    :meth:`from_records`, the constructor the runtime uses.
    """

    batch_replica: "tuple[int, ...]" = ()
    replica_reports: "tuple[ServingReport, ...]" = ()
    routed_per_replica: "tuple[int, ...]" = ()
    rejected_per_replica: "tuple[int, ...]" = ()
    cache_stats: "dict | None" = None
    trace: "tuple[RequestTrace, ...]" = ()
    #: Fault/recovery counters (``None`` for a clean, fault-free run) —
    #: batch failures, retries, rescued/failed requests, hedges, crashes
    #: and the final per-replica health states.
    fault_stats: "dict | None" = None

    @classmethod
    def from_records(
        cls,
        *,
        trace,
        batches,
        batch_replica,
        span_s: float,
        replica_span_s,
        replica_energy_j,
        routed_per_replica,
        rejected_per_replica,
        cache_stats: "dict | None",
        fault_stats: "dict | None",
    ) -> "ClusterReport":
        """Build the report, deriving every view from the primary records."""
        by_rid = {t.request_id: t for t in trace}
        own_batches = [[] for _ in replica_span_s]
        own_delivered = [[] for _ in replica_span_s]
        delivered = set()
        for batch, r in zip(batches, batch_replica):
            own_batches[r].append(batch)
            for rid in batch.indices:
                # The first recorded batch holding a request delivered it;
                # a later copy (a hedge twin) was discarded.
                if rid not in delivered:
                    delivered.add(rid)
                    own_delivered[r].append(by_rid[rid])
        replica_reports = tuple(
            ServingReport(
                outcomes=tuple(t.status for t in own),
                latencies_s=np.array(
                    [t.latency_s for t in own], dtype=np.float64
                ),
                batches=tuple(own_b),
                span_s=float(span),
                energy_j=float(energy),
            )
            for own_b, own, span, energy in zip(
                own_batches, own_delivered, replica_span_s, replica_energy_j
            )
        )
        completed = [t.latency_s for t in trace if t.status in COMPLETED]
        return cls(
            outcomes=tuple(t.status for t in trace),
            latencies_s=np.array(completed, dtype=np.float64),
            batches=tuple(batches),
            span_s=float(span_s),
            energy_j=sum(r.energy_j for r in replica_reports),
            batch_replica=tuple(int(r) for r in batch_replica),
            replica_reports=replica_reports,
            routed_per_replica=tuple(int(v) for v in routed_per_replica),
            rejected_per_replica=tuple(int(v) for v in rejected_per_replica),
            cache_stats=cache_stats,
            trace=tuple(trace),
            fault_stats=fault_stats,
        )

    @property
    def n_replicas(self) -> int:
        return len(self.replica_reports)

    def to_dict(self) -> dict:
        """JSON-ready summary: the base report plus a ``cluster`` section.

        Counts come from the trace, so ``n_rejected`` includes a request
        that found the whole fleet down (traced ``replica == -1``), which
        no replica's ``rejected`` counter sees; a replica's
        ``reject_rate`` is over the requests routed to it.
        """
        payload = super().to_dict()
        replicas = []
        for r, report in enumerate(self.replica_reports):
            entry = report.to_dict()
            entry["routed"] = self.routed_per_replica[r]
            entry["rejected"] = self.rejected_per_replica[r]
            entry["reject_rate"] = share(
                self.rejected_per_replica[r], self.routed_per_replica[r]
            )
            replicas.append(entry)
        payload["cluster"] = {
            "n_replicas": self.n_replicas,
            **self.view(
                "n_offered", "n_served", "n_rejected", "reject_rate",
                "n_cache_hits", "cache_hit_rate", "n_failed",
            ),
            "cache": self.cache_stats,
            "faults": self.fault_stats,
            "replicas": replicas,
        }
        return payload

    def render(self) -> str:
        """Human-readable block: base metrics plus the cluster tier."""
        lines = [super().render()]
        lines.append(
            f"cluster: {self.n_offered} offered | {self.n_served} engine-served "
            f"| {self.n_cache_hits} cache hits | {self.n_rejected} rejected "
            f"({self.reject_rate:.1%})"
        )
        for r, report in enumerate(self.replica_reports):
            lines.append(
                f"  replica {r}: {report.n_queries} served in "
                f"{report.n_batches} batches, p50 "
                f"{report.p50_latency_s * 1e3:.3f} ms | p99 "
                f"{report.p99_latency_s * 1e3:.3f} ms | "
                f"{report.qps:.1f} QPS | {self.rejected_per_replica[r]} rejected"
            )
        if self.cache_stats is not None:
            lines.append(
                f"cache: {self.cache_stats['hits']} hits / "
                f"{self.cache_stats['lookups']} lookups "
                f"({self.cache_hit_rate:.1%} of offered), "
                f"{self.cache_stats['entries']}/{self.cache_stats['capacity']} "
                f"entries, {self.cache_stats['evictions']} evictions"
            )
        if self.fault_stats is not None:
            fs = self.fault_stats
            lines.append(
                f"faults: {fs['n_batch_failures']} batch failures | "
                f"{fs['n_crashes']} crashes | {fs['n_retries']} retries "
                f"({fs['n_rescued']} rescued, {fs['n_failed']} failed) | "
                f"{fs['n_hedges']} hedges ({fs['n_hedge_wasted']} wasted)"
            )
        return "\n".join(lines)


class ClusterRuntime:
    """Replicated serving of one collection behind routing + cache + admission.

    Parameters
    ----------
    replicas:
        Engines with ``query_batch(queries, top_k)`` (returning ``topk``,
        ``seconds``, ``energy_j``) and ``batch_seconds(n_queries)``, the
        service time they declare for a batch of that size (``seconds``
        must equal it) — :class:`~repro.core.engine.TopKSpmvEngine`
        or :class:`~repro.serving.sharded.ShardedEngine`, typically all built
        from one shared compiled collection.
    router:
        Policy name from :data:`repro.serving.router.ROUTERS` or a
        :class:`~repro.serving.router.Router` instance; its state is reset
        at the start of every run so runs replay exactly.
    cache_size:
        Capacity of the exact-result LRU; ``None``/``0`` disables caching.
        A *fresh* cache is built per run (replay determinism); its counters
        land in the report.  Requires every replica to serve the same
        collection (same digest) — the key depends on it.
    cache:
        Alternatively, a caller-owned :class:`~repro.serving.cache.
        QueryCache` reused *across* runs (mutually exclusive with
        ``cache_size``).  Entries are keyed on the collection's
        ``(digest, generation)`` read at the start of every run, so a
        mutation between runs — a segmented collection's ingest/delete/
        compact bumps the generation — can never surface a stale hit;
        the run also drops the now-unreachable old-generation entries
        (accounted as ``invalidations`` in the report's cache stats).
        Runs stay deterministic given the same starting cache state.
    max_batch_size, max_wait_s:
        The per-replica micro-batching knobs of
        :class:`~repro.serving.batcher.BatchQueue`; the default wait of 0
        forms batches only while a replica is busy.
    queue_capacity:
        Admission bound: maximum requests *waiting* in one replica's queue
        (the batch in service does not count).  A request routed to a full
        replica is rejected.  ``None`` means unbounded (nothing rejected).
    router_seed:
        Seed for randomised routing policies (power-of-two choices).
    fault_plan:
        Optional :class:`~repro.serving.faults.FaultPlan` injecting a
        seeded schedule of replica crashes, slow windows and engine
        exceptions into the run.  Every plan replica index must exist.
    resilience:
        Optional :class:`~repro.serving.faults.ResilienceConfig` with the
        retry/backoff/hedge knobs (library defaults when ``None``).
    service_tables:
        Optional :class:`~repro.serving.batcher.ServiceTable` per replica:
        the service time the policy decides on in place of each replica's
        declared ``batch_seconds``; each must reach ``max_batch_size``.
        The live daemon's replay runtime carries the tables the daemon
        measured, so the replay decides on the same clock.  An engine must
        still report its declared ``seconds``.
    """

    def __init__(
        self,
        replicas,
        router: "str | Router" = "round-robin",
        cache_size: "int | None" = None,
        max_batch_size: int = 16,
        max_wait_s: float = 0.0,
        queue_capacity: "int | None" = None,
        router_seed: int = 0,
        cache: "QueryCache | None" = None,
        fault_plan: "FaultPlan | None" = None,
        resilience: "ResilienceConfig | None" = None,
        service_tables: "tuple[ServiceTable, ...] | None" = None,
    ):
        self.replicas = list(replicas)
        if not self.replicas:
            raise ConfigurationError("a cluster needs at least one replica")
        for i, replica in enumerate(self.replicas):
            for method, args in (("query_batch", "queries, top_k"),
                                 ("batch_seconds", "n_queries")):
                if not callable(getattr(replica, method, None)):
                    raise ConfigurationError(
                        f"replica {i} ({type(replica).__name__}) has no "
                        f"{method}({args}) method"
                    )
        # Prefer the collection's O(1) width: reading .matrix off a
        # segmented replica would materialise its whole live matrix.
        widths = {
            getattr(getattr(r, "collection", None), "n_cols", None)
            or r.matrix.n_cols
            for r in self.replicas
        }
        if len(widths) != 1:
            raise ConfigurationError(
                f"replicas disagree on the embedding dimension: {sorted(widths)}"
            )
        self.n_cols = widths.pop()
        self.router = make_router(router, seed=router_seed)
        self.max_batch_size = check_positive_int(max_batch_size, "max_batch_size")
        if max_wait_s < 0:
            raise ConfigurationError(f"max_wait_s must be >= 0, got {max_wait_s}")
        self.max_wait_s = float(max_wait_s)
        self.queue_capacity = (
            None
            if queue_capacity is None
            else check_positive_int(queue_capacity, "queue_capacity")
        )
        self.cache_size = None if not cache_size else check_positive_int(
            cache_size, "cache_size"
        )
        if cache is not None and self.cache_size is not None:
            raise ConfigurationError(
                "pass either cache_size (fresh per-run cache) or cache "
                "(shared across runs), not both"
            )
        self.shared_cache = cache
        self.fault_plan = fault_plan
        self.resilience = resilience
        if fault_plan is not None:
            referenced = (
                {c.replica for c in fault_plan.crashes}
                | {w.replica for w in fault_plan.slow}
                | {f.replica for f in fault_plan.engine_faults}
            )
            bad = sorted(
                r for r in referenced if not 0 <= r < len(self.replicas)
            )
            if bad:
                raise ConfigurationError(
                    f"fault plan targets replicas {bad} but the cluster "
                    f"has {len(self.replicas)}"
                )
        self.service_tables = self._check_service_tables(service_tables)
        self._last_shared_version = None
        if self.cache_size is not None or self.shared_cache is not None:
            # Fail construction fast on an uncacheable fleet; the actual
            # (digest, generation) is re-read at the start of every run so
            # mutations between runs key correctly.
            self._collection_version()

    def _collection_version(self) -> "tuple[str, int]":
        """The one ``(digest, generation)`` every replica currently serves.

        Read at the start of each cached run: in-flight batches of that run
        complete against this version, and a mutation before the next run
        moves the version so no stale entry can ever be returned.
        """
        versions = set()
        for i, replica in enumerate(self.replicas):
            collection = getattr(replica, "collection", None)
            if collection is None:
                raise ConfigurationError(
                    f"replica {i} has no compiled collection; the result "
                    "cache needs the collection digest to key on"
                )
            versions.add(collection_version(collection))
        if len(versions) != 1:
            raise ConfigurationError(
                "replicas serve different collection states "
                f"({len(versions)} (digest, generation) pairs); the result "
                "cache requires one shared artifact"
            )
        return versions.pop()

    @property
    def n_replicas(self) -> int:
        return len(self.replicas)

    def _check_service_tables(self, tables):
        """``tables`` as a tuple, one covering ``ServiceTable`` per replica."""
        if tables is None:
            return None
        tables = tuple(tables)
        if len(tables) != len(self.replicas) or not all(
            isinstance(t, ServiceTable) for t in tables
        ):
            raise ConfigurationError(
                f"service_tables needs one ServiceTable per replica "
                f"({len(self.replicas)}), got {tables!r}"
            )
        short = [t.sizes for t in tables if t.sizes[-1] < self.max_batch_size]
        if short:
            raise ConfigurationError(
                f"service tables must reach max_batch_size "
                f"{self.max_batch_size}, got sizes {short}"
            )
        return tables

    def settings(self) -> dict:
        """The constructor knobs that fix this runtime's decisions — the one
        record the live daemon's ``info`` op and its replay both read."""
        return {
            "router": self.router,
            "cache_size": self.cache_size,
            "max_batch_size": self.max_batch_size,
            "max_wait_s": self.max_wait_s,
            "queue_capacity": self.queue_capacity,
            "fault_plan": self.fault_plan,
            "resilience": self.resilience,
            "service_tables": self.service_tables,
        }

    def _prepare_cache(self) -> "tuple[QueryCache | None, str | None, object]":
        """Resolve one run's cache: fresh or shared, keyed for this version."""
        cache = self.shared_cache
        digest = generation = None
        if self.cache_size is not None:
            cache = QueryCache(self.cache_size)
        if cache is not None:
            digest, generation = self._collection_version()
            if cache is self.shared_cache:
                # Reclaim capacity pinned by unreachable entries: stale
                # generations under the current digest, and — when a
                # compaction/seal moved the digest itself — everything
                # cached under the digest the previous run served.
                last = self._last_shared_version
                if last is not None and last[0] != digest:
                    cache.invalidate_digest(last[0])
                cache.invalidate_generation(digest, generation)
                self._last_shared_version = (digest, generation)
        return cache, digest, generation

    def build_policy(
        self, top_k: int, service_tables=None
    ) -> ClusterPolicy:
        """A fresh decision core for one stream (router reset, cache keyed).

        :meth:`run` drives it from an arrival array in simulated time; the
        live daemon (:class:`repro.serving.live.LiveServer`) drives the
        same object from sockets and wall-clock timers — one policy, two
        clocks, identical decisions.  ``service_tables`` replaces the
        runtime's own for this policy only (the daemon's measured clock);
        the runtime is left as it was.
        """
        if service_tables is None:
            service_tables = self.service_tables
        self.router.reset()
        cache, digest, generation = self._prepare_cache()
        return ClusterPolicy(
            batch_seconds=[r.batch_seconds for r in self.replicas],
            router=self.router,
            cache=cache,
            design=getattr(self.replicas[0], "design", None),
            digest=digest,
            generation=generation,
            max_batch_size=self.max_batch_size,
            max_wait_s=self.max_wait_s,
            queue_capacity=self.queue_capacity,
            top_k=check_positive_int(top_k, "top_k"),
            fault_plan=self.fault_plan,
            resilience=self.resilience,
            service_tables=self._check_service_tables(service_tables),
        )

    def run(
        self,
        queries: np.ndarray,
        arrival_times_s: np.ndarray,
        top_k: int,
    ) -> "tuple[list[TopKResult | None], ClusterReport]":
        """Simulate serving the stream through the whole cluster tier.

        Returns per-request results in input order (``None`` marks a
        rejected or typed-failed request) and the :class:`ClusterReport`.  The simulation is
        a pure function of its inputs and the runtime's configuration —
        running it twice yields identical traces, which the property suite
        asserts.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        arrivals = np.asarray(arrival_times_s, dtype=np.float64)
        if arrivals.ndim != 1 or len(arrivals) != len(queries):
            raise ConfigurationError(
                f"need one arrival time per query: {len(queries)} queries, "
                f"arrival shape {arrivals.shape}"
            )
        if len(queries) == 0:
            raise ConfigurationError("cannot serve an empty query stream")
        if queries.shape[1] != self.n_cols:
            raise ConfigurationError(
                f"queries must have shape (Q, {self.n_cols}), got {queries.shape}"
            )
        order = np.argsort(arrivals, kind="stable")
        policy = self.build_policy(top_k)

        def launch(batch):
            served = self.replicas[batch.replica].query_batch(
                batch.queries, top_k
            )
            policy.attach(batch, served)

        for rid in order:
            arrival = float(arrivals[rid])
            policy.advance(arrival, launch)
            policy.offer(int(rid), arrival, queries[rid])
        policy.advance(float("inf"), launch)
        policy.drain_completions(float("inf"))

        return self.build_report(
            policy, first_arrival_s=float(arrivals[order[0]])
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    @staticmethod
    def build_report(
        policy: ClusterPolicy, first_arrival_s: float
    ) -> "tuple[list[TopKResult | None], ClusterReport]":
        """Assemble the per-request results and :class:`ClusterReport` of a
        finished policy run (shared with the live daemon, which builds its
        *decision report* — virtual clock — from the very same state)."""
        traces = tuple(policy.traces[rid] for rid in sorted(policy.traces))
        results: "list[TopKResult | None]" = [
            policy.results.get(rid) for rid in sorted(policy.queries)
        ]
        last_completion = max(
            (t.completion_s for t in traces if t.completion_s is not None),
            default=first_arrival_s,
        )
        cache_stats = None
        if policy.cache is not None:
            cache_stats = policy.cache.stats()
            cache_stats["lookups"] = policy.cache.lookups
        report = ClusterReport.from_records(
            trace=traces,
            batches=policy.all_batches,
            batch_replica=policy.batch_replica,
            span_s=last_completion - first_arrival_s,
            replica_span_s=[
                s.last_completion_s - s.first_arrival_s
                if s.first_arrival_s is not None
                else 0.0
                for s in policy.states
            ],
            replica_energy_j=[s.energy_j for s in policy.states],
            routed_per_replica=[s.routed for s in policy.states],
            rejected_per_replica=[s.rejected for s in policy.states],
            cache_stats=cache_stats,
            fault_stats=policy.fault_stats(),
        )
        return results, report
