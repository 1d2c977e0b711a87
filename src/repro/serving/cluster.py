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

Each replica then runs exactly the single-board micro-batching dispatch
rule (full-or-deadline, never before the board frees) via its own
``BatchQueue`` — a 1-replica cluster reproduces
:class:`~repro.serving.batcher.MicroBatcher` number-for-number.  The run
returns per-request results plus a :class:`ClusterReport`: the standard
:class:`~repro.serving.batcher.ServingReport` metrics cluster-wide and per
replica, reject accounting, cache counters, and a per-request
:class:`RequestTrace` — the object the deterministic-replay tests compare.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.reference import TopKResult
from repro.errors import ConfigurationError, FormatError
from repro.formats.io import load_artifact
from repro.serving.batcher import ServingReport
from repro.serving.cache import QueryCache, collection_version
from repro.serving.faults import FaultPlan, ResilienceConfig
from repro.serving.policy import (
    CACHE_HIT,
    FAILED,
    REJECTED,
    SERVED,
    ClusterPolicy,
    RequestTrace,
)
from repro.serving.router import Router, make_router
from repro.utils.validation import check_positive_int

__all__ = ["RequestTrace", "ClusterReport", "ClusterRuntime"]

#: Artifact ``kind`` tag of a persisted :class:`ClusterReport` (distinct
#: from the base report's so a round trip can never drop the cluster tier).
CLUSTER_REPORT_KIND = "cluster-report"

_STATUS_CODES = {SERVED: 0, CACHE_HIT: 1, REJECTED: 2, FAILED: 3}
_STATUS_NAMES = {code: name for name, code in _STATUS_CODES.items()}

#: Trace statuses that carry no dispatch/completion/latency stamps.
_UNTIMED_CODES = frozenset({_STATUS_CODES[REJECTED], _STATUS_CODES[FAILED]})


@dataclass(frozen=True)
class ClusterReport(ServingReport):
    """A :class:`ServingReport` extended with cluster-tier accounting.

    The inherited fields aggregate cluster-wide: ``latencies_s`` covers
    every *completed* request (engine-served and cache hits, in request
    order), ``batches`` is every replica's batches in dispatch order, and
    ``span_s``/``energy_j`` cover the whole fleet.
    """

    replica_reports: "tuple[ServingReport, ...]" = ()
    routed_per_replica: "tuple[int, ...]" = ()
    rejected_per_replica: "tuple[int, ...]" = ()
    n_cache_hits: int = 0
    cache_stats: "dict | None" = None
    trace: "tuple[RequestTrace, ...]" = ()
    #: Fault/recovery counters (``None`` for a clean, fault-free run) —
    #: batch failures, retries, rescued/failed requests, hedges, crashes
    #: and the final per-replica health states.
    fault_stats: "dict | None" = None

    @property
    def n_replicas(self) -> int:
        return len(self.replica_reports)

    @property
    def n_offered(self) -> int:
        """Every request that arrived, completed or not."""
        return len(self.trace)

    @property
    def n_rejected(self) -> int:
        """Requests refused admission, counted from the trace like
        :attr:`n_failed`: ``rejected_per_replica`` only sees a bounded
        queue saying no, not a request that found the whole fleet down
        (traced ``replica == -1``)."""
        return sum(1 for t in self.trace if t.status == REJECTED)

    @property
    def n_failed(self) -> int:
        """Requests typed-failed after exhausting their retry budget."""
        return sum(
            1 for t in self.trace if t.status == FAILED
        )

    @property
    def n_served(self) -> int:
        """Requests served by an engine (completions minus cache hits)."""
        return self.n_queries - self.n_cache_hits

    @property
    def reject_rate(self) -> float:
        """Rejected over offered (0.0 for an empty run)."""
        if not self.n_offered:
            return 0.0
        return self.n_rejected / self.n_offered

    @property
    def cache_hit_rate(self) -> float:
        """Cache hits over offered requests (0.0 with the cache disabled)."""
        if not self.n_offered:
            return 0.0
        return self.n_cache_hits / self.n_offered

    def to_dict(self) -> dict:
        """JSON-ready summary: the base report plus a ``cluster`` section."""
        payload = super().to_dict()
        replicas = []
        for r, report in enumerate(self.replica_reports):
            entry = report.to_dict()
            entry["routed"] = self.routed_per_replica[r]
            entry["rejected"] = self.rejected_per_replica[r]
            entry["reject_rate"] = (
                self.rejected_per_replica[r] / self.routed_per_replica[r]
                if self.routed_per_replica[r]
                else 0.0
            )
            replicas.append(entry)
        payload["cluster"] = {
            "n_replicas": self.n_replicas,
            "n_offered": self.n_offered,
            "n_served": self.n_served,
            "n_rejected": self.n_rejected,
            "reject_rate": self.reject_rate,
            "n_cache_hits": self.n_cache_hits,
            "cache_hit_rate": self.cache_hit_rate,
            "cache": self.cache_stats,
            "n_failed": self.n_failed,
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

    # ------------------------------------------------------------------ #
    # Persistence — the cluster tier round-trips too, under its own kind
    # ------------------------------------------------------------------ #
    @classmethod
    def _artifact_kind(cls) -> str:
        return CLUSTER_REPORT_KIND

    def _artifact_header(self) -> dict:
        header = super()._artifact_header()
        header["n_cache_hits"] = self.n_cache_hits
        # JSON round-trips Python floats exactly (shortest-repr), so the
        # cache counters stay bit-identical through the header.
        header["cache_stats"] = self.cache_stats
        header["fault_stats"] = self.fault_stats
        return header

    def _payload_arrays(self) -> "dict[str, np.ndarray]":
        arrays = super()._payload_arrays()
        # Which replica ran each cluster-wide batch (dispatch order): the
        # per-replica reports are reconstructed from this plus the trace.
        batch_replica = np.full(len(self.batches), -1, dtype=np.int64)
        # Each request is served at most once, so batches are unique by
        # their member set and value-keying is unambiguous.
        position = {b: i for i, b in enumerate(self.batches)}
        for r, report in enumerate(self.replica_reports):
            for batch in report.batches:
                batch_replica[position[batch]] = r
        nan = float("nan")
        arrays.update(
            {
                "batch_replica": batch_replica,
                "routed_per_replica": np.array(
                    self.routed_per_replica, dtype=np.int64
                ),
                "rejected_per_replica": np.array(
                    self.rejected_per_replica, dtype=np.int64
                ),
                "replica_span_s": np.array(
                    [r.span_s for r in self.replica_reports], dtype=np.float64
                ),
                "replica_energy_j": np.array(
                    [r.energy_j for r in self.replica_reports], dtype=np.float64
                ),
                "trace_arrival_s": np.array(
                    [t.arrival_s for t in self.trace], dtype=np.float64
                ),
                "trace_status": np.array(
                    [_STATUS_CODES[t.status] for t in self.trace], dtype=np.int8
                ),
                "trace_replica": np.array(
                    [t.replica for t in self.trace], dtype=np.int64
                ),
                "trace_dispatch_s": np.array(
                    [nan if t.dispatch_s is None else t.dispatch_s
                     for t in self.trace],
                    dtype=np.float64,
                ),
                "trace_completion_s": np.array(
                    [nan if t.completion_s is None else t.completion_s
                     for t in self.trace],
                    dtype=np.float64,
                ),
                "trace_latency_s": np.array(
                    [nan if t.latency_s is None else t.latency_s
                     for t in self.trace],
                    dtype=np.float64,
                ),
            }
        )
        return arrays

    @classmethod
    def load(cls, path, verify: bool = True) -> "ClusterReport":
        """Reload a cluster report saved by :meth:`save` — every tier
        (per-replica reports, reject accounting, cache counters, trace)
        comes back bit-for-bit."""
        header, arrays = load_artifact(path, cls._artifact_kind(), verify=verify)
        try:
            batches = cls._batches_from_arrays(arrays)
            span_s, energy_j = arrays["totals"]
            trace = tuple(
                RequestTrace(
                    request_id=rid,
                    arrival_s=float(arrays["trace_arrival_s"][rid]),
                    status=_STATUS_NAMES[int(arrays["trace_status"][rid])],
                    replica=int(arrays["trace_replica"][rid]),
                    dispatch_s=cls._none_if_rejected(
                        arrays["trace_dispatch_s"][rid],
                        arrays["trace_status"][rid],
                    ),
                    completion_s=cls._none_if_rejected(
                        arrays["trace_completion_s"][rid],
                        arrays["trace_status"][rid],
                    ),
                    latency_s=cls._none_if_rejected(
                        arrays["trace_latency_s"][rid],
                        arrays["trace_status"][rid],
                    ),
                )
                for rid in range(len(arrays["trace_status"]))
            )
            batch_replica = arrays["batch_replica"]
            n_replicas = len(arrays["routed_per_replica"])
            replica_reports = []
            served_code = _STATUS_CODES[SERVED]
            for r in range(n_replicas):
                own = [
                    b for b, br in zip(batches, batch_replica) if int(br) == r
                ]
                # Per-replica latencies replay in the original accumulation
                # order: batch by batch (dispatch order), member by member —
                # skipping members this batch did *not* deliver (hedge twins
                # whose other copy won carry another replica's stamps).
                own_latencies = np.array(
                    [
                        float(arrays["trace_latency_s"][rid])
                        for b in own
                        for rid in b.indices
                        if int(arrays["trace_status"][rid]) == served_code
                        and int(arrays["trace_replica"][rid]) == r
                        and float(arrays["trace_dispatch_s"][rid])
                        == b.dispatch_s
                    ],
                    dtype=np.float64,
                )
                replica_reports.append(
                    ServingReport(
                        latencies_s=own_latencies,
                        batches=tuple(own),
                        span_s=float(arrays["replica_span_s"][r]),
                        energy_j=float(arrays["replica_energy_j"][r]),
                    )
                )
            return cls(
                latencies_s=arrays["latencies_s"],
                batches=batches,
                span_s=float(span_s),
                energy_j=float(energy_j),
                replica_reports=tuple(replica_reports),
                routed_per_replica=tuple(
                    int(v) for v in arrays["routed_per_replica"]
                ),
                rejected_per_replica=tuple(
                    int(v) for v in arrays["rejected_per_replica"]
                ),
                n_cache_hits=int(header["n_cache_hits"]),
                cache_stats=header["cache_stats"],
                trace=trace,
                fault_stats=header.get("fault_stats"),
            )
        except (KeyError, IndexError, ValueError) as exc:
            raise FormatError(
                f"{path} has an incomplete cluster-report buffer set"
            ) from exc

    @staticmethod
    def _none_if_rejected(value, status_code) -> "float | None":
        return None if int(status_code) in _UNTIMED_CODES else float(value)


class ClusterRuntime:
    """Replicated serving of one collection behind routing + cache + admission.

    Parameters
    ----------
    replicas:
        Engines with ``query_batch(queries, top_k)`` (returning ``topk``,
        ``seconds``, ``energy_j``) — :class:`~repro.core.engine.TopKSpmvEngine`
        or :class:`~repro.serving.sharded.ShardedEngine`, typically all built
        from one shared compiled collection.  Each replica carries its own
        batch-kernel selection (``kernel=``/``kernel_workers=`` at engine
        construction, see :mod:`repro.core.kernels`); since every backend is
        bit-identical, mixed-kernel replicas still replay deterministically.
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
        The per-replica micro-batching knobs, as for
        :class:`~repro.serving.batcher.MicroBatcher`.
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
    """

    def __init__(
        self,
        replicas,
        router: "str | Router" = "round-robin",
        cache_size: "int | None" = None,
        max_batch_size: int = 16,
        max_wait_s: float = 2e-3,
        queue_capacity: "int | None" = None,
        router_seed: int = 0,
        cache: "QueryCache | None" = None,
        fault_plan: "FaultPlan | None" = None,
        resilience: "ResilienceConfig | None" = None,
    ):
        self.replicas = list(replicas)
        if not self.replicas:
            raise ConfigurationError("a cluster needs at least one replica")
        for i, replica in enumerate(self.replicas):
            if not callable(getattr(replica, "query_batch", None)):
                raise ConfigurationError(
                    f"replica {i} ({type(replica).__name__}) has no "
                    "query_batch(queries, top_k) method"
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

    def build_policy(self, top_k: int) -> ClusterPolicy:
        """A fresh decision core for one stream (router reset, cache keyed).

        :meth:`run` drives it from an arrival array in simulated time; the
        live daemon (:class:`repro.serving.live.LiveServer`) drives the
        same object from sockets and wall-clock timers — one policy, two
        clocks, identical decisions.
        """
        self.router.reset()
        cache, digest, generation = self._prepare_cache()
        return ClusterPolicy(
            n_replicas=self.n_replicas,
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
        arrivals = arrivals[order]

        n = len(queries)
        policy = self.build_policy(top_k)
        i = 0
        while True:
            arrival = arrivals[i] if i < n else None
            dispatch = policy.next_dispatch()
            event = policy.next_event_s()
            if arrival is None and dispatch is None and event is None:
                break
            # Policy events (crash/recover transitions, due retries, due
            # hedges) win ties with both dispatches and arrivals: a crash
            # at the dispatch instant takes the departing batch down with
            # it, and a request arriving at a recovery instant sees the
            # recovered replica.
            dispatch_t = None if dispatch is None else dispatch[0]
            horizon = min(
                (t for t in (dispatch_t, arrival) if t is not None),
                default=None,
            )
            if event is not None and (horizon is None or event <= horizon):
                policy.run_events(event)
                continue
            # Arrivals win ties with dispatches at the same instant, exactly
            # as in the single-board batcher: a request landing at the
            # dispatch time joins the departing batch.
            if dispatch is not None and (arrival is None or dispatch[0] < arrival):
                dispatch_s, r = dispatch
                policy.drain_completions(dispatch_s)
                _, members = policy.pop(r)
                served = self.replicas[r].query_batch(
                    policy.batch_queries(members), top_k
                )
                policy.complete(r, dispatch_s, members, served)
                continue
            rid = int(order[i])
            i += 1
            policy.offer(rid, float(arrival), queries[rid])
        policy.drain_completions(float("inf"))

        return self.build_report(policy, first_arrival_s=float(arrivals[0]))

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
        replica_reports = []
        for state in policy.states:
            span = (
                state.last_completion_s - state.first_arrival_s
                if state.first_arrival_s is not None
                else 0.0
            )
            replica_reports.append(
                ServingReport(
                    latencies_s=np.array(state.latencies, dtype=np.float64),
                    batches=tuple(state.batches),
                    span_s=float(span),
                    energy_j=state.energy_j,
                )
            )
        completed = np.array(
            [policy.latencies[rid] for rid in sorted(policy.latencies)],
            dtype=np.float64,
        )
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
        report = ClusterReport(
            latencies_s=completed,
            batches=tuple(policy.all_batches),
            span_s=float(last_completion - first_arrival_s),
            energy_j=sum(s.energy_j for s in policy.states),
            replica_reports=tuple(replica_reports),
            routed_per_replica=tuple(s.routed for s in policy.states),
            rejected_per_replica=tuple(s.rejected for s in policy.states),
            n_cache_hits=policy.n_cache_hits,
            cache_stats=cache_stats,
            trace=traces,
            fault_stats=policy.fault_stats(),
        )
        return results, report
