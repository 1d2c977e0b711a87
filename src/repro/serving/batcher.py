"""The micro-batching dispatch rule and the one serving metrics object.

Deployments rarely see queries one at a time: a serving frontend coalesces
requests that arrive close together into one batch so the board's scan
amortises the host round-trip.  :class:`BatchQueue` is that rule as a
deterministic, *causal* per-board state machine — no wall clock, no
threads:

* requests arrive at given times (see :func:`poisson_arrivals`);
* a batch leaves at ``max(head arrival, t_free)``, where ``t_free`` is the
  time the board becomes free, and takes everything queued by then, up to
  ``max_batch_size`` — so batches form while the board is busy and never
  on an idle one.  ``max_wait_s`` (0 by default) lets a batch wait that
  long past its oldest arrival for more requests; a full batch never waits;
* service time per batch is the engine's declared batch latency
  (``batch_seconds(n)``, which its ``query_batch(...).seconds`` must
  equal), or a :class:`ServiceTable` measured on the serving host, so
  shard makespans, host overhead and design choice all flow into the
  latency distribution.

The one event loop that drives it is
:class:`~repro.serving.cluster.ClusterRuntime` (one queue per replica; a
single board is a 1-replica cluster).

:class:`ServingMetrics` is the one place the serving stack turns outcomes
into numbers — counts, reject/cache-hit rates, availability, p50/p99/mean
latency and QPS.  It has three views: :class:`ServingReport` (the
simulator's, cluster-wide and per replica inside the
:class:`~repro.serving.cluster.ClusterReport`), the live daemon's
``LiveServer.wall_stats()`` and the load generator's
:class:`~repro.serving.loadgen.LoadGenResult`.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, deque
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, FormatError
from repro.utils.rng import derive_rng
from repro.utils.validation import check_positive_int

__all__ = [
    "SERVED", "CACHE_HIT", "REJECTED", "FAILED", "COMPLETED", "ERROR_PREFIX",
    "LATENCY_KEYS", "poisson_arrivals", "check_served_batch", "percentile",
    "share", "BatchQueue", "ServedBatch", "ServiceTable", "ServingMetrics",
    "ServingReport",
]

#: Terminal outcomes of an offered request (``RequestTrace.status`` values).
SERVED = "served"
CACHE_HIT = "cache-hit"
REJECTED = "rejected"
#: Typed rejection of a request whose retry budget was exhausted by
#: injected or real batch failures (never a silent drop or a hang).
FAILED = "failed"
#: The outcomes that carry a result, and so a latency.
COMPLETED = (SERVED, CACHE_HIT)
#: A live reply that was a typed error frame is the outcome ``error:<code>``.
ERROR_PREFIX = "error:"


def check_served_batch(served, n_members: int):
    """Validate an engine's batch result against the dispatched batch.

    An engine returning fewer (or more) ``topk`` entries than the batch has
    members would otherwise surface as an opaque ``IndexError`` deep in the
    result scatter — or, for a short return, silently drop requests.
    Returns the ``topk`` sequence on success, raises
    :class:`~repro.errors.FormatError` otherwise.
    """
    topk = getattr(served, "topk", None)
    if topk is None or len(topk) != n_members:
        got = "no topk attribute" if topk is None else f"{len(topk)} result(s)"
        raise FormatError(
            f"engine returned {got} for a batch of {n_members} request(s); "
            "query_batch must produce exactly one TopKResult per query"
        )
    return topk


def poisson_arrivals(
    n: int, rate_qps: float, rng: "int | np.random.Generator | None" = None
) -> np.ndarray:
    """Arrival times (seconds, ascending from 0) of a Poisson query stream.

    The stream is anchored at its own clock origin: the first arrival is
    shifted to exactly ``0.0`` and every later arrival keeps its exponential
    gap to the previous one.  Consequently ``poisson_arrivals(1, rate)`` is
    always ``[0.0]`` regardless of ``rate`` — one request defines the origin
    and there are no gaps left to draw.
    """
    n = check_positive_int(n, "n")
    if not np.isfinite(rate_qps) or rate_qps <= 0:
        raise ConfigurationError(
            f"rate_qps must be a finite value > 0, got {rate_qps}"
        )
    gaps = derive_rng(rng).exponential(1.0 / rate_qps, size=n)
    arrivals = np.cumsum(gaps)
    return arrivals - arrivals[0]


def percentile(values, q: float) -> float:
    """The ``q``-th percentile of a latency sample (0.0 when it is empty)."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def share(count: int, total: int, empty: float = 0.0) -> float:
    """``count / total``, or ``empty`` when the total is zero."""
    return count / total if total else empty


@dataclass(frozen=True)
class ServedBatch:
    """One dispatched batch: which requests, when, and how long it ran."""

    indices: "tuple[int, ...]"
    dispatch_s: float
    service_s: float

    @property
    def size(self) -> int:
        return len(self.indices)

    @property
    def completion_s(self) -> float:
        return self.dispatch_s + self.service_s


@dataclass(frozen=True)
class ServiceTable:
    """A replica's service time per batch size, measured on its host.

    ``sizes`` are strictly increasing batch sizes starting at 1 and
    ``seconds`` the non-decreasing time measured at each.
    :meth:`batch_seconds` interpolates linearly between points; a runtime
    refuses a table that stops short of its ``max_batch_size``.  A run's
    tables are part of its replay header
    (:meth:`~repro.serving.cluster.ClusterRuntime.settings`), so decisions
    taken on them replay exactly.
    """

    sizes: "tuple[int, ...]"
    seconds: "tuple[float, ...]"

    def __post_init__(self):
        sizes = tuple(int(q) for q in self.sizes)
        seconds = tuple(float(s) for s in self.seconds)
        if not sizes or len(sizes) != len(seconds):
            raise ConfigurationError(
                f"a service table needs one time per batch size, got "
                f"{len(sizes)} size(s) and {len(seconds)} time(s)"
            )
        if sizes[0] != 1 or any(a >= b for a, b in zip(sizes, sizes[1:])):
            raise ConfigurationError(
                f"service table sizes must start at 1 and strictly "
                f"increase, got {sizes}"
            )
        if not all(np.isfinite(seconds)) or seconds[0] < 0 or any(
            a > b for a, b in zip(seconds, seconds[1:])
        ):
            raise ConfigurationError(
                f"service table times must be finite, >= 0 and "
                f"non-decreasing, got {seconds}"
            )
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "seconds", seconds)

    def batch_seconds(self, n_queries: int) -> float:
        """The service time of a batch of ``n_queries``."""
        n = int(n_queries)
        sizes, seconds = self.sizes, self.seconds
        if not 1 <= n <= sizes[-1]:
            raise ConfigurationError(
                f"a batch of {n} is outside the service table's sizes "
                f"1..{sizes[-1]}"
            )
        i = bisect_left(sizes, n)
        if sizes[i] == n:
            return seconds[i]
        lo, hi = sizes[i - 1], sizes[i]
        step = seconds[i] - seconds[i - 1]
        return seconds[i - 1] + step * (n - lo) / (hi - lo)

    def to_ms(self) -> dict:
        """JSON-ready ``{"sizes": [...], "ms": [...]}`` (lists keep their
        order through a key-sorted encoder)."""
        return {"sizes": list(self.sizes),
                "ms": [s * 1e3 for s in self.seconds]}


class BatchQueue:
    """The micro-batching dispatch rule as a causal per-board state machine.

    Requests are :meth:`push`-ed strictly in arrival order.  At any point,
    :meth:`next_dispatch_s` names the time the next batch would leave *if no
    further request arrived first*; callers must therefore only
    :meth:`pop_batch` once every arrival at or before that time has been
    pushed (arrivals win ties — a request landing exactly at the dispatch
    instant joins the batch).  The rule:

    * never dispatch before the board is free (``t_free``) or before the
      oldest queued request has arrived;
    * a full batch (``max_batch_size`` queued) leaves as soon as board and
      requests allow;
    * otherwise the batch leaves ``max_wait_s`` after the oldest request
      arrived (extended to the board-free time when busy), taking
      everything queued by then.  At the default ``max_wait_s = 0`` that
      is ``max(head arrival, t_free)``: work-conserving.

    The queue never looks ahead: decisions depend only on requests already
    pushed and on the board-free time, which is what lets a cluster-level
    event loop interleave many queues deterministically.
    """

    def __init__(self, max_batch_size: int = 16, max_wait_s: float = 0.0):
        self.max_batch_size = check_positive_int(max_batch_size, "max_batch_size")
        if max_wait_s < 0:
            raise ConfigurationError(f"max_wait_s must be >= 0, got {max_wait_s}")
        self.max_wait_s = float(max_wait_s)
        #: Board-free time; the owner advances it to each batch's completion.
        self.t_free = 0.0
        self._pending: "deque[tuple[int, float]]" = deque()

    @property
    def queued(self) -> int:
        """Requests waiting for dispatch (excludes any batch in service)."""
        return len(self._pending)

    @property
    def pending(self) -> "tuple[tuple[int, float], ...]":
        """Snapshot of the queued ``(id, arrival)`` pairs, oldest first."""
        return tuple(self._pending)

    def push(self, request_id: int, arrival_s: float) -> None:
        """Enqueue one request; arrivals must be pushed in time order."""
        if self._pending and arrival_s < self._pending[-1][1]:
            raise ConfigurationError(
                f"arrivals must be pushed in time order: {arrival_s} after "
                f"{self._pending[-1][1]}"
            )
        self._pending.append((int(request_id), float(arrival_s)))

    def next_dispatch_s(self) -> "float | None":
        """When the next batch leaves, barring earlier arrivals; None if idle."""
        if not self._pending:
            return None
        head_s = self._pending[0][1]
        earliest = max(head_s, self.t_free)
        deadline = max(head_s + self.max_wait_s, earliest)
        if len(self._pending) >= self.max_batch_size:
            fill = max(self._pending[self.max_batch_size - 1][1], earliest)
            return min(fill, deadline)
        return deadline

    def pop_batch(self) -> "tuple[float, list[tuple[int, float]]]":
        """Remove the next batch; returns (dispatch time, [(id, arrival)]).

        The batch is the oldest ``max_batch_size`` requests: an
        event-ordered driver has pushed every arrival at or before the
        dispatch time, and nothing later.
        """
        dispatch = self.next_dispatch_s()
        if dispatch is None:
            raise ConfigurationError("cannot pop a batch from an empty queue")
        size = min(len(self._pending), self.max_batch_size)
        return dispatch, [self._pending.popleft() for _ in range(size)]

    def drain(self) -> "list[tuple[int, float]]":
        """Empty the queue, returning every waiting ``(id, arrival)``.

        The failover path: a crashed replica's waiting room is drained at
        the crash instant so its requests can be requeued elsewhere.
        """
        members = list(self._pending)
        self._pending.clear()
        return members


#: The latency/throughput keys of :meth:`ServingMetrics.to_dict`.
LATENCY_KEYS = (
    "n_queries", "p50_latency_ms", "p99_latency_ms", "mean_latency_ms",
    "qps", "span_s",
)


@dataclass(frozen=True)
class ServingMetrics:
    """What became of every offered request, and the numbers derived from it.

    ``outcomes`` holds one terminal outcome per offered request —
    ``served``, ``cache-hit``, ``rejected``, ``failed`` or, for a live reply
    that was a typed error frame, ``error:<code>`` — and ``latencies_s``
    one latency per completed (``served``/``cache-hit``) request.  The
    caller supplies ``span_s`` and so keeps its own definition of the
    measured interval.  Every count, rate, percentile and QPS figure the
    serving stack reports is computed here, and :meth:`to_dict` is the one
    shape they render to.
    """

    outcomes: "tuple[str, ...]"
    latencies_s: np.ndarray
    span_s: float

    def _count(self, outcome: str) -> int:
        return sum(1 for o in self.outcomes if o == outcome)

    @property
    def n_offered(self) -> int:
        """Every offered request, whatever became of it."""
        return len(self.outcomes)

    @property
    def n_queries(self) -> int:
        """Completed requests: engine-served plus cache hits."""
        return len(self.latencies_s)

    @property
    def n_served(self) -> int:
        return self._count(SERVED)

    @property
    def n_cache_hits(self) -> int:
        return self._count(CACHE_HIT)

    @property
    def n_rejected(self) -> int:
        return self._count(REJECTED)

    @property
    def n_failed(self) -> int:
        """Requests typed-failed after exhausting their retry budget."""
        return self._count(FAILED)

    @property
    def error_codes(self) -> "dict[str, int]":
        """Typed error replies keyed by their ``code``."""
        errors = (o for o in self.outcomes if o.startswith(ERROR_PREFIX))
        return dict(Counter(o[len(ERROR_PREFIX):] for o in errors))

    @property
    def n_errors(self) -> int:
        return sum(self.error_codes.values())

    @property
    def reject_rate(self) -> float:
        return share(self.n_rejected, self.n_offered)

    @property
    def cache_hit_rate(self) -> float:
        return share(self.n_cache_hits, self.n_offered)

    @property
    def availability(self) -> float:
        """Completed over offered (1.0 for an empty run): rejects, failures
        and typed errors all count against it."""
        return share(self.n_queries, self.n_offered, empty=1.0)

    @property
    def p50_latency_s(self) -> float:
        return percentile(self.latencies_s, 50)

    @property
    def p99_latency_s(self) -> float:
        return percentile(self.latencies_s, 99)

    @property
    def mean_latency_s(self) -> float:
        return float(np.mean(self.latencies_s)) if self.n_queries else 0.0

    @property
    def qps(self) -> float:
        """Completed requests per second over the span."""
        return self.n_queries / self.span_s if self.span_s > 0.0 else 0.0

    def to_dict(self) -> dict:
        """JSON-ready summary: the shape every view's payload is cut from."""
        return {
            "n_queries": self.n_queries,
            "n_offered": self.n_offered,
            "n_served": self.n_served,
            "n_cache_hits": self.n_cache_hits,
            "n_rejected": self.n_rejected,
            "n_failed": self.n_failed,
            "n_errors": self.n_errors,
            "error_codes": self.error_codes,
            "reject_rate": self.reject_rate,
            "cache_hit_rate": self.cache_hit_rate,
            "availability": self.availability,
            "p50_latency_ms": self.p50_latency_s * 1e3,
            "p99_latency_ms": self.p99_latency_s * 1e3,
            "mean_latency_ms": self.mean_latency_s * 1e3,
            "qps": self.qps,
            "span_s": self.span_s,
        }

    def view(self, *keys: str) -> dict:
        """The named entries of :meth:`ServingMetrics.to_dict` (a view's
        payload is a cut of the shared one, whatever it overrides)."""
        shared = ServingMetrics.to_dict(self)
        return {key: shared[key] for key in keys}


@dataclass(frozen=True)
class ServingReport(ServingMetrics):
    """The simulator's view of one serving run: its metrics, batch log and
    energy."""

    batches: "tuple[ServedBatch, ...]"
    energy_j: float

    @property
    def n_batches(self) -> int:
        return len(self.batches)

    @property
    def mean_batch_size(self) -> float:
        if not self.batches:
            return 0.0
        return float(np.mean([b.size for b in self.batches]))

    def to_dict(self) -> dict:
        """JSON-ready summary (used by the serve-bench CLI)."""
        return {
            **self.view(*LATENCY_KEYS),
            "n_batches": self.n_batches,
            "mean_batch_size": self.mean_batch_size,
            "batch_sizes": [b.size for b in self.batches],
            "energy_j": self.energy_j,
        }

    def render(self) -> str:
        """Human-readable block for CLI output."""
        return "\n".join(
            [
                f"served {self.n_queries} queries in {self.n_batches} batches "
                f"(mean size {self.mean_batch_size:.1f})",
                f"latency p50 {self.p50_latency_s * 1e3:.3f} ms | "
                f"p99 {self.p99_latency_s * 1e3:.3f} ms | "
                f"mean {self.mean_latency_s * 1e3:.3f} ms",
                f"throughput {self.qps:.1f} QPS over {self.span_s * 1e3:.1f} ms, "
                f"energy {self.energy_j:.3f} J",
            ]
        )
