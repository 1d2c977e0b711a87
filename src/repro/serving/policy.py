"""The cluster tier's decision core, shared by the simulator and the daemon.

:class:`~repro.serving.cluster.ClusterRuntime` (the deterministic
discrete-event simulation) and :class:`~repro.serving.live.LiveServer` (the
asyncio daemon serving wall-clock traffic) must make *identical* decisions —
batch membership, dispatch order, route choice, cache hit/miss, rejects,
and, under an injected :class:`~repro.serving.faults.FaultPlan`, failover,
retry and hedge choices — given the same ``(request id, arrival time,
query)`` stream.  That guarantee is not asserted after the fact; it is
engineered here: both drivers push their events through one
:class:`ClusterPolicy` instance, so the decision logic exists exactly once
and the replay property suites (``tests/property/test_prop_live_replay.py``,
``tests/property/test_prop_faults.py``) only have to check that the drivers
deliver events in the same order.

A policy instance is driven through four calls, always in non-decreasing
virtual time:

* :meth:`offer` — a request arrives: apply due events and completions, try
  the cache, route (excluding down replicas), admit (or reject), enqueue;
* :meth:`advance` — run every *policy event* (crash/recover transitions
  from the plan, due retries, due hedges) and every batch dispatch strictly
  before an instant, in virtual-time order (events win ties with
  dispatches; an arrival offered at that instant wins its tie with a
  dispatch and loses it to an event).  A dispatch is a whole decision: the
  batch leaves its replica's :class:`~repro.serving.batcher.BatchQueue`,
  its completion is fixed at the dispatch instant plus the replica's
  service time (scaled by any slow window), injected
  failures bite (a crash mid-service or an injected engine exception
  requeues the members with seeded backoff), and the traces, the batch log
  and the cache-fill event are written.  A surviving batch goes to the
  driver's ``launch`` callback as a :class:`PendingBatch`;
* :meth:`attach` — the data plane hands a :class:`PendingBatch` its engine
  answer; the only call that reads a payload;
* :meth:`drain_completions` — apply every completion up to a given instant
  (cache inserts and outstanding-count decrements never see the future).

Decisions therefore never wait for data.  The simulator's ``launch`` runs
the engine and attaches inline; the daemon's queues the batch on the
replica's worker and attaches when it returns.  Either way the *policy
clock* advances by the service time the run recorded — each replica's
declared ``batch_seconds(n)``, or the
:class:`~repro.serving.batcher.ServiceTable` the daemon measured on its
host — which locks the live daemon's decisions to the simulator even
though its requests ride a real wall clock.  A cache fill holds a result
*slot*, so a hit may be decided before its data lands; it is answered
when the slot fills.

**Exactly-once delivery.**  A request may be queued more than once (a
hedge duplicate, or a requeue after a failure) but completes at most once:
the first dispatch decided to complete it records the trace, later copies
are discarded.  A request whose retry budget is exhausted gets a
typed ``failed`` trace — conservation holds: every offered request ends
``served``, ``cache-hit``, ``rejected`` or ``failed``, never silently
dropped and never duplicated.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.core.reference import TopKResult
from repro.errors import ConfigurationError, FormatError
from repro.serving.batcher import (
    CACHE_HIT,
    FAILED,
    REJECTED,
    SERVED,
    BatchQueue,
    ServedBatch,
    check_served_batch,
)
from repro.serving.cache import query_cache_key
from repro.serving.faults import (
    DOWN,
    HEALTHY,
    RECOVERING,
    SUSPECT_STRIKES,
    SUSPECTED,
    ResilienceConfig,
)

__all__ = [
    "SERVED",
    "CACHE_HIT",
    "REJECTED",
    "FAILED",
    "QUEUED",
    "RequestTrace",
    "PendingBatch",
    "ClusterPolicy",
    "check_served_batch",
]

#: :meth:`ClusterPolicy.offer` outcome for a request that entered a queue
#: (its trace is written later, when a batch holding it is dispatched).
QUEUED = "queued"

#: Event-heap priorities: plan transitions fire before retries, retries
#: before hedges, at the same instant (a retry landing at a recovery
#: instant must see the recovered replica).
_EVENT_PRIORITY = {"crash": 0, "recover": 1, "retry": 2, "hedge": 3}


@dataclass(frozen=True)
class RequestTrace:
    """What happened to one request, in full (the replay-test currency).

    ``arrival_s`` is always the *original* arrival — retries and hedges
    never rewrite it, so a recorded stream replays through the simulator
    verbatim.  ``replica`` is the replica the router chose (also set for
    rejected requests — the reject is accounted against it) and ``-1`` for
    cache hits and failed requests.  ``dispatch_s``, ``completion_s`` and
    ``latency_s`` are ``None`` for rejected and failed requests; cache hits
    complete instantly (``latency_s == 0.0``).
    """

    request_id: int
    arrival_s: float
    status: str
    replica: int
    dispatch_s: "float | None"
    completion_s: "float | None"
    latency_s: "float | None"


@dataclass
class _Slot:
    """One delivered request's result: decided at dispatch, filled by
    :meth:`ClusterPolicy.attach`.  The cache fill holds the slot, so a hit
    can be decided before the data lands; ``hits`` are the requests
    answered from it meanwhile."""

    rid: int
    result: "TopKResult | None" = None
    hits: "list[int]" = field(default_factory=list)
    failed: bool = False


@dataclass(frozen=True)
class PendingBatch:
    """A dispatched batch whose data has not been attached yet.

    The decision plane hands it to the driver's ``launch``; the data plane
    runs ``queries`` on replica ``replica`` and passes the answer to
    :meth:`ClusterPolicy.attach` (or a real engine exception to
    :meth:`ClusterPolicy.fail_batch`).  ``seconds`` is the engine's
    declared service time, ``log`` the batch-log entry, and ``slots`` one
    per member (``None`` where a hedge twin already delivered it).
    """

    replica: int
    queries: np.ndarray
    seconds: float
    log: ServedBatch
    slots: "tuple[_Slot | None, ...]"


@dataclass
class _ReplicaState:
    """Mutable per-replica bookkeeping of one run."""

    queue: BatchQueue
    outstanding: int = 0
    routed: int = 0
    rejected: int = 0
    energy_j: float = 0.0
    first_arrival_s: "float | None" = None
    last_completion_s: float = 0.0
    #: Health state machine: healthy -> suspected -> down -> recovering.
    health: str = HEALTHY
    #: Consecutive failed batches (reset on success; SUSPECT_STRIKES -> down).
    strikes: int = 0
    #: Batches popped so far (the index EngineFault injections key on).
    dispatched: int = 0
    #: Crash transitions applied (plan crashes + strike-outs).
    crashes: int = 0


class ClusterPolicy:
    """One in-progress serving run's decisions, fed events incrementally.

    Parameters mirror :class:`~repro.serving.cluster.ClusterRuntime` (which
    constructs its policy via
    :meth:`~repro.serving.cluster.ClusterRuntime.build_policy`):
    ``batch_seconds`` holds each replica's declared service time as a
    function of the batch size, and ``service_tables`` (optional) the
    measured :class:`~repro.serving.batcher.ServiceTable` per replica that
    replaces it on the policy clock.  ``router`` must already be reset,
    ``cache`` already keyed for ``(digest, generation)``, ``design`` is the
    first replica's accelerator design (for query quantisation in the
    cache key) or ``None``.  ``fault_plan`` (optional) injects the seeded
    failure schedule; ``resilience`` carries the retry/backoff/hedge knobs
    (defaults apply when ``None``).

    The policy is single-run state: build a fresh one per stream.  It holds
    every recorded outcome — traces, per-request results, batches in
    dispatch order with their replicas — which the drivers turn into a
    :class:`~repro.serving.cluster.ClusterReport`.
    """

    def __init__(
        self,
        batch_seconds,
        router,
        cache,
        design,
        digest: "str | None",
        generation: "int | str | None",
        max_batch_size: int,
        max_wait_s: float,
        queue_capacity: "int | None",
        top_k: int,
        fault_plan=None,
        resilience: "ResilienceConfig | None" = None,
        service_tables=None,
    ):
        self.batch_seconds = list(batch_seconds)
        self.service_tables = service_tables
        self.n_replicas = len(self.batch_seconds)
        self.router = router
        self.cache = cache
        self.design = design
        self.digest = digest
        self.generation = generation
        self.queue_capacity = queue_capacity
        self.top_k = int(top_k)
        self.fault_plan = fault_plan
        self.resilience = resilience if resilience is not None else ResilienceConfig()
        self.states = [
            _ReplicaState(queue=BatchQueue(max_batch_size, max_wait_s))
            for _ in range(self.n_replicas)
        ]
        #: Per-request records, keyed by request id (insertion ordered);
        #: ``results`` fill when the data attaches, after the trace.
        self.queries: "dict[int, np.ndarray]" = {}
        self.results: "dict[int, TopKResult]" = {}
        self.traces: "dict[int, RequestTrace]" = {}
        #: Every successful batch in dispatch order, and the replica that
        #: ran each one.
        self.all_batches: "list[ServedBatch]" = []
        self.batch_replica: "list[int]" = []
        self.n_cache_hits = 0
        # Completion events: (time, seq, replica, n_members, [(key, slot)]).
        # Drained strictly in time order before any arrival/dispatch at a
        # later instant, so outstanding counts — and the cache — only ever
        # see the past.  Failed batches decrement outstanding with an empty
        # insert list.
        self._completions: list = []
        self._seq = 0
        # Policy events: (time, priority, seq, kind, payload) — plan
        # crash/recover transitions, due retries, due hedges.
        self._events: list = []
        self._event_seq = 0
        if self.fault_plan is not None:
            for at_s, kind, replica in self.fault_plan.transitions():
                self._push_event(at_s, kind, replica)
        # Original arrival per request id (traces and replay use these;
        # retry/hedge queue pushes carry later stamps).
        self._arrival0: "dict[int, float]" = {}
        # Live queue/in-flight copies per rid: a request is only failed out
        # when no copy can still complete it.
        self._copies: "dict[int, int]" = {}
        # Attempts consumed per rid (0 = the original dispatch).
        self._attempts: "dict[int, int]" = {}
        # Fault/recovery accounting (reported as ClusterReport.fault_stats).
        self.n_retries = 0
        self.n_hedges = 0
        self.n_hedge_wasted = 0
        self.n_failed = 0
        self.n_batch_failures = 0
        # The latest instant decided so far (a real failure is never
        # stamped before it).
        self._clock_s = float("-inf")

    # ------------------------------------------------------------------ #
    # Event ingestion
    # ------------------------------------------------------------------ #
    def drain_completions(self, until_s: float) -> None:
        """Apply every completion at or before ``until_s``."""
        while self._completions and self._completions[0][0] <= until_s:
            _, _, replica, n_members, inserts = heapq.heappop(self._completions)
            self.states[replica].outstanding -= n_members
            for key, slot in inserts:
                self.cache.put(key, slot)

    def flush_completions(self) -> "float | None":
        """Apply every scheduled completion, however far in the virtual
        future; returns the latest completion instant applied (``None`` if
        nothing was pending).  Callers that keep feeding arrivals afterwards
        must not stamp one before that instant — it would observe a cache
        fill the simulator would still have had in flight."""
        if not self._completions:
            return None
        latest = max(entry[0] for entry in self._completions)
        self.drain_completions(float("inf"))
        return latest

    def _next_dispatch(self) -> "tuple[float, int] | None":
        """Earliest pending ``(dispatch time, replica)``, barring arrivals.

        Down replicas never dispatch (their queues are drained at the
        crash, so this is a guard, not a decision).
        """
        best = None
        best_replica = -1
        for r, state in enumerate(self.states):
            if state.health == DOWN:
                continue
            at = state.queue.next_dispatch_s()
            if at is not None and (best is None or at < best):
                best, best_replica = at, r
        return None if best is None else (best, best_replica)

    def next_due_s(self) -> "float | None":
        """Earliest pending policy event or dispatch (``None`` when idle)."""
        dispatch = self._next_dispatch()
        due = [self._events[0][0]] if self._events else []
        if dispatch is not None:
            due.append(dispatch[0])
        return min(due, default=None)

    def advance(self, until_s: float, launch) -> None:
        """Run every policy event and dispatch strictly before ``until_s``.

        Virtual-time order; events win ties with dispatches, and an arrival
        the caller then offers at ``until_s`` wins its tie with a dispatch
        (it joins the departing batch).  Every batch that survives its
        dispatch decision goes to ``launch(batch)`` as a
        :class:`PendingBatch`; the simulator attaches inline, the daemon
        when the replica's worker returns.
        """
        while True:
            dispatch = self._next_dispatch()
            event_s = self._events[0][0] if self._events else None
            if event_s is not None and event_s < until_s and (
                dispatch is None or event_s <= dispatch[0]
            ):
                self._run_events(event_s)
            elif dispatch is not None and dispatch[0] < until_s:
                batch = self._dispatch(*dispatch)
                if batch is not None:
                    launch(batch)
            else:
                return

    # ------------------------------------------------------------------ #
    # Policy events: crash/recover transitions, retries, hedges
    # ------------------------------------------------------------------ #
    def _push_event(self, at_s: float, kind: str, payload) -> None:
        heapq.heappush(
            self._events,
            (float(at_s), _EVENT_PRIORITY[kind], self._event_seq, kind, payload),
        )
        self._event_seq += 1

    def _run_events(self, until_s: float) -> None:
        """Apply every policy event at or before ``until_s``, in order."""
        while self._events and self._events[0][0] <= until_s:
            at_s, _, _, kind, payload = heapq.heappop(self._events)
            self._clock_s = at_s
            self.drain_completions(at_s)
            if kind == "crash":
                self._apply_crash(int(payload), at_s)
            elif kind == "recover":
                self._apply_recover(int(payload), at_s)
            elif kind == "retry":
                self._apply_retry(int(payload), at_s)
            else:  # hedge
                rid, replica = payload
                self._apply_hedge(int(rid), int(replica), at_s)

    def _eligible(self) -> "list[int]":
        return [r for r, s in enumerate(self.states) if s.health != DOWN]

    def _apply_crash(self, replica: int, at_s: float) -> None:
        """Plan transition: the replica dies; its queue is requeued."""
        state = self.states[replica]
        state.health = DOWN
        state.strikes = 0
        state.crashes += 1
        if self.fault_plan is not None:
            recover_s = self.fault_plan.recover_after(replica, at_s)
        else:  # pragma: no cover - crash events only exist with a plan
            recover_s = at_s
        state.queue.t_free = max(state.queue.t_free, recover_s)
        for rid, _arrival in state.queue.drain():
            self._copies[rid] -= 1
            self._requeue(rid, at_s)

    def _apply_recover(self, replica: int, at_s: float) -> None:
        """Plan transition: the replica is back (promoted on first success)."""
        state = self.states[replica]
        state.health = RECOVERING
        state.strikes = 0
        state.queue.t_free = max(state.queue.t_free, at_s)

    def _strike(self, replica: int, at_s: float) -> None:
        """One failed batch: suspected; SUSPECT_STRIKES in a row -> down."""
        state = self.states[replica]
        state.strikes += 1
        if state.strikes >= SUSPECT_STRIKES:
            state.health = DOWN
            state.crashes += 1
            # A strike-out has no scheduled recovery: drain and fail over.
            for rid, _arrival in state.queue.drain():
                self._copies[rid] -= 1
                self._requeue(rid, at_s)
        elif state.health != DOWN:
            state.health = SUSPECTED

    def _requeue(self, rid: int, at_s: float) -> None:
        """A copy of ``rid`` was lost; schedule a retry or fail it out."""
        if rid in self.traces:
            return  # a hedge twin already delivered it
        if self._copies.get(rid, 0) > 0:
            return  # another copy (queued or in flight) can still serve it
        attempt = self._attempts.get(rid, 0) + 1
        if attempt > self.resilience.max_retries:
            self._fail_request(rid)
            return
        self._attempts[rid] = attempt
        self.n_retries += 1
        delay = self.resilience.backoff_s(rid, attempt)
        self._push_event(at_s + delay, "retry", rid)

    def _untimed(self, rid: int, status: str, replica: int = -1) -> None:
        """A terminal trace that never dispatched: rejected or failed."""
        self.traces[rid] = RequestTrace(
            request_id=rid,
            arrival_s=self._arrival0[rid],
            status=status,
            replica=replica,
            dispatch_s=None,
            completion_s=None,
            latency_s=None,
        )

    def _fail_request(self, rid: int) -> None:
        """Retry budget exhausted: typed terminal ``failed`` trace."""
        self.n_failed += 1
        self._untimed(rid, FAILED)

    def _enqueue(self, replica: int, rid: int, at_s: float) -> None:
        state = self.states[replica]
        state.queue.push(rid, at_s)
        state.outstanding += 1
        self._copies[rid] = self._copies.get(rid, 0) + 1

    def _route(self, rid: int, at_s: float, eligible) -> "int | None":
        """Route among ``eligible`` replicas and admit; ``None`` if rejected."""
        choice = int(
            self.router.select([self.states[r].outstanding for r in eligible])
        )
        if not 0 <= choice < len(eligible):
            raise ConfigurationError(
                f"router {self.router.name!r} chose replica {choice} of "
                f"{len(eligible)}"
            )
        replica = eligible[choice]
        state = self.states[replica]
        state.routed += 1
        if (
            self.queue_capacity is not None
            and state.queue.queued >= self.queue_capacity
        ):
            state.rejected += 1
            self._untimed(rid, REJECTED, replica)
            return None
        self._enqueue(replica, rid, at_s)
        return replica

    def _apply_retry(self, rid: int, at_s: float) -> None:
        """Re-route one lost request among the currently-up replicas."""
        if rid in self.traces:
            return  # terminal while the retry was pending (hedge/failure)
        eligible = self._eligible()
        if not eligible:
            # The whole fleet is down.  Wait for the next scheduled
            # recovery without consuming an attempt; fail out typed when
            # none is coming.
            for at, _prio, _seq, kind, _payload in sorted(self._events):
                if kind == "recover" and at >= at_s:
                    self._push_event(at, "retry", rid)
                    return
            self._fail_request(rid)
            return
        self._route(rid, at_s, eligible)

    def _apply_hedge(self, rid: int, replica: int, at_s: float) -> None:
        """Duplicate a still-queued slow request onto another replica."""
        if rid in self.traces:
            return  # already terminal
        state = self.states[replica]
        if not any(qid == rid for qid, _ in state.queue.pending):
            return  # already dispatched (in flight); first completion wins
        candidates = [
            r
            for r in self._eligible()
            if r != replica
            and (
                self.queue_capacity is None
                or self.states[r].queue.queued < self.queue_capacity
            )
        ]
        if not candidates:
            return
        target = min(
            candidates, key=lambda r: (self.states[r].outstanding, r)
        )
        self._enqueue(target, rid, at_s)
        self.n_hedges += 1

    def cache_key(self, rid: int):
        """The exact-result cache key of one offered request."""
        query = self.queries[rid]
        quantised = (
            self.design.quantize_query(query)
            if self.design is not None
            else query
        )
        return query_cache_key(
            self.digest, quantised, self.top_k, self.generation
        )

    def offer(self, rid: int, arrival_s: float, query: np.ndarray) -> str:
        """One request arrives: cache → route → admit.

        Returns :data:`CACHE_HIT`, :data:`REJECTED` or :data:`QUEUED`.  The
        caller must already have run :meth:`advance` to ``arrival_s``;
        policy events *at* ``arrival_s`` run here, first (arrivals lose
        ties to events).  A hit on a slot whose data is still in flight is
        decided now and answered when the slot fills.
        """
        rid = int(rid)
        arrival_s = float(arrival_s)
        self._run_events(arrival_s)
        self._clock_s = arrival_s
        self.drain_completions(arrival_s)
        self.queries[rid] = np.asarray(query, dtype=np.float64)
        self._arrival0[rid] = arrival_s
        if self.cache is not None:
            slot = self.cache.get(self.cache_key(rid))
            if slot is not None and not slot.failed:
                if slot.result is None:
                    slot.hits.append(rid)
                else:
                    self.results[rid] = slot.result
                self.n_cache_hits += 1
                self.traces[rid] = RequestTrace(
                    request_id=rid,
                    arrival_s=arrival_s,
                    status=CACHE_HIT,
                    replica=-1,
                    dispatch_s=arrival_s,
                    completion_s=arrival_s,
                    latency_s=0.0,
                )
                return CACHE_HIT
        eligible = self._eligible()
        if not eligible:
            # Defensive: a generated plan always leaves a survivor, but a
            # hand-written one may not — reject typed, never hang.
            self._untimed(rid, REJECTED)
            return REJECTED
        replica = self._route(rid, arrival_s, eligible)
        if replica is None:
            return REJECTED
        state = self.states[replica]
        if state.first_arrival_s is None:
            state.first_arrival_s = arrival_s
        if self.resilience.hedge_after_s is not None and self.n_replicas > 1:
            self._push_event(
                arrival_s + self.resilience.hedge_after_s,
                "hedge",
                (rid, replica),
            )
        return QUEUED

    def _dispatch(
        self, dispatch_s: float, replica: int
    ) -> "PendingBatch | None":
        """Decide one batch in full at its dispatch instant.

        Pops the batch, fixes its completion from the replica's service
        time (scaled by any slow-replica window), and records
        traces, the batch log and the cache fill at the completion instant
        (applied by a later :meth:`drain_completions` — results never
        time-travel into the cache).  With a fault plan, this is also where
        injected failures land: a crash strictly inside the service
        interval loses the batch at the crash instant, an injected engine
        exception loses it at its completion; either way the members are
        requeued with backoff, nothing is recorded and ``None`` is returned.
        """
        self._clock_s = dispatch_s
        self.drain_completions(dispatch_s)
        state = self.states[replica]
        _, members = state.queue.pop_batch()
        batch_index = state.dispatched
        state.dispatched += 1
        for rid, _arrival in members:
            self._copies[rid] -= 1
        declared = float(self.batch_seconds[replica](len(members)))
        seconds = (
            declared if self.service_tables is None
            else self.service_tables[replica].batch_seconds(len(members))
        )
        plan = self.fault_plan
        factor = (
            plan.service_factor(replica, dispatch_s) if plan is not None
            else 1.0
        )
        service_s = seconds * factor
        completion = dispatch_s + service_s
        crash_s = (
            plan.crash_in(replica, dispatch_s, completion)
            if plan is not None
            else None
        )
        if crash_s is not None:
            # Lost in flight: the crash transition (still pending in the
            # event heap) owns the health flip and the recovery t_free;
            # only the loss itself is applied here.
            self._fail_members(replica, crash_s, members, strike=False)
            return None
        if plan is not None and plan.fails_batch(replica, batch_index):
            state.queue.t_free = max(state.queue.t_free, completion)
            self._fail_members(replica, completion, members, strike=True)
            return None
        state.queue.t_free = completion
        state.strikes = 0
        if state.health in (SUSPECTED, RECOVERING):
            state.health = HEALTHY
        slots, inserts = [], []
        for rid, _push_arrival in members:
            if rid in self.traces:
                # A hedge twin already delivered this request; discard.
                self.n_hedge_wasted += 1
                slots.append(None)
                continue
            arrival = self._arrival0[rid]
            self.traces[rid] = RequestTrace(
                request_id=rid,
                arrival_s=arrival,
                status=SERVED,
                replica=replica,
                dispatch_s=float(dispatch_s),
                completion_s=float(completion),
                latency_s=float(completion - arrival),
            )
            slots.append(_Slot(rid))
            if self.cache is not None:
                inserts.append((self.cache_key(rid), slots[-1]))
        log = ServedBatch(
            indices=tuple(rid for rid, _ in members),
            dispatch_s=float(dispatch_s),
            service_s=service_s,
        )
        self.all_batches.append(log)
        self.batch_replica.append(replica)
        state.last_completion_s = completion
        heapq.heappush(
            self._completions,
            (completion, self._seq, replica, len(members), inserts),
        )
        self._seq += 1
        return PendingBatch(
            replica=replica,
            queries=np.stack([self.queries[rid] for rid, _ in members]),
            seconds=declared,
            log=log,
            slots=tuple(slots),
        )

    def attach(self, batch: PendingBatch, served) -> None:
        """Hand a dispatched batch its engine answer (the only payload read).

        Fills the results and the batch's cache slots, and bills the
        engine's energy.  Raises :class:`~repro.errors.FormatError` when
        the engine returned the wrong number of results, or a service time
        other than the ``batch_seconds`` it declared — whichever clock the
        decision ran on.
        """
        topk = check_served_batch(served, len(batch.slots))
        if served.seconds != batch.seconds:
            raise FormatError(
                f"engine reported {served.seconds} s for a batch of "
                f"{len(batch.slots)} but declared batch_seconds = "
                f"{batch.seconds} s"
            )
        for slot, result in zip(batch.slots, topk):
            if slot is not None:
                slot.result = result
                for rid in (slot.rid, *slot.hits):
                    self.results[rid] = result
        self.states[batch.replica].energy_j += served.energy_j

    def fail_batch(self, batch: PendingBatch, at_s: float) -> None:
        """A *real* (uninjected) engine failure, detected at ``at_s``.

        Retracts what the batch delivered — its members' traces, every
        cache hit answered from its slots, its batch-log entry — and hands
        those requests to the retry path at the detection instant (never
        before an instant already decided), striking the replica.  Real
        failures are not in any plan, so this path favours graceful
        degradation over replayability (a run that hits one will not
        verify decision-identical, by design).
        """
        at_s = max(float(at_s), self._clock_s)
        index = next(
            i for i, log in enumerate(self.all_batches) if log is batch.log
        )
        del self.all_batches[index], self.batch_replica[index]
        lost = []
        for slot in batch.slots:
            if slot is not None:
                slot.failed = True
                lost += [slot.rid, *slot.hits]
        for rid in lost:
            if self.traces.pop(rid).status == CACHE_HIT:
                self.n_cache_hits -= 1
        self.n_batch_failures += 1
        for rid in lost:
            self._requeue(rid, at_s)
        self._strike(batch.replica, at_s)

    def _fail_members(
        self, replica: int, at_s: float, members, strike: bool
    ) -> None:
        """Injected loss at dispatch: requeue, strike, account."""
        self.n_batch_failures += 1
        for rid, _arrival in members:
            self._requeue(rid, at_s)
        if strike:
            self._strike(replica, at_s)
        heapq.heappush(
            self._completions, (at_s, self._seq, replica, len(members), [])
        )
        self._seq += 1

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def n_offered(self) -> int:
        """Requests offered so far (queued requests included)."""
        return len(self.queries)

    @property
    def n_queued(self) -> int:
        """Queue slots currently occupied (hedge duplicates included)."""
        return sum(s.queue.queued for s in self.states)

    def fault_stats(self) -> "dict | None":
        """Fault/recovery counters of the run (``None`` for a clean run)."""
        total = (
            self.n_retries
            + self.n_hedges
            + self.n_failed
            + self.n_batch_failures
        )
        if self.fault_plan is None and total == 0:
            return None
        return {
            "n_batch_failures": self.n_batch_failures,
            "n_retries": self.n_retries,
            # Rescued: delivered by an engine after at least one retry.
            "n_rescued": sum(
                self.traces[rid].status == SERVED
                for rid in self._attempts
                if rid in self.traces
            ),
            "n_failed": self.n_failed,
            "n_hedges": self.n_hedges,
            "n_hedge_wasted": self.n_hedge_wasted,
            "n_crashes": sum(s.crashes for s in self.states),
            "health": [s.health for s in self.states],
        }

    def recorded_stream(self) -> "tuple[np.ndarray, np.ndarray]":
        """The offered ``(queries, arrivals)`` in request-id order.

        Arrivals are the *original* arrival instants (retries and hedges
        never rewrite them), so this is the exact input a
        :class:`~repro.serving.cluster.ClusterRuntime` needs to replay the
        run — queued-but-undispatched requests are included, so replay a
        *finished* stream.
        """
        rids = sorted(self.queries)
        queries = np.stack([self.queries[rid] for rid in rids])
        arrivals = np.array(
            [self._arrival0[rid] for rid in rids], dtype=np.float64
        )
        return queries, arrivals
