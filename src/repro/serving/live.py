"""Live asyncio serving daemon, decision-locked to the cluster simulator.

:class:`LiveServer` points real traffic at the cluster tier: a socket
daemon (length-prefixed JSON, :mod:`repro.serving.protocol`) that runs the
micro-batching deadlines, routers, exact-result cache and bounded-queue
admission control of :class:`~repro.serving.cluster.ClusterRuntime` against
a wall clock, with engine batches pushed through a thread executor so the
event loop never blocks.

**The decision lock.**  The daemon does not reimplement the serving policy
— it drives the very same :class:`~repro.serving.policy.ClusterPolicy` the
simulator drives, on a *virtual clock*: arrivals are stamped off the event
loop's monotonic clock, but board-free times advance by the engine's
modelled ``served.seconds``.  Decisions (batch membership, dispatch order,
route choice, cache hit/miss, rejects) therefore depend only on the
``(request id, arrival time, query)`` stream — replaying that recorded
stream through a fresh ``ClusterRuntime`` reproduces every decision and
every result bit-for-bit, which :func:`decisions_equivalent` checks and
the replay property suite asserts.

Three invariants make the lock hold under concurrency:

* **arrival monotonicity** — arrivals are stamped inside the policy lock
  and clamped strictly after the latest submitted dispatch (one float ulp
  via ``nextafter``), so the sim's event ordering (arrivals win ties with
  dispatches) replays exactly;
* **dispatch-order completion** — engine batches run concurrently across
  replicas, but their results are applied to the policy strictly in
  dispatch order (the in-flight list is a FIFO settled from the front), so
  completion sequence numbers — and therefore cache-fill order — match the
  simulator's;
* **settled past** — before an arrival is offered, every in-flight batch is
  settled and every completion at or before the arrival instant drained,
  so the cache and the outstanding counts never lag what the simulator
  would have seen.

The wall-clock numbers (what a load test measures: real p50/p99/QPS,
reject rate, availability) are kept apart from the virtual decision clock:
every reply to a query frame — results and typed errors alike — lands in
one outcome log, which :meth:`LiveServer.wall_stats` turns into a
:class:`~repro.serving.batcher.ServingMetrics`.  The virtual-clock
:class:`~repro.serving.cluster.ClusterReport` comes from
:meth:`LiveServer.decision_report`.

Protocol ops (requests are ``{"op": ..., ...}`` frames):

``query``
    ``{"op": "query", "id": <any>, "query": [floats]}`` → one ``result``
    frame with ``status`` (``served`` / ``cache-hit`` / ``rejected`` /
    ``failed``), the exact Top-K (indices/values) when completed, and both
    the virtual and wall latency.  Queries on one connection may be
    pipelined; responses carry the caller's ``id``.  Failure responses are
    *typed* ``error`` frames with a machine-readable ``code``:
    ``bad-frame`` (malformed or oversized frame — the connection then
    closes, a corrupt length prefix cannot be resynchronised),
    ``bad-query`` / ``bad-top-k`` / ``unknown-op`` (bad request),
    ``overloaded`` (load shed before admission), ``deadline`` (per-request
    deadline exceeded; the decision core still finishes the request),
    ``engine-failure`` and ``shutting-down``.
``ping`` / ``info`` / ``stats``
    Liveness, static configuration, live counters.
``verify``
    Server-side replay: re-run the recorded stream through a fresh
    ``ClusterRuntime`` and report whether every decision and result is
    identical.  Only valid while idle (nothing queued or in flight).
``shutdown``
    Acknowledge with ``bye``, then stop accepting traffic, drain every
    queued batch and exit :meth:`serve_until_stopped`.
"""

from __future__ import annotations

import asyncio
import copy
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, FormatError
from repro.serving.batcher import COMPLETED, ERROR_PREFIX, ServingMetrics
from repro.serving.cluster import ClusterRuntime
from repro.serving.policy import QUEUED
from repro.serving.protocol import (
    read_frame,
    result_to_wire,
    write_frame,
)
from repro.utils.validation import check_positive_int

__all__ = ["LiveServer", "decisions_equivalent"]

#: Why an arrival was refused before admission, by error code.
_REFUSALS = {
    "overloaded": "server overloaded; retry later",
    "shutting-down": "server is shutting down",
}


@dataclass
class _InFlight:
    """One engine batch running in the executor (FIFO by dispatch time)."""

    replica: int
    dispatch_s: float
    members: "list[tuple[int, float]]"
    future: asyncio.Future


def decisions_equivalent(
    live_results, live_report, sim_results, sim_report
) -> "tuple[bool, str]":
    """Are two serving runs identical in every decision and every bit?

    Compares the full request trace (status, route, dispatch/completion
    instants), the batch log (membership, dispatch order, service times),
    per-replica routing/reject accounting, cache counters, and every
    returned Top-K down to the float bits.  Returns ``(ok, detail)`` where
    ``detail`` names the first divergence.
    """
    for name in ("trace", "batches"):
        live, sim = getattr(live_report, name), getattr(sim_report, name)
        if len(live) != len(sim):
            return False, f"{name} length {len(live)} != {len(sim)}"
        for i, (a, b) in enumerate(zip(live, sim)):
            if a != b:
                return False, f"{name} diverges at entry {i}: {a} != {b}"
    for name in ("routed_per_replica", "rejected_per_replica", "cache_stats"):
        live, sim = getattr(live_report, name), getattr(sim_report, name)
        if live != sim:
            return False, f"{name} diverges: {live} != {sim}"
    if len(live_results) != len(sim_results):
        return False, (
            f"result count {len(live_results)} != {len(sim_results)}"
        )
    for rid, (a, b) in enumerate(zip(live_results, sim_results)):
        if (a is None) != (b is None):
            return False, f"result {rid}: one side rejected, the other served"
        if a is None:
            continue
        if (
            a.indices.tobytes() != b.indices.tobytes()
            or a.values.tobytes() != b.values.tobytes()
        ):
            return False, f"result {rid} is not bit-identical"
    return True, ""


class LiveServer:
    """Serve one :class:`ClusterRuntime` over a socket, on a wall clock.

    Parameters
    ----------
    runtime:
        The configured cluster (replicas, router, cache, batching knobs).
        The server owns the runtime's policy for the duration of a run;
        don't call :meth:`ClusterRuntime.run` on it while serving.
    top_k:
        The K every request is served at (the decision stream is keyed on
        one K — per-request K would fragment the cache and the replay).
    host, port:
        Bind address; port 0 picks an ephemeral port (see :attr:`port`
        after :meth:`start`).
    warmup:
        Run one tiny batch through every replica before accepting traffic,
        so lazily-built engine state (stream plans, kernels) is populated
        outside the serving path and the executor threads never build it
        concurrently.
    deadline_s:
        Optional per-request deadline: a queued request not completed
        within this many wall seconds gets a typed ``deadline`` error
        frame.  The decision core still finishes it (exactly-once holds;
        the result is discarded), so replay is unaffected.
    max_pending:
        Optional load-shed bound: when the decision core already holds
        this many requests (queued plus in flight), new arrivals get a
        typed ``overloaded`` error *before* admission — they never enter
        the decision stream, so a shed run still replays exactly.
    max_frame_bytes:
        Per-frame body cap for untrusted input (defaults to the protocol
        cap); an oversized or malformed frame gets a typed ``bad-frame``
        error frame instead of a silent close.
    """

    def __init__(
        self,
        runtime: ClusterRuntime,
        top_k: int,
        host: str = "127.0.0.1",
        port: int = 0,
        warmup: bool = False,
        deadline_s: "float | None" = None,
        max_pending: "int | None" = None,
        max_frame_bytes: "int | None" = None,
    ):
        self.runtime = runtime
        self.top_k = check_positive_int(top_k, "top_k")
        self.host = host
        self._requested_port = int(port)
        self.warmup = bool(warmup)
        if deadline_s is not None and not deadline_s > 0.0:
            raise ConfigurationError(
                f"deadline_s must be > 0, got {deadline_s}"
            )
        self.deadline_s = None if deadline_s is None else float(deadline_s)
        self.max_pending = (
            None
            if max_pending is None
            else check_positive_int(max_pending, "max_pending")
        )
        self.max_frame_bytes = (
            None
            if max_frame_bytes is None
            else check_positive_int(max_frame_bytes, "max_frame_bytes")
        )
        self.port: "int | None" = None
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._policy = None
        self._executor: "ThreadPoolExecutor | None" = None
        self._server: "asyncio.base_events.Server | None" = None
        self._lock = asyncio.Lock()
        self._stop_event = asyncio.Event()
        self._stopping = False
        self._drained = False
        self._failure: "BaseException | None" = None
        # Virtual clock + decision-ordering state (all under self._lock).
        self._origin = 0.0
        self._next_rid = 0
        self._last_arrival_s = float("-inf")
        self._max_dispatch_s = float("-inf")
        self._inflight: "list[_InFlight]" = []
        self._waiters: "dict[int, asyncio.Future]" = {}
        self._timer: "asyncio.TimerHandle | None" = None
        self._timer_at: "float | None" = None
        # Wall-clock accounting: one (outcome, receipt, response instant)
        # per query reply sent; typed errors carry no response instant.
        self._outcome_log: "list[tuple[str, float, float | None]]" = []
        self._tasks: "set[asyncio.Task]" = set()
        self._writers: "set[asyncio.StreamWriter]" = set()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind the socket and arm a fresh policy run."""
        if self._server is not None:
            raise ConfigurationError("server already started")
        self._loop = asyncio.get_running_loop()
        self._policy = self.runtime.build_policy(self.top_k)
        self._executor = ThreadPoolExecutor(
            max_workers=self.runtime.n_replicas,
            thread_name_prefix="live-engine",
        )
        if self.warmup:
            probe = np.zeros((1, self.runtime.n_cols), dtype=np.float64)
            probe[0, 0] = 1.0
            for replica in self.runtime.replicas:
                replica.query_batch(probe, self.top_k)
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self._requested_port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._origin = self._loop.time()

    def request_stop(self) -> None:
        """Stop accepting traffic; :meth:`serve_until_stopped` then drains."""
        self._stopping = True
        self._stop_event.set()

    async def serve_until_stopped(self) -> None:
        """Serve until :meth:`request_stop` (or a ``shutdown`` op), then
        drain every queued batch and release the socket and executor."""
        if self._server is None:
            raise ConfigurationError("call start() first")
        try:
            await self._stop_event.wait()
        finally:
            self._stopping = True
            self._server.close()
            await self._server.wait_closed()
            await self.drain()
            for writer in list(self._writers):
                writer.close()
            if self._tasks:
                await asyncio.gather(*self._tasks, return_exceptions=True)
            self._executor.shutdown(wait=True)
            if self._failure is not None:
                raise self._failure

    async def drain(self) -> None:
        """Dispatch and settle everything still queued or in flight.

        Dispatch instants stay the rule's virtual times even when they lie
        in the wall future — the simulator's tail does exactly the same,
        so a drained run still replays bit-for-bit.
        """
        async with self._lock:
            self._stopping = True
            if self._failure is None:
                try:
                    await self._run_due(
                        float("inf"), strict=False, settle_all=True
                    )
                    self._policy.drain_completions(float("inf"))
                except BaseException:
                    pass  # recorded by _fail; serve_until_stopped re-raises
            self._cancel_timer()
            self._drained = True

    # ------------------------------------------------------------------ #
    # Virtual clock + decision core driving (everything under self._lock)
    # ------------------------------------------------------------------ #
    def _now_v(self) -> float:
        return self._loop.time() - self._origin

    def _submit(self, replica: int, dispatch_s: float) -> None:
        """Pop one due batch and launch its engine call in the executor."""
        self._policy.drain_completions(dispatch_s)
        _, members = self._policy.pop(replica, until_s=dispatch_s)
        block = self._policy.batch_queries(members)
        engine = self.runtime.replicas[replica]
        future = self._loop.run_in_executor(
            self._executor, engine.query_batch, block, self.top_k
        )
        self._inflight.append(
            _InFlight(replica, float(dispatch_s), members, future)
        )
        self._max_dispatch_s = max(self._max_dispatch_s, float(dispatch_s))
        future.add_done_callback(self._on_engine_done)

    def _on_engine_done(self, _future: asyncio.Future) -> None:
        if self._stop_event.is_set() and self._drained:
            return
        task = self._loop.create_task(self._settle_ready())
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _settle_ready(self) -> None:
        """Apply finished engine batches (front first) and run what's due."""
        async with self._lock:
            if self._failure is not None:
                return
            try:
                while self._inflight and self._inflight[0].future.done():
                    self._apply_front()
                await self._run_due(self._now_v(), strict=False)
            except BaseException:
                return
            self._reschedule()

    def _apply_front(self) -> None:
        """Apply the oldest in-flight batch's result to the policy.

        Completions are applied strictly in dispatch order — never in
        engine-finish order — so the policy's completion sequence (which
        breaks cache-fill ties) matches the simulator's.

        An engine call that *raised* is a real (uninjected) failure: the
        batch is handed to :meth:`ClusterPolicy.fail_batch` — members
        requeued with backoff, the replica struck — instead of poisoning
        the run.  Real failures are not in any plan, so such a run trades
        replayability for graceful degradation, by design.
        """
        entry = self._inflight.pop(0)
        try:
            served = entry.future.result()
        except Exception:
            # Detection is stamped no earlier than the dispatch and no
            # earlier than the last recorded arrival, keeping the virtual
            # clock monotone for the retry events this schedules.
            at_s = max(entry.dispatch_s, self._last_arrival_s)
            self._policy.fail_batch(
                entry.replica, entry.dispatch_s, entry.members, at_s=at_s
            )
            self._wake_done()
            return
        try:
            self._policy.complete(
                entry.replica, entry.dispatch_s, entry.members, served
            )
        except BaseException as exc:
            self._fail(exc, entry.members)
            raise
        self._wake_done()

    def _wake_done(self) -> None:
        """Resolve the waiter of every request that has gone terminal.

        Requests turn terminal outside their own batch's completion too —
        typed-failed by an exhausted retry budget, rejected by a full queue
        on retry, delivered by a hedge twin — so waiters are swept against
        the trace map rather than woken per batch."""
        done = [rid for rid in self._waiters if rid in self._policy.traces]
        for rid in done:
            waiter = self._waiters.pop(rid)
            if not waiter.done():
                waiter.set_result(None)

    async def _settle_front(self) -> None:
        """Wait for the oldest in-flight engine batch and apply it."""
        entry = self._inflight[0]
        try:
            await entry.future
        except BaseException:
            pass  # surfaced with context by _apply_front
        # The lock stayed held across the await, so the front is unchanged.
        self._apply_front()

    def _fail(self, exc: BaseException, members) -> None:
        """An engine batch died: poison the run and wake every waiter."""
        if self._failure is None:
            self._failure = exc
        for rid, _arrival in members:
            waiter = self._waiters.pop(rid, None)
            if waiter is not None and not waiter.done():
                waiter.set_exception(exc)
        for waiter in self._waiters.values():
            if not waiter.done():
                waiter.set_exception(exc)
        self._waiters.clear()
        self._cancel_timer()
        self.request_stop()

    async def _run_due(
        self, until_s: float, strict: bool, settle_all: bool = False
    ) -> None:
        """Run every dispatch *and policy event* due by ``until_s``, in
        virtual-time order.

        ``strict`` runs dispatches strictly *before* ``until_s`` (the
        arrival path: arrivals win ties, so a dispatch at the arrival
        instant must wait for the arrival to join); policy events at the
        arrival instant are left to :meth:`ClusterPolicy.offer`, which runs
        them itself (events win ties with arrivals).  A busy replica's next
        dispatch time is unknown until its batch settles; whenever a busy
        replica could owe a dispatch at or before the best known one (its
        completion is bounded below by its dispatch instant, its next batch
        by its queue head), the front batch is settled first — this is what
        keeps submissions monotone in virtual time, which in turn is what
        makes the arrival clamp in :meth:`_admit` sound.  ``settle_all``
        additionally settles every in-flight batch before returning (the
        arrival path again: an arrival must see every completion at or
        before it, and completion instants are unknown until settled).

        Events win ties with dispatches, exactly as in the simulator's
        loop — and before an event fires, any in-flight batch dispatched
        at or before it is settled first: the simulator completes a batch
        synchronously at its dispatch step, so that batch's effects
        (strikes, requeues) are visible to every later event there and
        must be here too.
        """
        while True:
            busy = {entry.replica for entry in self._inflight}
            nxt = self._policy.next_dispatch(exclude=busy)
            event_t = self._policy.next_event_s()
            bound = None
            for entry in self._inflight:
                pending = self._policy.states[entry.replica].queue.pending
                if not pending:
                    continue
                b = max(entry.dispatch_s, pending[0][1])
                if bound is None or b < bound:
                    bound = b

            def due(t: float) -> bool:
                return t < until_s if strict else t <= until_s

            if (
                event_t is not None
                and due(event_t)
                and (nxt is None or event_t <= nxt[0])
                and (bound is None or event_t <= bound)
            ):
                if self._inflight and self._inflight[0].dispatch_s <= event_t:
                    await self._settle_front()
                    continue
                self._policy.run_events(event_t)
                self._wake_done()
                continue
            if bound is not None and due(bound) and (
                nxt is None or bound <= nxt[0]
            ):
                await self._settle_front()
                continue
            if nxt is not None and due(nxt[0]):
                self._submit(nxt[1], nxt[0])
                continue
            if settle_all and self._inflight:
                await self._settle_front()
                continue
            return

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
            self._timer_at = None

    def _reschedule(self) -> None:
        """(Re-)arm the timer for the earliest known dispatch or event.

        Policy events (plan transitions, due retries, due hedges) need a
        wake-up of their own: a retry scheduled with backoff must fire even
        if no arrival or dispatch ever lands near it."""
        if self._stopping or self._failure is not None:
            return
        busy = {entry.replica for entry in self._inflight}
        nxt = self._policy.next_dispatch(exclude=busy)
        wake = None if nxt is None else nxt[0]
        event_t = self._policy.next_event_s()
        if event_t is not None and (wake is None or event_t < wake):
            wake = event_t
        if wake is None:
            self._cancel_timer()
            return
        if self._timer is not None and self._timer_at == wake:
            return
        self._cancel_timer()
        self._timer_at = wake
        self._timer = self._loop.call_at(
            self._origin + wake, self._on_timer
        )

    def _on_timer(self) -> None:
        self._timer = None
        self._timer_at = None
        task = self._loop.create_task(self._timer_task())
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _timer_task(self) -> None:
        async with self._lock:
            if self._stopping or self._failure is not None:
                return
            await self._run_due(self._now_v(), strict=False)
            self._reschedule()

    async def _admit(self, query: np.ndarray):
        """Stamp, order and offer one arrival; returns (rid, status, waiter).

        The arrival instant is taken *inside* the lock (so processing order
        and timestamp order agree) and clamped one ulp past the latest
        submitted dispatch — the simulator replays arrivals after the
        dispatches they lost the race to, and "lost" must survive the
        round-trip through a float timestamp.
        """
        async with self._lock:
            if self._stopping or self._failure is not None:
                return None, "shutting-down", None
            if self.max_pending is not None:
                pending = self._policy.n_queued + sum(
                    len(entry.members) for entry in self._inflight
                )
                if pending >= self.max_pending:
                    # Shed *before* admission: the request never enters the
                    # decision stream, so replay is untouched.
                    return None, "overloaded", None
            rid = self._next_rid
            self._next_rid += 1
            t = self._now_v()
            if t <= self._max_dispatch_s:
                t = float(np.nextafter(self._max_dispatch_s, np.inf))
            if t < self._last_arrival_s:
                t = self._last_arrival_s
            self._last_arrival_s = t
            await self._run_due(t, strict=True, settle_all=True)
            if self._stopping or self._failure is not None:
                return None, "shutting-down", None
            status = self._policy.offer(rid, t, query)
            self._wake_done()
            waiter = None
            if status == QUEUED:
                waiter = self._loop.create_future()
                self._waiters[rid] = waiter
            self._reschedule()
            return rid, status, waiter

    # ------------------------------------------------------------------ #
    # Protocol surface
    # ------------------------------------------------------------------ #
    async def _handle_connection(self, reader, writer) -> None:
        write_lock = asyncio.Lock()
        tasks: "set[asyncio.Task]" = set()
        self._writers.add(writer)
        try:
            while True:
                try:
                    message = await read_frame(
                        reader, max_bytes=self.max_frame_bytes
                    )
                except FormatError as exc:
                    # Malformed or oversized frame: answer typed, then
                    # close — a corrupt length prefix leaves no way to
                    # resynchronise the stream.
                    await self._respond(
                        writer, write_lock,
                        {"op": "error", "code": "bad-frame",
                         "error": str(exc)},
                    )
                    break
                except (ConnectionError, OSError):
                    break
                if message is None:
                    break
                op = message.get("op")
                if op == "query":
                    receipt = self._loop.time()
                    task = asyncio.create_task(
                        self._query_task(message, receipt, writer, write_lock)
                    )
                    tasks.add(task)
                    task.add_done_callback(tasks.discard)
                elif op == "ping":
                    await self._respond(
                        writer, write_lock,
                        {"op": "pong", "id": message.get("id")},
                    )
                elif op == "info":
                    await self._respond(writer, write_lock, self.info())
                elif op == "stats":
                    async with self._lock:
                        payload = self._stats_locked()
                    await self._respond(writer, write_lock, payload)
                elif op == "verify":
                    payload = await self.verify()
                    await self._respond(writer, write_lock, payload)
                elif op == "shutdown":
                    await self._respond(writer, write_lock, {"op": "bye"})
                    self.request_stop()
                    break
                else:
                    await self._respond(
                        writer, write_lock,
                        {"op": "error", "id": message.get("id"),
                         "code": "unknown-op",
                         "error": f"unknown op {op!r}"},
                    )
        finally:
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond(self, writer, write_lock, message: dict) -> None:
        try:
            async with write_lock:
                await write_frame(writer, message)
        except (ConnectionError, OSError):
            pass  # client went away; the run's state is already recorded

    async def _query_task(self, message, receipt, writer, write_lock) -> None:
        response = await self._serve_query(message, receipt)
        await self._respond(writer, write_lock, response)

    def _error_reply(
        self, receipt: float, client_id, code: str, error: str, **extra
    ) -> dict:
        """A typed error frame answering a query, logged like any reply."""
        self._outcome_log.append((ERROR_PREFIX + code, receipt, None))
        return {"op": "error", "id": client_id, "code": code, **extra,
                "error": error}

    async def _serve_query(self, message: dict, receipt: float) -> dict:
        """Answer one query frame; every reply lands in the outcome log."""
        client_id = message.get("id")
        raw = message.get("query")
        try:
            query = np.asarray(raw, dtype=np.float64)
        except (TypeError, ValueError):
            query = None
        if query is None or query.shape != (self.runtime.n_cols,):
            return self._error_reply(
                receipt, client_id, "bad-query",
                f"query must be a flat list of {self.runtime.n_cols} numbers",
            )
        requested_k = message.get("top_k", self.top_k)
        if requested_k != self.top_k:
            return self._error_reply(
                receipt, client_id, "bad-top-k",
                f"this server serves top_k={self.top_k} "
                f"(got {requested_k}); restart to change K",
            )
        rid, status, waiter = await self._admit(query)
        if rid is None:
            return self._error_reply(
                receipt, client_id, status, _REFUSALS[status]
            )
        if waiter is not None:
            try:
                if self.deadline_s is not None:
                    # Shield: on expiry the decision core still finishes
                    # the request (replay and exactly-once are untouched);
                    # only this response path gives up.
                    await asyncio.wait_for(
                        asyncio.shield(waiter), self.deadline_s
                    )
                else:
                    await waiter
            except asyncio.TimeoutError:
                return self._error_reply(
                    receipt, client_id, "deadline",
                    f"deadline of {self.deadline_s}s exceeded",
                    request_id=rid,
                )
            except BaseException as exc:
                return self._error_reply(
                    receipt, client_id, "engine-failure",
                    f"engine failure: {exc}",
                )
        trace = self._policy.traces[rid]
        done = self._loop.time()
        self._outcome_log.append((trace.status, receipt, done))
        response = {
            "op": "result",
            "id": client_id,
            "request_id": rid,
            "status": trace.status,
            "wall_latency_s": done - receipt,
            "virtual_latency_s": trace.latency_s,
        }
        if trace.status in COMPLETED:
            response.update(result_to_wire(self._policy.results[rid]))
        return response

    # ------------------------------------------------------------------ #
    # Introspection / reporting
    # ------------------------------------------------------------------ #
    def info(self) -> dict:
        """Static serving configuration (the ``info`` op payload)."""
        rt = self.runtime
        knobs = rt.settings()
        knobs["router"] = rt.router.name
        for name in ("fault_plan", "resilience"):
            if knobs[name] is not None:
                knobs[name] = knobs[name].to_dict()
        return {
            "op": "info",
            "n_cols": int(rt.n_cols),
            "top_k": self.top_k,
            "n_replicas": rt.n_replicas,
            **knobs,
            "deadline_s": self.deadline_s,
            "max_pending": self.max_pending,
        }

    def _stats_locked(self) -> dict:
        policy = self._policy
        stats = self.wall_stats()
        return {
            "op": "stats",
            "n_offered": policy.n_offered,
            "n_queued": policy.n_queued,
            "n_inflight": len(self._inflight),
            "n_cache_hits": policy.n_cache_hits,
            "cache": policy.cache.stats() if policy.cache is not None else None,
            "wall": stats.to_dict(),
        }

    def wall_stats(self) -> ServingMetrics:
        """The wall-clock metrics of every query reply sent so far.

        The span runs from the earliest receipt to the latest response of
        the ``result`` replies; typed error frames count but are untimed.
        """
        log = self._outcome_log
        timed = [(receipt, done) for _, receipt, done in log if done is not None]
        span = 0.0
        if timed:
            span = max(done for _, done in timed) - min(r for r, _ in timed)
        return ServingMetrics(
            outcomes=tuple(outcome for outcome, _, _ in log),
            latencies_s=np.array(
                [done - r for outcome, r, done in log if outcome in COMPLETED],
                dtype=np.float64,
            ),
            span_s=float(span),
        )

    def decision_report(self):
        """The virtual-clock ``(results, ClusterReport)`` of the run so far.

        Call after :meth:`drain` (or :meth:`serve_until_stopped` returned)
        for the complete run; the shape is exactly what
        :meth:`ClusterRuntime.run` returns for the same stream.
        """
        if self._policy is None or self._policy.n_offered == 0:
            raise ConfigurationError("no requests recorded yet")
        _queries, arrivals = self._policy.recorded_stream()
        return ClusterRuntime.build_report(
            self._policy, first_arrival_s=float(arrivals.min())
        )

    def recorded_stream(self):
        """The ``(queries, arrivals)`` stream the daemon decided on."""
        return self._policy.recorded_stream()

    def _replay_runtime(self) -> ClusterRuntime:
        """A fresh runtime configured exactly like the served one.

        The router is a copy (the replay must not advance the served one);
        ``build_policy`` resets it, so its state at copy time is moot."""
        knobs = self.runtime.settings()
        knobs["router"] = copy.deepcopy(knobs["router"])
        return ClusterRuntime(self.runtime.replicas, **knobs)

    async def verify(self) -> dict:
        """Replay the recorded stream through a fresh simulator and compare.

        Only meaningful while idle: nothing queued, nothing in flight.  A
        shared (cross-run) cache can't be replayed — its pre-run state is
        gone — so verification requires ``cache_size`` mode or no cache.
        """
        async with self._lock:
            if self._inflight or self._policy.n_queued or self._waiters:
                return {"op": "verify", "ok": False,
                        "error": "server busy; retry when idle"}
            if self.runtime.shared_cache is not None:
                return {"op": "verify", "ok": False,
                        "error": "verify needs a per-run cache "
                                 "(cache_size mode) or no cache"}
            if self._policy.n_offered == 0:
                return {"op": "verify", "ok": True, "equivalent": True,
                        "checked": 0}
            # The simulator finishes a run by draining every completion;
            # bring the live policy to the same end-of-stream state.  The
            # arrival floor then keeps any *later* traffic from stamping a
            # time before a completion it can now observe in the cache.
            flushed = self._policy.flush_completions()
            if flushed is not None:
                self._last_arrival_s = max(self._last_arrival_s, flushed)
            queries, arrivals = self._policy.recorded_stream()
            live_results, live_report = ClusterRuntime.build_report(
                self._policy, first_arrival_s=float(arrivals.min())
            )
            replay = self._replay_runtime()
            sim_results, sim_report = await self._loop.run_in_executor(
                None, replay.run, queries, arrivals, self.top_k
            )
        ok, detail = decisions_equivalent(
            live_results, live_report, sim_results, sim_report
        )
        payload = {"op": "verify", "ok": True, "equivalent": ok,
                   "checked": len(live_results)}
        if not ok:
            payload["detail"] = detail
        return payload
