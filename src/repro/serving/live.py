"""Live asyncio serving daemon, decision-locked to the cluster simulator.

:class:`LiveServer` points real traffic at the cluster tier: a socket
daemon (length-prefixed JSON, :mod:`repro.serving.protocol`) that runs the
micro-batching deadlines, routers, exact-result cache and bounded-queue
admission control of :class:`~repro.serving.cluster.ClusterRuntime` against
a wall clock.

**The decision lock.**  The daemon does not reimplement the serving policy
— it drives the very same :class:`~repro.serving.policy.ClusterPolicy` the
simulator drives, on a *virtual clock*: arrivals are stamped off the event
loop's monotonic clock, but board-free times advance by the engine's
declared ``batch_seconds``.  Decisions (batch membership, dispatch order,
route choice, cache hit/miss, rejects) therefore depend only on the
``(request id, arrival time, query)`` stream — replaying that recorded
stream through a fresh ``ClusterRuntime`` reproduces every decision and
every result bit-for-bit, which :func:`decisions_equivalent` checks and
the replay property suite asserts.

The daemon runs two planes.  The **decision plane** is the policy, driven
by the simulator's own loop — :meth:`ClusterPolicy.advance` to the arrival
instant, then :meth:`ClusterPolicy.offer` — from every arrival, from a
timer armed at the next due event or dispatch, and from :meth:`drain`.  It
never waits for an engine: a dispatch fixes its batch's completion from the
replica's declared ``batch_seconds``, so every decision is made as its
instant comes, in the simulator's order.  Arrivals are stamped inside the
admission lock and never before an earlier arrival (or a completion a
``verify`` already drained into the cache).  The **data plane** runs each
dispatched batch on its replica's single-worker FIFO — one engine object is
never called from two threads at once — and attaches the answer when it
returns, so a reply waits only for its own batch's data.

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

import numpy as np

from repro.errors import ConfigurationError, FormatError
from repro.serving.batcher import COMPLETED, ERROR_PREFIX, ServingMetrics
from repro.serving.cluster import ClusterRuntime
from repro.serving.policy import PendingBatch
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
        this many requests (queued, or dispatched with their data not yet
        attached), new arrivals get a
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
        self._workers: "list[ThreadPoolExecutor]" = []
        self._server: "asyncio.base_events.Server | None" = None
        self._lock = asyncio.Lock()
        self._stop_event = asyncio.Event()
        self._stopping = False
        self._failure: "BaseException | None" = None
        # Virtual clock: no arrival is stamped before this instant.
        self._origin = 0.0
        self._next_rid = 0
        self._floor_s = float("-inf")
        # Dispatched batches whose data has not been attached yet.
        self._inflight: "dict[asyncio.Future, PendingBatch]" = {}
        self._waiters: "dict[int, asyncio.Future]" = {}
        self._timer: "asyncio.TimerHandle | None" = None
        self._timer_at: "float | None" = None
        # Wall-clock accounting: one (outcome, receipt, response instant)
        # per query reply sent; typed errors carry no response instant.
        self._outcome_log: "list[tuple[str, float, float | None]]" = []
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
        self._workers = [
            ThreadPoolExecutor(max_workers=1, thread_name_prefix="live-engine")
            for _ in self.runtime.replicas
        ]
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
        drain every queued batch and release the socket and workers."""
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
            for worker in self._workers:
                worker.shutdown(wait=True)
            if self._failure is not None:
                raise self._failure

    async def drain(self) -> None:
        """Dispatch everything still queued and attach every batch's data.

        Dispatch instants stay the rule's virtual times even when they lie
        in the wall future — the simulator's tail does exactly the same,
        so a drained run still replays bit-for-bit.  A real engine failure
        met on the way requeues its requests, so this loops until nothing
        is due and nothing is in flight.
        """
        async with self._lock:
            self._stopping = True
            self._cancel_timer()
            while self._failure is None:
                self._policy.advance(float("inf"), self._launch)
                self._wake_done()
                if not self._inflight:
                    self._policy.drain_completions(float("inf"))
                    break
                await asyncio.wait(list(self._inflight))

    # ------------------------------------------------------------------ #
    # The two planes
    # ------------------------------------------------------------------ #
    def _now_v(self) -> float:
        return self._loop.time() - self._origin

    def _launch(self, batch: PendingBatch) -> None:
        """Queue one dispatched batch on its replica's single worker."""
        future = self._loop.run_in_executor(
            self._workers[batch.replica],
            self.runtime.replicas[batch.replica].query_batch,
            batch.queries,
            self.top_k,
        )
        self._inflight[future] = batch
        future.add_done_callback(self._on_data)

    def _on_data(self, future: asyncio.Future) -> None:
        """Attach one batch's engine answer to the policy.

        An engine call that *raised* is a real (uninjected) failure: the
        policy retracts what the batch delivered and requeues it with
        backoff, striking the replica, instead of poisoning the run.  An
        answer that breaks the engine's contract (a wrong result count, an
        undeclared service time) poisons it.
        """
        batch = self._inflight.pop(future)
        if self._failure is not None:
            return
        try:
            served = future.result()
        except Exception:
            self._policy.fail_batch(batch, self._now_v())
            self._reschedule()
        else:
            try:
                self._policy.attach(batch, served)
            except Exception as exc:
                self._fail(exc)
                return
        self._wake_done()

    def _answered(self, rid: int) -> bool:
        """Terminal, and — when it completed — its result attached."""
        trace = self._policy.traces.get(rid)
        return trace is not None and (
            trace.status not in COMPLETED or rid in self._policy.results
        )

    def _wake_done(self) -> None:
        """Resolve the waiter of every request that has been answered.

        Requests are answered outside their own batch's attach too —
        typed-failed by an exhausted retry budget, rejected by a full queue
        on retry, a cache hit filled with its slot — so waiters are swept
        rather than woken per batch."""
        done = [rid for rid in self._waiters if self._answered(rid)]
        for rid in done:
            waiter = self._waiters.pop(rid)
            if not waiter.done():
                waiter.set_result(None)

    def _fail(self, exc: BaseException) -> None:
        """An engine broke its contract: poison the run, wake every waiter."""
        if self._failure is None:
            self._failure = exc
        for waiter in self._waiters.values():
            if not waiter.done():
                waiter.set_exception(exc)
        self._waiters.clear()
        self._cancel_timer()
        self.request_stop()

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
            self._timer_at = None

    def _reschedule(self) -> None:
        """(Re-)arm the timer for the earliest due dispatch or event.

        Policy events (plan transitions, due retries, due hedges) need a
        wake-up of their own: a retry scheduled with backoff must fire even
        if no arrival ever lands near it."""
        if self._stopping or self._failure is not None:
            return
        wake = self._policy.next_due_s()
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
        if self._stopping or self._failure is not None:
            return
        self._policy.advance(self._now_v(), self._launch)
        self._wake_done()
        self._reschedule()

    async def _admit(self, query: np.ndarray):
        """Stamp and offer one arrival; returns (rid, refusal, waiter).

        The arrival instant is taken *inside* the lock, so processing order
        and timestamp order agree.  Everything due strictly before it is
        decided first, so the arrival wins its tie with a dispatch at the
        same instant, as in the simulator.
        """
        async with self._lock:
            if self._stopping or self._failure is not None:
                return None, "shutting-down", None
            if self.max_pending is not None:
                pending = self._policy.n_queued + sum(
                    len(batch.slots) for batch in self._inflight.values()
                )
                if pending >= self.max_pending:
                    # Shed *before* admission: the request never enters the
                    # decision stream, so replay is untouched.
                    return None, "overloaded", None
            rid = self._next_rid
            self._next_rid += 1
            t = self._floor_s = max(self._now_v(), self._floor_s)
            self._policy.advance(t, self._launch)
            self._policy.offer(rid, t, query)
            self._wake_done()
            waiter = None
            if not self._answered(rid):
                waiter = self._waiters[rid] = self._loop.create_future()
            self._reschedule()
            return rid, None, waiter

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
                    await self._respond(writer, write_lock, self._stats())
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
        if not np.isfinite(query).all():  # JSON's NaN/Infinity tokens
            return self._error_reply(
                receipt, client_id, "bad-query", "query values must be finite"
            )
        requested_k = message.get("top_k", self.top_k)
        if requested_k != self.top_k:
            return self._error_reply(
                receipt, client_id, "bad-top-k",
                f"this server serves top_k={self.top_k} "
                f"(got {requested_k}); restart to change K",
            )
        rid, refusal, waiter = await self._admit(query)
        if refusal is not None:
            return self._error_reply(
                receipt, client_id, refusal, _REFUSALS[refusal]
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

    def _stats(self) -> dict:
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
                self._floor_s = max(self._floor_s, flushed)
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
