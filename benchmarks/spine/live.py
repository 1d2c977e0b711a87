"""The live workloads: a daemon in its own process, driven over its socket.

One client process, one asyncio thread, ``spec.LIVE["connections"]``
connections.  The closed loop sends a connection's next ``query`` frame
when the previous reply has been read — callers are application back-ends
that wait for a reply.  Every round gets a *fresh* daemon (the daemon slows
as its request history grows, so rounds would not be comparable otherwise),
which also yields one set-up sample per round.

A round is: set-up (timed) -> pre-flight closed loop + ``verify`` op (the
warm-up; must report ``equivalent: true``) -> timed closed loop -> stats,
memory high-water mark, shutdown.  ``verify`` is never called after a timed
loop: it replays the whole request history.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import subprocess
import sys

import numpy as np

import inputs
import library
import measure
import spec
from measure import now

from repro import CompiledCollection, PAPER_DESIGNS, TopKSpmvEngine, compile_collection
from repro.analysis.metrics import precision_at_k
from repro.serving.cluster import ClusterRuntime
from repro.serving.protocol import (
    encode_frame, read_frame, result_from_wire, write_frame,
)

OK_STATUSES = ("served", "cache-hit")
READY_TIMEOUT_S = 120.0
REPLY_TIMEOUT_S = 60.0
POOL_SIZE = 4096
SLICE_REPLIES = 20


class Daemon:
    """One spawned daemon process plus a control connection to it."""

    def __init__(self, artifact, spans_path=None):
        command = [
            sys.executable, str(measure.SPINE_DIR / "daemon.py"),
            "--artifact", str(artifact),
        ]
        if spans_path is not None:
            command += ["--spans", str(spans_path)]
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True, cwd=measure.REPO_ROOT
        )
        self.port = None
        self._reader = self._writer = None

    @property
    def pid(self) -> int:
        return self.process.pid

    def wait_ready(self) -> None:
        ready, _, _ = select.select([self.process.stdout], [], [], READY_TIMEOUT_S)
        line = self.process.stdout.readline() if ready else ""
        if not line.startswith("READY "):
            self.kill()
            raise RuntimeError(f"daemon did not come up (got {line!r})")
        self.port = int(line.split()[1])

    async def call(self, message: dict) -> dict:
        """One request/reply on the control connection."""
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                "127.0.0.1", self.port
            )
        await write_frame(self._writer, message)
        reply = await asyncio.wait_for(read_frame(self._reader), REPLY_TIMEOUT_S)
        if reply is None:
            raise RuntimeError(f"daemon closed the connection on {message['op']}")
        return reply

    async def shutdown(self) -> None:
        """Ask the daemon to stop and wait until the process has ended."""
        if self.port is not None and self.process.poll() is None:
            try:
                await self.call({"op": "shutdown"})
                self._writer.close()
                await self._writer.wait_closed()
            except (OSError, RuntimeError, asyncio.TimeoutError):
                pass  # kill() below ends a daemon that would not stop
        loop = asyncio.get_running_loop()
        try:
            await asyncio.wait_for(
                loop.run_in_executor(None, self.process.wait), REPLY_TIMEOUT_S
            )
        except asyncio.TimeoutError:
            self.kill()

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self.process.stdout.close()


class Traffic:
    """The seeded request stream: which pool query request ``i`` carries."""

    def __init__(self, corpus: str, seed: int):
        self.pool = inputs.query_pool(corpus, seed, POOL_SIZE)
        self.schedule = inputs.traffic_schedule(seed, 4 * POOL_SIZE, POOL_SIZE)

    def query(self, i: int) -> np.ndarray:
        return self.pool[self.schedule[i % len(self.schedule)]]

    def frame(self, i: int) -> bytes:
        return encode_frame(
            {"op": "query", "id": i, "query": self.query(i).tolist()}
        )


def reply_ok(reply) -> bool:
    return (
        reply is not None
        and reply.get("op") == "result"
        and reply.get("status") in OK_STATUSES
    )


async def closed_loop(port, traffic, first, *, seconds=None, count=None):
    """Drive the closed loop; returns ``(records, wall_start, wall_end)``.

    Connection ``c`` sends requests ``first + c, first + c + n, ...`` so
    every run walks the identical schedule.  Stops issuing after
    ``seconds`` or after ``count`` requests in total.  A record is
    ``(request, sent, received, reply)``; the latency clock starts when
    the encoded frame is written.
    """
    n_conn = spec.LIVE["connections"]
    records = []
    start = now()
    deadline = None if seconds is None else start + seconds

    async def one_connection(c: int) -> None:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            i = first + c
            while (deadline is None or now() < deadline) and (
                count is None or i - first < count
            ):
                frame = traffic.frame(i)
                sent = now()
                writer.write(frame)
                await writer.drain()
                reply = await asyncio.wait_for(read_frame(reader), REPLY_TIMEOUT_S)
                records.append((i, sent, now(), reply))
                i += n_conn
        finally:
            writer.close()
            await writer.wait_closed()

    await asyncio.gather(*(one_connection(c) for c in range(n_conn)))
    records.sort(key=lambda r: r[0])
    return records, start, max((r[2] for r in records), default=start)


async def open_loop(port, traffic, first, rate_qps, seconds, seed):
    """Poisson arrivals regardless of replies; each request is timed from
    when it was *due*.  Returns ``(due, sent, received, reply)`` records."""
    n_conn = spec.LIVE["connections"]
    rng = inputs.stream_rng(seed, "open-loop")
    gaps = rng.exponential(1.0 / rate_qps, size=int(rate_qps * seconds * 2) + 8)
    due = np.cumsum(gaps)
    due = due[due < seconds]
    start = now() + 0.05
    records = {}

    async def sender(c, writer):
        for k in range(c, len(due), n_conn):
            delay = start + due[k] - now()
            if delay > 0:
                await asyncio.sleep(delay)
            frame = traffic.frame(first + k)
            records[k] = [start + due[k], now(), None, None]
            writer.write(frame)
            await writer.drain()

    async def receiver(c, reader):
        for _ in range(c, len(due), n_conn):
            reply = await asyncio.wait_for(read_frame(reader), REPLY_TIMEOUT_S)
            if reply is None:
                return
            k = int(reply["id"]) - first
            records[k][2] = now()
            records[k][3] = reply

    conns = [
        await asyncio.open_connection("127.0.0.1", port) for _ in range(n_conn)
    ]
    try:
        await asyncio.gather(
            *(sender(c, w) for c, (_r, w) in enumerate(conns)),
            *(receiver(c, r) for c, (r, _w) in enumerate(conns)),
        )
    finally:
        for _r, writer in conns:
            writer.close()
            await writer.wait_closed()
    return [tuple(records[k]) for k in sorted(records)]


# ---------------------------------------------------------------------- #
# One run of a live workload
# ---------------------------------------------------------------------- #
async def _one_round(workload, seed, smoke, round_s, traffic, tracer, probes):
    """Set-up, pre-flight, timed loop and teardown against a fresh daemon.

    ``probes`` is given on the last round only: their wire results are
    collected after the timed loop, the traced extras (pings, the open-loop
    phase) run there too, and the artifact is loaded back into an
    in-process engine before it is deleted.
    """
    corpus = spec.WORKLOADS[workload].corpus
    design = PAPER_DESIGNS[spec.CORPORA[corpus].design]
    measure.OUT_DIR.mkdir(parents=True, exist_ok=True)
    artifact = measure.OUT_DIR / f"artifact-{workload}-{os.getpid()}.npz"
    spans_path = artifact.with_suffix(".spans.json") if tracer.enabled else None
    out = {}
    try:
        t0 = now()
        matrix = inputs.make_corpus(corpus, seed, smoke)
        compile_collection(matrix, design).save(artifact)
        daemon = Daemon(artifact, spans_path)
        try:
            daemon.wait_ready()
            pong = await daemon.call({"op": "ping"})
            out["setup_s"] = now() - t0
            if pong.get("op") != "pong":
                raise RuntimeError(f"expected pong, got {pong!r}")

            n_pre = spec.LIVE["preflight_requests"]
            out["preflight"], _, _ = await closed_loop(
                daemon.port, traffic, 0, count=n_pre)
            t = now()
            verdict = await daemon.call({"op": "verify"})
            out["verify_s_per_1k"] = (
                (now() - t) / max(1, int(verdict.get("checked", 0))) * 1e3)
            out["verified"] = verdict.get("equivalent") is True

            rss_before = measure.vm_rss_kb(daemon.pid)
            cpu_before = measure.process_cpu_s()
            records, start, end = await closed_loop(
                daemon.port, traffic, n_pre, seconds=round_s)
            out["client_cpu_share"] = (
                measure.process_cpu_s() - cpu_before) / (end - start)
            out["rss_kb_per_request"] = (
                measure.vm_rss_kb(daemon.pid) - rss_before) / max(1, len(records))
            out.update(records=records, window=(start, end))
            out["stats"] = await daemon.call({"op": "stats"})

            if probes is not None and tracer.enabled:
                out["ping_s"] = []
                for k in range(50):
                    t = now()
                    await daemon.call({"op": "ping", "id": k})
                    out["ping_s"].append(now() - t)
                out["open"] = await open_loop(
                    daemon.port, traffic, n_pre + len(records) + 2,
                    spec.LIVE["open_rate_qps"][workload], round_s, seed,
                )
            if probes is not None:
                out["probe_replies"] = [
                    await daemon.call(
                        {"op": "query", "id": i, "query": row.tolist()})
                    for i, row in enumerate(probes)
                ]
            out["peak_rss_mb"] = measure.vm_hwm_mb(daemon.pid)
        finally:
            await daemon.shutdown()
            daemon.kill()
        if spans_path is not None:
            with open(spans_path, encoding="utf-8") as handle:
                out["engine_spans"] = json.load(handle)
        out["n_rows"] = matrix.n_rows
        if probes is not None:
            out["engine"] = TopKSpmvEngine.from_collection(
                CompiledCollection.load(artifact))
    finally:
        artifact.unlink(missing_ok=True)
        if spans_path is not None:
            spans_path.unlink(missing_ok=True)
    return out


def _check_probes(engine, probes, replies):
    """Wire results of the probes, bit-equal to in-process ``query_batch``;
    also the probes' recall against ``query_exact``."""
    local = engine.query_batch(probes, spec.TOP_K).topk
    identical = len(replies) == len(local)
    recalls = []
    for row, reply, mine in zip(probes, replies, local):
        if not reply_ok(reply):
            identical = False
            continue
        theirs = result_from_wire(reply)
        identical &= library.same_bits(theirs, mine)
        exact = engine.query_exact(row, spec.TOP_K)
        recalls.append(precision_at_k(theirs.indices, exact.indices))
    return identical, float(np.mean(recalls)) if recalls else 0.0


def _slice_rates(received_at) -> "list[float]":
    """Replies per second over each run of ``SLICE_REPLIES`` consecutive
    replies of one timed loop.

    The machine's speed wanders on a scale of seconds; the median over
    short slices (pooled across the rounds) shrugs off a slow spell that
    the mean over a whole round would absorb.
    """
    times = sorted(received_at)
    return [
        SLICE_REPLIES / (times[i + SLICE_REPLIES] - times[i])
        for i in range(0, len(times) - SLICE_REPLIES, SLICE_REPLIES)
    ]


def run(workload: str, seed: int, seconds: float, smoke: bool,
        tracer: measure.Tracer, rounds: int = spec.ROUNDS) -> dict:
    """One run of ``live_small`` / ``live_large``; see the module docstring."""
    return asyncio.run(_run(workload, seed, seconds, smoke, tracer, rounds))


async def _run(workload, seed, seconds, smoke, tracer, rounds):
    corpus = spec.WORKLOADS[workload].corpus
    traffic = Traffic(corpus, seed)
    probes = inputs.probe_queries(corpus, seed)
    results = [
        await _one_round(
            workload, seed, smoke, seconds / rounds, traffic, tracer,
            probes if r == rounds - 1 else None,
        )
        for r in range(rounds)
    ]
    final = results[-1]
    identical, recall = _check_probes(
        final["engine"], probes, final["probe_replies"])

    latencies, slice_rates = [], []
    attempted = len(probes)
    failed = sum(not reply_ok(r) for r in final["probe_replies"])
    for res in results:
        attempted += len(res["preflight"]) + len(res["records"])
        failed += sum(
            not reply_ok(r[3]) for r in res["preflight"] + res["records"])
        done = [r for r in res["records"] if reply_ok(r[3])]
        latencies += [(received - sent) * 1e3 for _i, sent, received, _r in done]
        slice_rates += _slice_rates([r[2] for r in done])

    out = {
        "metrics": {
            "setup_s": measure.median(r["setup_s"] for r in results),
            "qps": measure.median(slice_rates),
            "latency_ms_p50": measure.percentile(latencies, 50),
            f"latency_ms_p{spec.TAIL_PERCENTILE}": measure.percentile(
                latencies, spec.TAIL_PERCENTILE),
            # A frozen daemon has no write path: rows become queryable
            # through the set-up, so the rate is rows over set-up time,
            # taken over all the run's set-ups.
            "ingest_rows_per_s": final["n_rows"] * len(results) / sum(
                r["setup_s"] for r in results),
            "served_fraction": 1.0 - failed / attempted,
            "recall_at_10": recall,
            "peak_rss_mb": measure.median(r["peak_rss_mb"] for r in results),
        },
        "attempted": attempted,
        "failed": failed,
        "checks": [
            ("preflight-verify-equivalent",
             all(r["verified"] for r in results), ""),
            ("probes-wire-equals-inprocess", identical, ""),
        ],
        "samples": {"latency": len(latencies), "qps_slices": len(slice_rates),
                    "setups": len(results)},
        "rounds": [
            {"seconds": r["window"][1] - r["window"][0],
             "replies": len(r["records"]), "setup_s": r["setup_s"]}
            for r in results
        ],
        "windows": [r["window"] for r in results],
        "auto_backend": library.frozen_backend(final["engine"], probes),
    }
    if tracer.enabled:
        out["layers"] = _layers(final, results, traffic, tracer)
    return out


# ---------------------------------------------------------------------- #
# Per-layer numbers of a traced run
# ---------------------------------------------------------------------- #
def _p50(values) -> float:
    return measure.percentile(values, 50) if values else 0.0


def _layers(final, results, traffic, tracer) -> dict:
    """Join the daemon's engine spans to the client's request spans and
    derive the ``live.*`` / ``cache.*`` / ``policy.*`` / ``client.*``
    numbers from the last round's timed loop."""
    start, end = final["window"]
    engine_spans = [
        s for s in final["engine_spans"] if s["start"] >= start and s["end"] <= end
    ]
    by_digest = {}
    for span in engine_spans:
        span["requests"] = []
        for digest in span["digests"]:
            by_digest.setdefault(digest, []).append(span)

    rtt, server_wall, virtual, non_engine, received_at = [], [], [], [], []
    for i, sent, received, reply in final["records"]:
        if not reply_ok(reply):
            continue
        digest = measure.query_digest(traffic.query(i))
        tracer.add(
            "client.request", sent, received, request=i, digest=digest,
            status=reply["status"], server_wall_s=reply["wall_latency_s"],
            virtual_latency_s=reply["virtual_latency_s"],
        )
        rtt.append(received - sent)
        received_at.append(received)
        server_wall.append(reply["wall_latency_s"])
        if reply["virtual_latency_s"] is not None:
            virtual.append(reply["virtual_latency_s"])
        batch = next(
            (s for s in by_digest.get(digest, ())
             if s["start"] >= sent and s["end"] <= received), None,
        )
        if batch is not None:
            batch["requests"].append(i)
            non_engine.append((received - sent) - (batch["end"] - batch["start"]))
    for span in engine_spans:
        tracer.add(
            span["name"], span["start"], span["end"], replica=span["replica"],
            size=span["size"], requests=span["requests"],
        )

    n = max(1, len(rtt))
    engine_s = sum(s["end"] - s["start"] for s in engine_spans)
    third = (end - start) / 3
    first_third = sum(t < start + third for t in received_at)
    last_third = sum(t >= end - third for t in received_at)
    cache = final["stats"].get("cache") or {}
    opened = [r for r in final["open"] if reply_ok(r[3])]
    from_due = [(received - due) * 1e3 for due, _s, received, _r in opened]
    lateness = [(sent - due) * 1e3 for due, sent, _recv, _r in final["open"]]
    return {
        "live.server_wall_ms_p50": _p50(server_wall) * 1e3,
        "live.client_gap_ms_p50": _p50(
            [a - b for a, b in zip(rtt, server_wall)]) * 1e3,
        "live.wall_over_virtual": (
            _p50(server_wall) / _p50(virtual) if _p50(virtual) else 0.0),
        "live.engine_ms_per_request": engine_s / n * 1e3,
        "live.engine_share": (engine_s / n) / _p50(rtt) if rtt else 0.0,
        "live.non_engine_ms_p50": _p50(non_engine) * 1e3,
        "live.mean_batch_size": (
            float(np.mean([s["size"] for s in engine_spans]))
            if engine_spans else 0.0),
        "live.replica_busy_share": engine_s / (
            (end - start) * spec.LIVE["replicas"]),
        "live.ping_rtt_ms_p50": _p50(final["ping_s"]) * 1e3,
        "live.rss_kb_per_request": final["rss_kb_per_request"],
        "live.qps_drift": last_third / first_third if first_third else 0.0,
        "live.verify_s_per_1k": measure.median(
            r["verify_s_per_1k"] for r in results),
        "cache.hit_rate": float(cache.get("hit_rate", 0.0)),
        "cluster.sim_us_per_request": _sim_cost(
            final["engine"], final["records"], traffic),
        "policy.virtual_latency_ms_p50": _p50(virtual) * 1e3,
        "client.open_latency_ms_p50": _p50(from_due),
        "client.open_latency_ms_p99": (
            measure.percentile(from_due, 99) if from_due else 0.0),
        "client.send_lateness_ms_p99": (
            measure.percentile(lateness, 99) if lateness else 0.0),
        "client.cpu_share": final["client_cpu_share"],
    }


def _sim_cost(engine, records, traffic, limit: int = 256) -> float:
    """Host microseconds per request of ``ClusterRuntime.run`` on the
    recorded stream, engine calls excluded (the decision core's own cost)."""
    spans: list = []
    replicas = [
        measure.TracedEngine(engine, i, spans) for i in range(spec.LIVE["replicas"])
    ]
    runtime = ClusterRuntime(
        replicas, router=spec.LIVE["router"], cache_size=spec.LIVE["cache_size"]
    )
    records = records[:limit]
    queries = np.stack([traffic.query(i) for i, *_ in records])
    arrivals = np.array([sent for _i, sent, *_ in records])
    t = now()
    runtime.run(queries, arrivals - arrivals.min(), spec.TOP_K)
    host = now() - t
    engine_s = sum(s["end"] - s["start"] for s in spans)
    return (host - engine_s) / len(records) * 1e6
