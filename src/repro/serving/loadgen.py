"""Async load generator for the live serving daemon.

Opens one pipelined connection to a :class:`~repro.serving.live.LiveServer`,
replays a seeded Poisson query stream *on the wall clock* (each send waits
for its arrival offset), and collects what a load test actually measures —
the outcome of every request and the completed requests' round trips, as
a :class:`~repro.serving.batcher.ServingMetrics` view — plus the
server-side wall and virtual latencies echoed in every response.  With
``verify=True`` it finishes by asking the server to replay its recorded
decision stream through a fresh simulator (the ``verify`` op) and carries
the verdict in the result; with ``shutdown=True`` it stops the daemon
afterwards.

The stream is deterministic given ``seed`` (queries and arrival gaps), but
the *timing* the server observes is real — two runs make the same requests,
not the same decisions.  That is the point: decision equivalence is checked
against each run's own recorded trace, not across runs.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, FormatError
from repro.serving.batcher import (
    COMPLETED,
    ERROR_PREFIX,
    LATENCY_KEYS,
    ServingMetrics,
    percentile,
    poisson_arrivals,
)
from repro.serving.protocol import read_frame, write_frame
from repro.utils.rng import derive_rng, sample_unit_queries
from repro.utils.validation import check_positive_int

__all__ = ["LoadGenResult", "run_load_gen", "load_gen"]


def _p50_p99_ms(values: np.ndarray) -> dict:
    return {
        "p50_latency_ms": percentile(values, 50) * 1e3,
        "p99_latency_ms": percentile(values, 99) * 1e3,
    }


@dataclass(frozen=True)
class LoadGenResult(ServingMetrics):
    """One load-generation run, client side: the metrics of every reply
    (``outcomes`` per request sent, ``latencies_s`` the completed requests'
    round trips, ``span_s`` first send to last reply) plus what the server
    echoed back and the ``info``/``verify`` frames."""

    #: Server-side wall and virtual latencies of the completed requests.
    server_wall_s: np.ndarray
    virtual_s: np.ndarray
    info: dict = field(default_factory=dict)
    verify: "dict | None" = None

    def to_dict(self) -> dict:
        """JSON-ready summary, keyed like a cluster ``ServingReport``."""
        payload = {
            **self.view(*LATENCY_KEYS),
            "cluster": self.view(
                "n_offered", "n_served", "n_cache_hits", "n_rejected",
                "n_failed", "n_errors", "error_codes", "reject_rate",
                "availability",
            ),
            "server_wall": _p50_p99_ms(self.server_wall_s),
            "virtual": _p50_p99_ms(self.virtual_s),
            "info": self.info,
        }
        if self.verify is not None:
            payload["verify"] = self.verify
        return payload

    def render(self) -> str:
        """Human-readable block for CLI output."""
        server = _p50_p99_ms(self.server_wall_s)
        lines = [
            f"sent {self.n_offered} queries: {self.n_queries} completed "
            f"({self.n_cache_hits} cache hits), {self.n_rejected} rejected "
            f"({self.reject_rate:.1%}), {self.n_failed} failed, "
            f"{self.n_errors} errors — availability {self.availability:.1%}",
            f"client RTT p50 {self.p50_latency_s * 1e3:.3f} ms | "
            f"p99 {self.p99_latency_s * 1e3:.3f} ms | "
            f"{self.qps:.1f} QPS over {self.span_s:.3f} s",
            f"server wall p50 {server['p50_latency_ms']:.3f} ms | "
            f"p99 {server['p99_latency_ms']:.3f} ms",
        ]
        if self.verify is not None:
            if not self.verify.get("ok", False):
                lines.append(f"verify: unavailable ({self.verify.get('error')})")
            elif self.verify.get("equivalent"):
                lines.append(
                    f"verify: live decisions == simulator on all "
                    f"{self.verify.get('checked')} requests (bit-identical)"
                )
            else:
                lines.append(
                    f"verify: DIVERGED — {self.verify.get('detail')}"
                )
        return "\n".join(lines)


async def run_load_gen(
    host: str,
    port: int,
    n_queries: int = 256,
    rate_qps: float = 200.0,
    seed: int = 0,
    duplicate_fraction: float = 0.0,
    verify: bool = False,
    shutdown: bool = False,
    timeout_s: float = 120.0,
) -> LoadGenResult:
    """Drive one seeded Poisson stream at a live daemon; gather the numbers.

    ``duplicate_fraction`` resends earlier queries with that probability so
    the exact-result cache sees repeat traffic (drawn from the same seeded
    generator — the stream stays reproducible).
    """
    n_queries = check_positive_int(n_queries, "n_queries")
    if not 0.0 <= duplicate_fraction < 1.0:
        raise ConfigurationError(
            f"duplicate_fraction must be in [0, 1), got {duplicate_fraction}"
        )
    reader, writer = await asyncio.open_connection(host, port)
    try:
        await write_frame(writer, {"op": "info"})
        info = await asyncio.wait_for(read_frame(reader), timeout_s)
        if info is None or info.get("op") != "info":
            raise FormatError(f"expected an info frame, got {info!r}")

        rng = derive_rng(seed)
        queries = sample_unit_queries(rng, n_queries, int(info["n_cols"]))
        if duplicate_fraction > 0.0 and n_queries > 1:
            dup = rng.random(n_queries) < duplicate_fraction
            dup[0] = False
            for i in np.flatnonzero(dup):
                queries[i] = queries[rng.integers(0, i)]
        arrivals = poisson_arrivals(n_queries, rate_qps, rng)

        loop = asyncio.get_running_loop()
        send_wall = np.zeros(n_queries)
        recv_wall = np.zeros(n_queries)
        statuses: "list[str]" = ["missing"] * n_queries
        server_wall = np.full(n_queries, np.nan)
        virtual = np.full(n_queries, np.nan)

        async def send_stream() -> None:
            start = loop.time()
            for i in range(n_queries):
                delay = start + float(arrivals[i]) - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                send_wall[i] = loop.time()
                await write_frame(
                    writer,
                    {"op": "query", "id": i, "query": queries[i].tolist()},
                )

        async def recv_stream() -> None:
            for _ in range(n_queries):
                message = await read_frame(reader)
                if message is None:
                    raise FormatError(
                        "server closed the connection mid-stream"
                    )
                if message.get("op") == "error":
                    # Per-request typed errors (deadline, overloaded,
                    # shutting-down, ...) are *data* — a fault-tolerant
                    # server degrades with these instead of dropping the
                    # connection.  Only an unattributable error (no
                    # request id, e.g. bad-frame) aborts the run.
                    if message.get("id") is None:
                        raise FormatError(
                            f"server error: {message.get('error')}"
                        )
                    i = int(message["id"])
                    recv_wall[i] = loop.time()
                    statuses[i] = ERROR_PREFIX + message.get("code", "unknown")
                    continue
                i = int(message["id"])
                recv_wall[i] = loop.time()
                statuses[i] = message["status"]
                if "wall_latency_s" in message:
                    server_wall[i] = message["wall_latency_s"]
                if message.get("virtual_latency_s") is not None:
                    virtual[i] = message["virtual_latency_s"]

        await asyncio.wait_for(
            asyncio.gather(send_stream(), recv_stream()), timeout_s
        )

        completed = np.array([s in COMPLETED for s in statuses])

        verdict = None
        if verify:
            await write_frame(writer, {"op": "verify"})
            verdict = await asyncio.wait_for(read_frame(reader), timeout_s)
        if shutdown:
            await write_frame(writer, {"op": "shutdown"})
            await asyncio.wait_for(read_frame(reader), timeout_s)

        return LoadGenResult(
            outcomes=tuple(statuses),
            latencies_s=(recv_wall - send_wall)[completed],
            span_s=float(recv_wall.max() - send_wall.min()),
            server_wall_s=server_wall[completed],
            virtual_s=virtual[completed],
            info=info,
            verify=verdict,
        )
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def load_gen(*args, **kwargs) -> LoadGenResult:
    """Synchronous wrapper around :func:`run_load_gen` (the CLI entry)."""
    return asyncio.run(run_load_gen(*args, **kwargs))
