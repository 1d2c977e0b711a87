"""The benchmark's fixed vocabulary: workloads, metrics, bounds, interactions.

``BENCHMARK.json`` at the repo root is the machine contract (names, units,
direction, bounds); its schema has no room for *why* a layer metric exists,
so the richer table lives here: each per-layer metric names its layer (the
module it times from outside) and the end-to-end pairings it is expected
to move (``moves``).  ``test_spine_smoke.py`` keeps the two in step.

Nothing in this module imports ``repro``: the smoke test and ``compare.py``
must work on a machine that only has the result files.
"""

from __future__ import annotations

from dataclasses import dataclass

TOP_K = 10
ROUNDS = 3
N_PROBES = 64

#: The latency tail the end-to-end metrics name.  Every run collects >= 100
#: samples, so by count alone p90 would qualify (ten samples beyond it); p75
#: is used because on a shared VM p90 flips with any slow spell covering a
#: tenth of the run (README, "How steady is it").
TAIL_PERCENTILE = 75

LIVE_WORKLOADS = ("live_small", "live_large")


@dataclass(frozen=True)
class Corpus:
    """One seeded input collection (full size and its ``--smoke`` size)."""

    name: str
    kind: str  # "uniform" | "zipf"
    n_rows: int
    n_cols: int
    avg_nnz: int
    design: str
    smoke_rows: int

    def rows(self, smoke: bool) -> int:
        return self.smoke_rows if smoke else self.n_rows


CORPORA = {
    c.name: c
    for c in (
        Corpus("uniform-6k", "uniform", 6_000, 512, 12, "20b", 1_500),
        Corpus("uniform-40k", "uniform", 40_000, 512, 20, "20b", 2_000),
        Corpus("uniform-160k", "uniform", 160_000, 512, 20, "20b", 3_000),
        Corpus("zipf-64k", "zipf", 64_000, 256, 16, "f32", 8_192),
    )
}


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: str
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "offline_batch", "uniform-40k",
            "frozen 40k-row engine in-process: kernels and the dataflow merge "
            "do all the work, serving does none",
        ),
        Workload(
            "mutable_zipf", "zipf-64k",
            "ingest/delete/compact beside reads on a skew-placed f32 "
            "collection: the segmented fold and the streaming screen",
        ),
        Workload(
            "live_small", "uniform-6k",
            "closed loop over the socket daemon on 6k rows: protocol, "
            "batching, routing and cache dominate the round trip",
        ),
        Workload(
            "live_large", "uniform-160k",
            "same daemon and traffic on 160k rows: the kernel dominates, so "
            "a serving-layer gain should barely move it",
        ),
    )
}

#: mutable_zipf cycle shape (fixed counts, so two commits see the same
#: collection states for a given ``--seconds``).
MUTABLE = {
    "base_rows": 32_000,
    "block_rows": 1_024,
    "delete_lag": 8,
    "compact_every": 16,
    "keep_clean_over": 16_384,
    "batch_queries": 32,
    "cycles_per_second": 8.5,
    # >= 112 cycles, so ten latency samples lie beyond the tail percentile
    "min_periods": 7,
}
MUTABLE_SMOKE = dict(
    MUTABLE, base_rows=4_096, block_rows=256, keep_clean_over=2_048,
    min_periods=1,
)

#: Live daemon configuration (everything else is the package default).
LIVE = {
    "replicas": 2,
    "router": "least-outstanding",
    "cache_size": 256,
    "connections": 2,
    "repeat_fraction": 0.2,
    "repeat_window": 200,
    "preflight_requests": 86,  # x3 rounds >= the 256 the verify check wants
    "open_rate_qps": {"live_small": 50.0, "live_large": 15.0},
}


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    definition: str


#: Bounds are shares of the base median.  They are set from the run-to-run
#: spread measured on the 2-vCPU shared VM this benchmark was built on, where
#: the machine's own speed wanders by tens of percent over minutes (README,
#: "How steady is it"); ``compare.py`` resolves finer differences from more
#: runs per side.
END_TO_END = (
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "corpus generation + compile (+ save, daemon spawn until the first "
        "pong, engine warm-up call); median of the run's set-ups",
    ),
    EndToEnd(
        "qps", "queries/s", "higher", 0.25,
        "library: batch size / median query_batch call; live: median rate "
        "over runs of 20 consecutive replies of the closed loop",
    ),
    EndToEnd(
        "latency_ms_p50", "ms", "lower", 0.25,
        "library: one engine.query call; live: frame written -> reply read",
    ),
    EndToEnd(
        f"latency_ms_p{TAIL_PERCENTILE}", "ms", "lower", 0.25,
        "same samples (>= 100 per run); p90 would have ten samples beyond it "
        "too, but flips with any slow spell of the host (README)",
    ),
    EndToEnd(
        "ingest_rows_per_s", "rows/s", "higher", 0.25,
        "mutable_zipf: rows ingested / time inside ingest+delete+compact, "
        "median over compaction periods; offline_batch: rows / median "
        "compile_collection call; live: rows / set-up time",
    ),
    EndToEnd(
        "served_fraction", "ratio", "higher", 0.001,
        "1 - failed/attempted: exceptions, error frames and any status other "
        "than served/cache-hit count as failed",
    ),
    EndToEnd(
        "recall_at_10", "ratio", "higher", 0.02,
        "precision_at_k of the served top-10 against query_exact on the 64 "
        "probes, outside the timed phases",
    ),
    EndToEnd(
        "peak_rss_mb", "MB", "lower", 0.20,
        "VmHWM of the process holding the collection (benchmark process, or "
        "the daemon)",
    ),
)


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    moves: tuple  # "<workload>.<end-to-end metric>" pairings
    note: str = ""


def _pairs(workloads, metrics):
    return tuple(f"{w}.{m}" for w in workloads for m in metrics)


_ALL = tuple(WORKLOADS)
_LAT = ("latency_ms_p50", f"latency_ms_p{TAIL_PERCENTILE}")
_SETUP = _pairs(_ALL, ("setup_s",))
_BUILD = _SETUP + _pairs(
    ("offline_batch", "live_small", "live_large"), ("ingest_rows_per_s",)
)
_KERNEL = ("offline_batch.qps",) + _pairs(("live_large",), ("qps",) + _LAT)
_Q1 = _pairs(("live_small", "live_large"), _LAT)
_WRITE = ("mutable_zipf.ingest_rows_per_s",)
_MUT_READ = ("mutable_zipf.qps",)
_SERVING = _pairs(("live_small",), ("qps",) + _LAT)
_LIVE = _pairs(LIVE_WORKLOADS, ("qps",) + _LAT)
_RSS = _pairs(LIVE_WORKLOADS, ("peak_rss_mb",))

PER_LAYER = (
    # data, formats, core.collection -> setup_s (ladder corpus: uniform-40k)
    Layer("data.generate_s", "s", "lower", _SETUP),
    Layer("collection.compile_s", "s", "lower", _BUILD),
    Layer("collection.compile_skew_s", "s", "lower", ("mutable_zipf.setup_s",),
          "zipf-64k base, placement='skew'"),
    Layer("collection.plans_s", "s", "lower", _SETUP, "first stream_plans()"),
    Layer("collection.operand_s", "s", "lower", _SETUP,
          "first contraction_operand()"),
    Layer("formats.save_s", "s", "lower", _pairs(LIVE_WORKLOADS, ("setup_s",))),
    Layer("formats.load_s", "s", "lower", _pairs(LIVE_WORKLOADS, ("setup_s",))),
    Layer("formats.artifact_mb", "MB", "lower",
          _pairs(LIVE_WORKLOADS, ("setup_s",))),
    Layer("formats.bytes_per_nnz", "B/nnz", "lower", _KERNEL,
          "packing_stats: BS-CSR bytes streamed per non-zero (a count)"),
    Layer("formats.packet_fill", "ratio", "higher", _KERNEL,
          "packing_stats: occupied lanes / total lanes (a count)"),
    # core.kernels via run_kernel(KernelRequest, name), Q=128
    Layer("kernels.gather.ns_per_nnz", "ns/nnz", "lower", _MUT_READ,
          "ns per (nnz x query); the placed segmented base folds by gather"),
    Layer("kernels.streaming.ns_per_nnz", "ns/nnz", "lower", _MUT_READ),
    Layer("kernels.contraction.ns_per_nnz", "ns/nnz", "lower", _KERNEL),
    Layer("kernels.auto.ns_per_nnz", "ns/nnz", "lower", _KERNEL),
    Layer("kernels.auto.q1_ms", "ms", "lower", _Q1),
    Layer("kernels.auto.q1_fixed_ms", "ms", "lower", _Q1,
          "intercept of Q=1 time against nnz over the three uniform corpora"),
    Layer("kernels.auto.gbps", "GB/s", "higher", _KERNEL,
          "bytes computed from plan-buffer sizes, not measured traffic"),
    Layer("kernels.auto.roof_fraction", "ratio", "higher", _KERNEL,
          "kernels.auto.gbps / host.triad_gbps"),
    Layer("kernels.streaming.skip_fraction", "ratio", "higher", _MUT_READ,
          "frozen skew-placed zipf-64k (a count)"),
    Layer("kernels.thread_w2_speedup", "ratio", "higher", _KERNEL,
          "streaming, 2 thread workers / 1"),
    Layer("kernels.process_w2_speedup", "ratio", "higher", _KERNEL,
          "streaming, 2 process workers / 1 inline; pool spawn excluded"),
    # core.dataflow
    Layer("dataflow.batch_ms", "ms", "lower", ("offline_batch.qps",),
          "simulate_multicore_batch, Q=128"),
    Layer("dataflow.merge_share", "ratio", "lower", ("offline_batch.qps",),
          "1 - kernel time / batch time"),
    # core.engine, arithmetic
    Layer("engine.query_batch_q128_ms", "ms", "lower", ("offline_batch.qps",)),
    Layer("engine.query_batch_q1_ms", "ms", "lower", _Q1),
    Layer("engine.query_q1_ms", "ms", "lower",
          _pairs(("offline_batch",), _LAT)),
    Layer("engine.q1_path_ratio", "ratio", "lower",
          _pairs(("offline_batch",), _LAT), "query / query_batch of one row"),
    Layer("engine.overhead_share", "ratio", "lower", ("offline_batch.qps",),
          "1 - dataflow.batch_ms / engine.query_batch_q128_ms"),
    Layer("arithmetic.quantize_us_per_query", "us", "lower",
          ("offline_batch.qps",)),
    # core.segments
    Layer("segments.ingest_ms", "ms", "lower", _WRITE, "per 1024-row ingest"),
    Layer("segments.delete_ms", "ms", "lower", _WRITE, "per 1024-key delete"),
    Layer("segments.seal_ms", "ms", "lower", _WRITE),
    Layer("segments.compact_ms", "ms", "lower", _WRITE),
    Layer("segments.n_segments_mean", "count", "lower", _MUT_READ),
    Layer("segments.write_share", "ratio", "lower", _WRITE + _MUT_READ,
          "write time / (write + read time) of the cycle"),
    # core.kernels.segmented, core.placement
    Layer("segmented.query_q32_ms", "ms", "lower", _MUT_READ),
    Layer("segmented.skip_fraction", "ratio", "higher", _MUT_READ),
    Layer("segmented.gather_segment_share", "ratio", "lower", _MUT_READ,
          "segments folded by gather / segments folded"),
    Layer("segmented.read_amp", "ratio", "lower", _MUT_READ,
          "fragmented / compacted query time, same live rows"),
    Layer("placement.channel_imbalance", "ratio", "lower", _MUT_READ,
          "max / mean channel nnz of the skew-placed base"),
    # serving.protocol, in-process on the workload's own messages
    Layer("protocol.query_frame_bytes", "bytes", "lower", _SERVING),
    Layer("protocol.query_encode_us", "us", "lower", _SERVING),
    Layer("protocol.query_decode_us", "us", "lower", _SERVING),
    Layer("protocol.result_frame_bytes", "bytes", "lower", _SERVING),
    Layer("protocol.result_encode_us", "us", "lower", _SERVING),
    Layer("protocol.result_decode_us", "us", "lower", _SERVING),
    # serving.cache, serving.cluster / policy
    Layer("cache.hit_rate", "ratio", "higher", _SERVING, "from the stats op"),
    Layer("cache.get_put_us", "us", "lower", _SERVING),
    Layer("cluster.sim_us_per_request", "us", "lower", _SERVING,
          "ClusterRuntime.run host time minus engine spans, per request"),
    Layer("policy.virtual_latency_ms_p50", "ms", "lower", (),
          "virtual clock: modelled, moves no wall-clock metric"),
    # serving.live
    Layer("live.server_wall_ms_p50", "ms", "lower", _LIVE),
    Layer("live.client_gap_ms_p50", "ms", "lower", _LIVE,
          "round trip - server wall"),
    Layer("live.wall_over_virtual", "ratio", "lower", _LIVE),
    Layer("live.engine_ms_per_request", "ms", "lower", _LIVE),
    Layer("live.engine_share", "ratio", "higher", _LIVE,
          "engine ms per request / round-trip p50"),
    Layer("live.non_engine_ms_p50", "ms", "lower", _SERVING),
    Layer("live.mean_batch_size", "count", "higher", _LIVE),
    Layer("live.replica_busy_share", "ratio", "higher", _LIVE),
    Layer("live.ping_rtt_ms_p50", "ms", "lower", _SERVING),
    Layer("live.rss_kb_per_request", "kB", "lower", _RSS + _pairs(
        LIVE_WORKLOADS, ("qps",))),
    Layer("live.qps_drift", "ratio", "higher", _pairs(LIVE_WORKLOADS, ("qps",)),
          "last third / first third of the traced closed loop"),
    Layer("live.verify_s_per_1k", "s", "lower", ()),
    # client: the benchmark's own generator, one open-loop phase
    Layer("client.open_latency_ms_p50", "ms", "lower", (),
          "Poisson open loop, timed from when each request was due"),
    Layer("client.open_latency_ms_p99", "ms", "lower", ()),
    Layer("client.send_lateness_ms_p99", "ms", "lower", ()),
    Layer("client.cpu_share", "ratio", "lower", _LIVE),
    # hw (simulated time), host (measured roof), trace
    Layer("hw.modelled_qps", "queries/s", "higher", (), "simulated, not measured"),
    Layer("hw.modelled_latency_ms", "ms", "lower", (), "simulated, not measured"),
    Layer("hw.wall_over_modelled", "ratio", "lower", (),
          "measured software wall / simulated FPGA time"),
    Layer("host.copy_gbps", "GB/s", "higher", ()),
    Layer("host.triad_gbps", "GB/s", "higher", ()),
    Layer("host.array_mb", "MB", "higher", (), "ladder array size"),
    Layer("host.llc_mb", "MB", "higher", (), "reported last-level cache"),
    Layer("trace.overhead_fraction", "ratio", "lower", (),
          "1 - traced qps / untraced qps of this workload"),
    Layer("trace.coverage", "ratio", "higher", (),
          "share of the timed phases covered by spans"),
)

END_TO_END_NAMES = tuple(m.name for m in END_TO_END)
PER_LAYER_NAMES = tuple(m.name for m in PER_LAYER)
UNITS = {m.name: m.unit for m in END_TO_END + PER_LAYER}
