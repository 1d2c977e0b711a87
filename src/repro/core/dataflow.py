"""Functional simulation of the core's 4-stage dataflow (Algorithm 1).

Each core consumes its BS-CSR packet stream one packet per cycle through
four pipelined stages (Section IV-B):

1. **Scatter** — read the packet's B lanes, fetch ``x[idx]`` from the
   replicated URAM copies, compute B point-wise products.
2. **Aggregation** — sum products between consecutive ``ptr`` boundaries
   (per-row partial sums within the packet).
3. **Summary** — cross-packet bookkeeping: merge the carried partial sum of
   a row spanning packets (``new_row`` bit) and mark finished rows.
4. **Top-K update** — offer every finished row to the k-entry argmin
   scratchpad (:class:`repro.core.topk_tracker.TopKTracker`).

The simulation is *functional* (value-exact, packet-ordered); cycle timing
lives in :mod:`repro.hw.fpga_core`.  Arithmetic faithfulness: fixed-point
designs accumulate exactly in hardware, which float64 reproduces for the
paper's formats and row lengths; the float32 design accumulates in float32,
reproduced here with NumPy float32 arithmetic.

The *batched* multi-query hot path lives in :mod:`repro.core.kernels` as a
set of pluggable backends (reference gather, fused streaming, CSR
contraction), all locked bit-identical to :meth:`DataflowCore.run_fast`;
:func:`simulate_multicore_batch` selects one via its ``kernel`` argument,
the ``REPRO_KERNEL`` environment variable, or the registry default.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.approx import CandidateBlock
from repro.core.reference import TopKResult
from repro.core.topk_tracker import TopKTracker
from repro.errors import ConfigurationError, SimulationError
from repro.formats.bscsr import BSCSRMatrix, BSCSRStream, decode_lanes
from repro.utils.validation import check_positive_int

__all__ = [
    "DataflowStats",
    "DataflowCore",
    "StreamPlan",
    "plan_stream",
    "simulate_dataflow",
    "simulate_multicore",
    "simulate_multicore_batch",
]


@dataclass
class DataflowStats:
    """Counters collected while streaming packets through one core."""

    packets: int = 0
    rows_finished: int = 0
    tracker_accepts: int = 0
    max_rows_in_packet: int = 0
    spanning_rows: int = 0

    def merge(self, other: "DataflowStats") -> "DataflowStats":
        """Combine counters from another core (for whole-accelerator totals)."""
        return DataflowStats(
            packets=self.packets + other.packets,
            rows_finished=self.rows_finished + other.rows_finished,
            tracker_accepts=self.tracker_accepts + other.tracker_accepts,
            max_rows_in_packet=max(self.max_rows_in_packet, other.max_rows_in_packet),
            spanning_rows=self.spanning_rows + other.spanning_rows,
        )


class DataflowCore:
    """One FPGA core: streams a BS-CSR partition and tracks its local top-k."""

    def __init__(
        self,
        local_k: int,
        x: np.ndarray,
        accumulate_dtype: np.dtype = np.float64,
    ):
        """
        Parameters
        ----------
        local_k:
            Scratchpad depth ``k`` (the paper uses 8).
        x:
            The dense query vector *as stored in URAM* — already quantised
            by the caller to the design's query precision.  A ``(Q, n_cols)``
            block of queries is accepted for :meth:`run_fast_batch`; the
            single-query paths (:meth:`run`, :meth:`run_fast`) require 1-D.
        accumulate_dtype:
            ``np.float64`` models exact fixed-point accumulation;
            ``np.float32`` models the F32 design's floating-point adders.
        """
        self.local_k = check_positive_int(local_k, "local_k")
        self.x = np.asarray(x, dtype=np.float64)
        if self.x.ndim not in (1, 2):
            raise ConfigurationError(f"x must be 1-D or 2-D, got shape {self.x.shape}")
        dtype = np.dtype(accumulate_dtype)
        if dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise ConfigurationError(
                f"accumulate_dtype must be float64 or float32, got {dtype}"
            )
        self.accumulate_dtype = dtype

    def run(self, stream: BSCSRStream) -> tuple[TopKResult, DataflowStats]:
        """Stream every packet through the 4 stages; return local top-k and stats.

        Local result indices are partition-local row ids.
        """
        x_uram = self._single_query(stream)
        acc = self.accumulate_dtype
        tracker = TopKTracker(self.local_k)
        stats = DataflowStats()
        values = stream.values().astype(acc)
        x = x_uram.astype(acc)

        # Lanes of the row currently being accumulated (possibly spanning
        # packets).  The row's value is a single balanced reduction over all
        # its lanes — the hardware's adder tree; numerically identical to
        # the reduceat segments of :meth:`run_fast`.
        open_row_lanes: list[np.ndarray] = []
        current_row = 0
        for p in range(stream.n_packets):
            stats.packets += 1
            # Stage 1 — scatter: B parallel URAM reads and multipliers.
            products = values[p] * x[stream.idx[p]]
            # Stage 2/3 — aggregate between boundaries, handle the carry.
            bounds = stream.ptr[p]
            valid = bounds[bounds > 0].astype(np.int64)
            if stream.new_row[p]:
                open_row_lanes = []  # previous packet's tail was padding
            else:
                stats.spanning_rows += 1
            stats.max_rows_in_packet = max(stats.max_rows_in_packet, len(valid))
            prev = 0
            for b in valid:
                open_row_lanes.append(products[prev : int(b)])
                row_lanes = np.concatenate(open_row_lanes)
                row_value = np.add.reduceat(row_lanes, [0])[0]
                # Stage 4 — Top-K scratchpad update for the finished row.
                stats.rows_finished += 1
                stats.tracker_accepts += tracker.insert(current_row, float(row_value))
                open_row_lanes = []
                current_row += 1
                prev = int(b)
            open_row_lanes.append(products[prev:])

        if current_row != stream.n_rows:
            raise SimulationError(
                f"dataflow finished {current_row} rows, stream declares {stream.n_rows}"
            )
        return tracker.result(), stats

    def run_fast(self, stream: BSCSRStream) -> tuple[TopKResult, DataflowStats]:
        """Vectorised equivalent of :meth:`run` (same results, same tracker order).

        Exploits two exactness properties of the format: padding lanes carry
        value 0 (contribute nothing to any segment) and row boundaries are
        strictly increasing global lane positions, so per-row values are
        contiguous segment sums over the flattened lane stream —
        ``np.add.reduceat`` in stream order reproduces the hardware's
        accumulation order for both float64 and float32 models.  The Top-K
        scratchpad is still applied sequentially (its replace-on-tie
        behaviour is order-dependent).  Tests assert equality with
        :meth:`run` packet by packet.
        """
        x_uram = self._single_query(stream)
        acc = self.accumulate_dtype
        tracker = TopKTracker(self.local_k)
        stats = DataflowStats(packets=stream.n_packets)
        if stream.n_packets == 0:
            if stream.n_rows != 0:
                raise SimulationError(
                    f"empty stream declares {stream.n_rows} rows"
                )
            return tracker.result(), stats

        lanes = stream.layout.lanes
        values = stream.values().astype(acc)
        x = x_uram.astype(acc)
        products = (values * x[stream.idx])

        bounds = stream.ptr.astype(np.int64)
        valid_mask = bounds > 0
        # Drop padding lanes (after the last boundary of a packet whose
        # successor starts a new row, and the final packet's tail).  The
        # zeros would not change any sum's value, but they would change the
        # pairwise-reduction tree shape and therefore the float32 rounding —
        # the reference path never feeds them to the adder tree.
        last_bound = bounds.max(axis=1)
        closes = np.ones(stream.n_packets, dtype=bool)
        if stream.n_packets > 1:
            closes[:-1] = stream.new_row[1:]
        kept_per_packet = np.where(closes, last_bound, lanes)
        keep = np.arange(lanes)[None, :] < kept_per_packet[:, None]
        products = products[keep]

        cum_kept = np.concatenate([[0], np.cumsum(kept_per_packet)])
        packet_of_bound, _ = np.nonzero(valid_mask)
        ends = cum_kept[packet_of_bound] + bounds[valid_mask]
        if len(ends) != stream.n_rows:
            raise SimulationError(
                f"stream has {len(ends)} row boundaries, declares {stream.n_rows} rows"
            )
        stats.rows_finished = int(len(ends))
        stats.max_rows_in_packet = int(valid_mask.sum(axis=1).max(initial=0))
        stats.spanning_rows = int((~stream.new_row[1:]).sum()) if stream.n_packets > 1 else 0

        starts = np.concatenate([[0], ends[:-1]])
        row_values = np.add.reduceat(products, starts).astype(acc)
        stats.tracker_accepts = tracker.insert_many(
            np.arange(stream.n_rows, dtype=np.int64), row_values.astype(np.float64)
        )
        return tracker.result(), stats

    def run_fast_batch(
        self, stream: BSCSRStream, plan: "StreamPlan | None" = None
    ) -> tuple[list[TopKResult], list[DataflowStats]]:
        """Stream the partition once against a ``(Q, n_cols)`` query block.

        Computes every query's row values with one broadcast multiply and one
        ``np.add.reduceat`` sweep over the shared lane stream, then applies
        each query's Top-K scratchpad sequentially.  Per query, indices and
        float-bit values are identical to :meth:`run_fast` on that query
        alone: the kept-lane products are the same elementwise float32/64
        operations, and a 2-D ``reduceat`` along axis 1 reduces each row's
        contiguous segments through the same inner loop as the 1-D call
        (the batched-dataflow property suite asserts bitwise equality).

        ``plan`` caches the query-independent stream structure (kept lanes,
        segment starts, structural counters) so serving layers can amortise
        it across batches; omit it to derive the plan on the fly.
        """
        from repro.core.kernels import BatchScratchpads, Queries, get_kernel

        X = self._query_block(stream)
        if plan is None:
            plan = plan_stream(stream)
        pads = BatchScratchpads(X.shape[0], self.local_k)
        queries = Queries.of(X, self.accumulate_dtype)
        get_kernel("gather").fold_plan(queries, plan, pads)
        results, accepts = pads.finish()
        stats_list = [
            replace(plan.stats, tracker_accepts=int(a)) for a in accepts
        ]
        return results, stats_list

    # ------------------------------------------------------------------ #
    # Query-shape plumbing
    # ------------------------------------------------------------------ #
    def _single_query(self, stream: BSCSRStream) -> np.ndarray:
        if self.x.ndim != 1:
            raise ConfigurationError(
                f"this path takes one 1-D query, got a block of shape "
                f"{self.x.shape}; use run_fast_batch"
            )
        if stream.n_cols > len(self.x):
            raise ConfigurationError(
                f"stream has {stream.n_cols} columns but URAM holds "
                f"{len(self.x)} entries of x"
            )
        return self.x

    def _query_block(self, stream: BSCSRStream) -> np.ndarray:
        X = np.atleast_2d(self.x)
        if stream.n_cols > X.shape[1]:
            raise ConfigurationError(
                f"stream has {stream.n_cols} columns but URAM holds "
                f"{X.shape[1]} entries per query"
            )
        return X


@dataclass(frozen=True)
class StreamPlan:
    """Query-independent structure of one BS-CSR stream.

    Everything :meth:`DataflowCore.run_fast` derives from the packet stream
    *before* touching the query vector: the kept (non-padding) lanes with
    their decoded values and column indices, the per-row reduction segment
    starts, and the structural counters.  Building the plan once and reusing
    it across queries/batches is what makes the batched path amortise the
    stream walk.
    """

    n_rows: int
    kept_idx: np.ndarray
    kept_values: np.ndarray
    starts: np.ndarray
    stats: DataflowStats


def plan_stream(stream: BSCSRStream) -> StreamPlan:
    """Derive a :class:`StreamPlan`: the format's decoder plus counters.

    :func:`repro.formats.bscsr.decode_lanes` drops the padding lanes (they
    would change the float32 reduction tree) and turns row boundaries into
    ``reduceat`` segment starts in stream order; this adds the structural
    counters on top.
    """
    keep, starts = decode_lanes(stream)
    stats = DataflowStats(
        packets=stream.n_packets,
        rows_finished=stream.n_rows,
        max_rows_in_packet=int((stream.ptr > 0).sum(axis=1).max(initial=0)),
        spanning_rows=int((~stream.new_row[1:]).sum()),
    )
    if stream.n_rows == 0:
        keep = np.zeros_like(keep)
    return StreamPlan(
        n_rows=stream.n_rows,
        kept_idx=stream.idx[keep],
        kept_values=stream.values()[keep],
        starts=starts,
        stats=stats,
    )


def simulate_dataflow(
    stream: BSCSRStream,
    x: np.ndarray,
    local_k: int,
    accumulate_dtype: np.dtype = np.float64,
    fast: bool = True,
) -> tuple[TopKResult, DataflowStats]:
    """Run one partition stream through a fresh core (convenience wrapper).

    ``fast`` selects the vectorised implementation (identical results; the
    per-packet reference path exists for hardware-faithful inspection).
    """
    core = DataflowCore(local_k=local_k, x=x, accumulate_dtype=accumulate_dtype)
    return core.run_fast(stream) if fast else core.run(stream)


def simulate_multicore(
    matrix: BSCSRMatrix,
    x: np.ndarray,
    local_k: int,
    accumulate_dtype: np.dtype = np.float64,
    fast: bool = True,
    row_map: "np.ndarray | None" = None,
) -> tuple[list[TopKResult], DataflowStats]:
    """Run every partition through its own core; globalise local row ids.

    ``row_map`` translates stream-global positions to original row ids for
    placed (row-permuted) collections — candidates leave this function in
    collection space either way, so placement never leaks downstream.

    Returns the per-core candidate lists (global ids) and merged statistics.
    The final merge/truncation to K is the host's job — see
    :func:`repro.core.approx.merge_topk_candidates`.

    No engine calls this any more (``query`` is a one-row
    :func:`simulate_multicore_batch`); it stays as the independent per-query
    oracle the property suites and benchmarks hold the batch path to.
    """
    results: list[TopKResult] = []
    totals = DataflowStats()
    for stream, offset in zip(matrix.streams, matrix.row_offsets):
        local, stats = simulate_dataflow(
            stream, x, local_k, accumulate_dtype, fast=fast
        )
        indices = local.indices + int(offset)
        if row_map is not None:
            indices = row_map[indices]
        results.append(TopKResult(indices=indices, values=local.values))
        totals = totals.merge(stats)
    return results, totals


def simulate_multicore_batch(
    matrix: BSCSRMatrix,
    queries: np.ndarray,
    local_k: int,
    accumulate_dtype: np.dtype = np.float64,
    plans: "list[StreamPlan] | None" = None,
    kernel: "str | None" = None,
    n_workers: "int | str | None" = None,
    operand=None,
    executor: "str | None" = None,
    row_map: "np.ndarray | None" = None,
) -> "tuple[CandidateBlock, list[DataflowStats]]":
    """Run a ``(Q, n_cols)`` query block through every partition's core.

    The vectorised counterpart of looping :func:`simulate_multicore` over the
    block's rows: each partition stream is walked once per batch and each
    query gets its own Top-K scratchpads in the same insert order.  The
    sweep itself runs on a pluggable kernel backend
    (:mod:`repro.core.kernels`); whichever backend executes, per query the
    candidate lists and merged stats are bit-identical to the sequential
    loop (asserted by ``tests/property/test_prop_batch_dataflow`` and
    ``tests/property/test_prop_kernels``).

    Parameters
    ----------
    matrix:
        The encoded multi-partition collection.
    queries:
        Query block, shape ``(Q, n_cols)`` (a single 1-D query is promoted).
    plans:
        Optional pre-built per-partition :class:`StreamPlan` list (must align
        with ``matrix.streams``); serving layers cache these across batches.
    kernel:
        Backend name (``"gather"``, ``"streaming"``, ``"contraction"``,
        ``"native"``, ``"auto"``); ``None`` defers to ``$REPRO_KERNEL`` or
        the default.  Backends that cannot guarantee the request's
        accumulation order fall back to the reference kernel automatically.
    n_workers:
        Partition-parallel worker count (``"auto"``/``0`` = all cores);
        ``None`` defers to ``$REPRO_KERNEL_WORKERS`` or 1.  Bit-neutral.
    executor:
        Partition executor, ``"thread"`` (default) or ``"process"``
        (spawned workers attaching the plan buffers through shared
        memory); ``None`` defers to ``$REPRO_KERNEL_EXECUTOR``.
        Bit-neutral — partitions are independent and results are
        reassembled in partition order.
    operand:
        Optional pre-lowered
        :class:`~repro.core.kernels.contraction.ContractionOperand` aligned
        with ``plans`` (compiled collections persist one).  When omitted it
        is lowered on the fly only if the contraction kernel is requested
        by name.
    row_map:
        Stream-position → original-row translation for placed (row-
        permuted) collections; candidate indices are mapped through it so
        results always leave in collection space.  ``None`` = identity.

    Returns
    -------
    results, stats:
        ``results`` is the block's dense
        :class:`~repro.core.approx.CandidateBlock` — ``results[q]`` reads
        as query ``q``'s per-core candidate list with global row ids
        (freshly allocated index arrays — backend-internal buffers are
        never mutated); ``stats[q]`` its merged whole-accelerator counters.
    """
    from repro.core.kernels import (
        KernelRequest,
        codecs_grid_bits,
        lower_plans,
        resolve_executor,
        resolve_kernel_name,
        resolve_workers,
        run_kernel,
    )

    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if queries.ndim != 2:
        raise ConfigurationError(
            f"queries must be a (Q, n_cols) block, got shape {queries.shape}"
        )
    if plans is None:
        plans = [plan_stream(s) for s in matrix.streams]
    elif len(plans) != len(matrix.streams):
        raise ConfigurationError(
            f"{len(plans)} plans supplied for {len(matrix.streams)} streams"
        )
    core = DataflowCore(local_k=local_k, x=queries, accumulate_dtype=accumulate_dtype)
    X = np.atleast_2d(core.x)
    for stream in matrix.streams:
        core._query_block(stream)  # per-stream column-count validation only

    kernel_name = resolve_kernel_name(kernel)
    if operand is None and kernel_name == "contraction":
        # Lowering is O(nnz): skip it when the codec grid set can never
        # pass the exactness gate (the backend then falls back exactly as
        # it would with an ungated operand).
        if codecs_grid_bits(s.codec for s in matrix.streams) is not None:
            operand = lower_plans(plans, [s.codec for s in matrix.streams])
    request = KernelRequest(
        X=X,
        plans=tuple(plans),
        accumulate_dtype=core.accumulate_dtype,
        local_k=core.local_k,
        operand=operand,
        n_workers=resolve_workers(n_workers),
        executor=resolve_executor(executor),
    )
    out = run_kernel(request, kernel_name)

    # Globalise every candidate at once, into a freshly allocated array (a
    # backend may cache or share its output buffers).  Unfilled slots keep
    # their -1 marker.
    offsets = np.asarray(matrix.row_offsets[: len(plans)], dtype=np.int64)
    indices = out.rows + offsets[:, None, None]
    if row_map is not None:
        indices = row_map[indices]
    unfilled = out.rows < 0
    if unfilled.any():
        indices[unfilled] = -1
    # The structural counters are query-independent: fold them across
    # partitions once instead of per query, then graft in each query's
    # tracker-accept total (exactly what a merge of per-stream stats yields).
    base = DataflowStats()
    for plan in plans:
        base = base.merge(plan.stats)
    totals = [
        replace(base, tracker_accepts=int(a)) for a in out.accepts.sum(axis=0)
    ]
    return CandidateBlock(indices=indices, values=out.values), totals
