"""Row-sharded multi-board serving of one embedding collection.

A :class:`ShardedEngine` spreads the collection's BS-CSR partition streams
across ``N`` simulated boards ("shards").  Every query is a scatter-gather:
all shards stream their rows concurrently and the host keeps the global
Top-K.  Functionally the fleet answers through the same one query driver as
:class:`repro.core.engine.TopKSpmvEngine`
(:func:`~repro.core.kernels.segmented.run_segmented`), so its bits are the
exact global Top-K of the quantised scores, identical to the unsharded
engine.  Per-shard timing reuses the :mod:`repro.hw.multicore` model, so the
scatter-gather latency is the slowest shard's makespan plus one host
invocation.

Two sharding modes, which differ only in modelled timing and power:

* **aligned** (default, ``cores_per_shard=None``) — the collection is
  partitioned into ``design.cores`` streams exactly as the unsharded engine
  does, and whole streams are dealt contiguously to shards; the driver
  serves the parent artifact as one segment.
* **``cores_per_shard=c``** — each shard re-partitions its row slice across
  its own ``c`` cores (a fleet of full boards), so each shard's makespan
  shrinks with its share of the rows; the driver serves one segment per
  shard collection, in shard order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.collection import CompiledCollection, compile_collection
from repro.core.dataflow import DataflowStats, StreamPlan
from repro.core.engine import (
    BatchResult,
    check_query_block,
    check_query_vector,
)
from repro.core.partition import partition_rows
from repro.core.reference import TopKResult, exact_topk_spmv
from repro.core.segments import MutableEngineMixin, Segment, SegmentedCollection
from repro.errors import ConfigurationError
from repro.formats.bscsr import BSCSRMatrix
from repro.hw.calibration import CALIBRATION, CalibrationConstants
from repro.hw.design import AcceleratorDesign
from repro.hw.hbm import ALVEO_U280_HBM, HBMConfig
from repro.hw.multicore import AcceleratorTiming, TopKSpmvAccelerator
from repro.hw.power import estimate_fpga_power_w
from repro.hw.uram import ALVEO_U280_URAM, URAMSpec, check_vector_fits
from repro.utils.validation import check_positive_int

__all__ = ["EngineShard", "ShardedResult", "ShardedEngine"]


@dataclass
class EngineShard:
    """One simulated board holding a contiguous slice of the collection.

    ``encoded`` shares its stream buffers with the compiled ``collection``
    it was sliced from (``encoded.row_offsets`` are *global* row ids), and
    ``stream_plans`` resolves through the collection's single lazy plan
    cache — a shard never re-encodes or re-plans anything the parent
    artifact already holds.
    """

    shard_id: int
    encoded: BSCSRMatrix
    timing: AcceleratorTiming
    power_w: float
    collection: CompiledCollection
    stream_range: "tuple[int, int]"

    @property
    def n_streams(self) -> int:
        """Partition streams (active cores) on this shard."""
        return len(self.encoded.streams)

    @property
    def nnz(self) -> int:
        """Genuine non-zeros stored on this shard."""
        return self.encoded.nnz

    def stream_plans(self) -> "list[StreamPlan]":
        """This shard's batch plans, from the collection's shared cache."""
        return self.collection.stream_plans_range(*self.stream_range)


@dataclass(frozen=True)
class SegmentedShardView:
    """Per-board view of a segmented deployment (timing/power bookkeeping).

    A segmented collection's shards are not frozen stream slices — segment
    boundaries move under ingest/compaction — so the fleet recomputes these
    views per collection generation: shard ``i`` owns partition streams
    ``[start, stop)`` of *every* segment (core ``p`` scans its partition of
    each segment back to back; the delta snapshot rides with partition 0).
    """

    shard_id: int
    stream_range: "tuple[int, int]"
    n_streams: int
    nnz: int
    timing: AcceleratorTiming
    power_w: float


@dataclass(frozen=True)
class ShardedResult:
    """One scatter-gather query across every shard."""

    topk: TopKResult
    shard_timings: "tuple[AcceleratorTiming, ...]"
    host_overhead_s: float
    dataflow: DataflowStats
    power_w: float

    @property
    def latency_s(self) -> float:
        """Slowest shard's makespan plus one host invocation."""
        makespans = [t.makespan_s for t in self.shard_timings]
        return (max(makespans) if makespans else 0.0) + self.host_overhead_s

    @property
    def energy_j(self) -> float:
        """Fleet energy for the query (all boards powered for the gather)."""
        return self.power_w * self.latency_s


class ShardedEngine(MutableEngineMixin):
    """A fleet of simulated boards row-sharding one embedding collection.

    Mutation methods (``ingest``/``update``/``delete``/``seal``/``compact``)
    come from :class:`~repro.core.segments.MutableEngineMixin` and require
    a segmented collection.
    """

    def __init__(
        self,
        matrix,
        n_shards: int,
        design: AcceleratorDesign | None = None,
        cores_per_shard: int | None = None,
        hbm: HBMConfig = ALVEO_U280_HBM,
        uram: URAMSpec = ALVEO_U280_URAM,
        constants: CalibrationConstants = CALIBRATION,
        kernel: "str | None" = None,
    ):
        """Shard a collection across ``n_shards`` boards.

        Parameters
        ----------
        matrix:
            Either an already-compiled
            :class:`~repro.core.collection.CompiledCollection` — in aligned
            mode its encoded streams are dealt to shards as slices, with no
            re-encode — or the raw sparse embedding collection
            (CSRMatrix / SciPy / dense), which is compiled first.
        n_shards:
            Number of boards.  In aligned mode it must not exceed
            ``design.cores`` (each shard needs at least one stream).
        design:
            Accelerator design point, as for
            :class:`repro.core.engine.TopKSpmvEngine`.
        cores_per_shard:
            ``None`` selects aligned mode (see module docstring); an integer
            gives every shard its own full board with that many cores.
        kernel:
            Batch-query kernel backend (see :mod:`repro.core.kernels`),
            resolved per segment; a bit-neutral performance knob, ``None``
            defers to ``$REPRO_KERNEL``.
        """
        self.n_shards = check_positive_int(n_shards, "n_shards")
        self.constants = constants
        self.kernel = kernel
        self.cores_per_shard = (
            None
            if cores_per_shard is None
            else check_positive_int(cores_per_shard, "cores_per_shard")
        )

        from repro.core.collection import check_design_compatible, resolve_design
        from repro.core.engine import as_csr_matrix

        collection = None
        self._segmented = isinstance(matrix, SegmentedCollection)
        self._matrix = None
        if self._segmented:
            if self.cores_per_shard is not None:
                raise ConfigurationError(
                    "cores_per_shard re-encodes every row slice, which a "
                    "mutable segmented collection cannot afford; use aligned "
                    "mode (cores_per_shard=None)"
                )
            if design is not None and design != matrix.design:
                raise ConfigurationError(
                    f"collection was compiled for {matrix.design.name!r}; "
                    f"cannot shard it as {design.name!r} — recompile instead"
                )
            collection = matrix
            self.design = matrix.design
            n_cols = matrix.n_cols
            if self.n_shards > self.design.cores:
                raise ConfigurationError(
                    f"aligned mode cannot spread {self.design.cores} partition "
                    f"streams over {self.n_shards} shards; lower n_shards"
                )
        elif isinstance(matrix, CompiledCollection):
            check_design_compatible(matrix, design, "shard")
            collection = matrix
            self._matrix = collection.matrix
            self.design = collection.design
            n_cols = self._matrix.n_cols
        else:
            self._matrix = as_csr_matrix(matrix)
            self.design = resolve_design(self._matrix, design)
            n_cols = self._matrix.n_cols

        # Validate the boards can hold the query vector *before* paying for
        # any (potentially long) build.
        shard_cores = (
            self.design.cores if self.cores_per_shard is None else self.cores_per_shard
        )
        check_vector_fits(
            vector_size=max(1, n_cols),
            cores=shard_cores,
            lanes=self.design.layout.lanes,
            x_bits=32,
            spec=uram,
        )

        if self.cores_per_shard is None and collection is None:
            # Aligned mode consumes the standard single-board artifact.
            collection = compile_collection(self._matrix, self.design)
        #: The parent compiled artifact; ``None`` only in full-board mode
        #: from a raw matrix (each shard then owns its own collection).
        #: Note full-board mode re-partitions every row slice across its own
        #: cores, so it always re-encodes — even from a compiled artifact.
        self.collection = collection

        # What the one query driver sweeps (see module docstring).
        if self._segmented:
            self._hbm = hbm
            self._shards = None
            self._shard_views: "list[SegmentedShardView] | None" = None
            self._shard_generation = None
            self._query_view = collection
        elif self.cores_per_shard is None:
            self._shards = self._slice_aligned_shards(hbm, constants)
            self._query_view = SegmentedCollection.from_collection(collection)
        else:
            self._shards, self._query_view = self._compile_full_board_shards(
                hbm, constants
            )

    @property
    def shards(self) -> list:
        """Per-board shards: frozen stream slices, or per-generation views."""
        if self._segmented:
            return self._segmented_shards()
        return self._shards

    @property
    def matrix(self) -> CSRMatrix:
        """The original float64 collection (live logical rows if segmented)."""
        if self._matrix is not None:
            return self._matrix
        return self.collection.matrix

    @property
    def segmented(self) -> bool:
        """Whether this fleet serves a mutable segmented collection."""
        return self._segmented

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def _slice_aligned_shards(
        self, hbm: HBMConfig, constants: CalibrationConstants
    ) -> "list[EngineShard]":
        """Deal the compiled artifact's streams to shards — zero re-encode.

        Each shard's packet buffers are slices of the parent collection and
        its plans resolve through the parent's cache, so sharding an
        already-compiled (or loaded) collection costs only timing/power
        bookkeeping.
        """
        design = self.design
        collection = self.collection
        n_parts = collection.n_partitions
        if self.n_shards > n_parts:
            raise ConfigurationError(
                f"aligned mode cannot spread {n_parts} partition streams "
                f"over {self.n_shards} shards; lower n_shards or set "
                "cores_per_shard"
            )
        shards = []
        for shard_id, deal in enumerate(partition_rows(n_parts, self.n_shards)):
            shard_matrix = collection.stream_slice(deal.start, deal.stop)
            accelerator = TopKSpmvAccelerator(design, hbm, constants)
            timing = accelerator.timing_from_packets(
                [s.n_packets for s in shard_matrix.streams], nnz=shard_matrix.nnz
            )
            board = replace(design, cores=max(1, len(shard_matrix.streams)))
            shards.append(
                EngineShard(
                    shard_id=shard_id,
                    encoded=shard_matrix,
                    timing=timing,
                    power_w=estimate_fpga_power_w(board, constants),
                    collection=collection,
                    stream_range=(deal.start, deal.stop),
                )
            )
        return shards

    def _compile_full_board_shards(
        self, hbm: HBMConfig, constants: CalibrationConstants
    ) -> "tuple[list[EngineShard], SegmentedCollection]":
        """One compiled collection per shard: each board re-partitions its
        row slice across its own ``cores_per_shard`` cores.  Also returns
        the query view: one segment per shard, keyed by its global rows."""
        design = replace(
            self.design,
            name=f"{self.design.base_name} {self.cores_per_shard}C",
            cores=self.cores_per_shard,
        )
        shards, segments = [], []
        for shard_id, part in enumerate(
            partition_rows(self.matrix.n_rows, self.n_shards)
        ):
            local = compile_collection(
                self.matrix.row_slice(part.start, part.stop), design
            )
            shard_matrix = BSCSRMatrix(
                streams=local.encoded.streams,
                row_offsets=local.encoded.row_offsets + part.start,
                n_rows=self.matrix.n_rows,
                n_cols=self.matrix.n_cols,
            )
            accelerator = TopKSpmvAccelerator(design, hbm, constants)
            timing = accelerator.timing_from_packets(
                [s.n_packets for s in shard_matrix.streams], nnz=local.nnz
            )
            shards.append(
                EngineShard(
                    shard_id=shard_id,
                    encoded=shard_matrix,
                    timing=timing,
                    power_w=estimate_fpga_power_w(design, constants),
                    collection=local,
                    stream_range=(0, local.n_partitions),
                )
            )
            if part.n_rows:
                segments.append(
                    Segment(
                        artifact=local,
                        keys=np.arange(part.start, part.stop),
                        live=np.ones(part.n_rows, dtype=bool),
                    )
                )
        return shards, SegmentedCollection(design, self.matrix.n_cols, segments)

    def _segmented_shards(self) -> "list[SegmentedShardView]":
        """Per-shard timing/power of the current generation (lazy)."""
        collection = self.collection
        if (
            self._shard_views is not None
            and self._shard_generation == collection.generation
        ):
            return self._shard_views
        from repro.core.engine import _segmented_packets

        packets, _ = _segmented_packets(collection)
        accelerator = TopKSpmvAccelerator(self.design, self._hbm, self.constants)
        views = []
        for shard_id, deal in enumerate(
            partition_rows(max(1, len(packets)), self.n_shards)
        ):
            own = packets[deal.start : deal.stop]
            nnz = sum(
                s.artifact.encoded.streams[p].nnz
                for s in collection.segments
                for p in range(deal.start, min(deal.stop, s.artifact.n_partitions))
            )
            delta = collection.compiled_delta()
            if delta is not None and deal.start == 0:
                nnz += delta.nnz
            board = replace(self.design, cores=max(1, len(own)))
            views.append(
                SegmentedShardView(
                    shard_id=shard_id,
                    stream_range=(deal.start, deal.stop),
                    n_streams=len(own),
                    nnz=nnz,
                    timing=accelerator.timing_from_packets(own, nnz=nnz),
                    power_w=estimate_fpga_power_w(board, self.constants),
                )
            )
        self._shard_views = views
        self._shard_generation = collection.generation
        return views

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def query(self, x: np.ndarray, top_k: int) -> ShardedResult:
        """One scatter-gather Top-K query across every shard.

        A one-row :meth:`query_batch`.  Every shard scans its rows (on a
        segmented collection, its partition range of every segment), and
        the result is the global Top-K fold — identical to the unsharded
        engine in either mode, so sharding is a pure capacity knob.
        """
        batch = self.query_batch(self._check_query(x)[None, :], top_k)
        return ShardedResult(
            topk=batch.topk[0],
            shard_timings=tuple(s.timing for s in self.shards),
            host_overhead_s=self.constants.host_overhead_s,
            dataflow=batch.dataflow[0],
            power_w=self.total_power_w,
        )

    def query_batch(self, queries: np.ndarray, top_k: int) -> BatchResult:
        """Serve a query block through the one query driver.

        Batch latency mirrors the single-board model per shard — ``Q`` times
        the slowest shard's makespan plus one host invocation (shards scan
        concurrently; consecutive scans overlap the host round-trip).
        """
        top_k = check_positive_int(top_k, "top_k")
        queries = self._check_query_block(queries)
        n_queries = queries.shape[0]
        out = self._run_segmented(queries, top_k)
        seconds = n_queries * self.makespan_s + self.constants.host_overhead_s
        return BatchResult(
            topk=out.results,
            seconds=seconds,
            queries_per_second=n_queries / seconds if seconds else 0.0,
            energy_j=self.total_power_w * seconds,
            dataflow=tuple(out.stats_per_query()),
        )

    def query_exact(self, x: np.ndarray, top_k: int) -> TopKResult:
        """Golden float64 reference on the original (unsharded) matrix."""
        return exact_topk_spmv(self.matrix, self._check_query(x), top_k)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def makespan_s(self) -> float:
        """Slowest shard's stream time for one query."""
        return max(s.timing.makespan_s for s in self.shards)

    @property
    def latency_s(self) -> float:
        """Modelled scatter-gather latency of a single query."""
        return self.makespan_s + self.constants.host_overhead_s

    @property
    def total_power_w(self) -> float:
        """Fleet power: every shard board plus nothing shared."""
        return sum(s.power_w for s in self.shards)

    def describe(self) -> str:
        """Multi-line summary of the sharded deployment."""
        mode = (
            "aligned streams"
            if self.cores_per_shard is None
            else f"{self.cores_per_shard} cores/shard"
        )
        lines = [
            f"{self.n_shards} shards ({mode}) of {self.design.describe()}",
            f"matrix: {self.matrix.n_rows} rows x {self.matrix.n_cols} cols, "
            f"{self.matrix.nnz} non-zeros",
        ]
        for shard in self.shards:
            lines.append(
                f"  shard {shard.shard_id}: {shard.n_streams} streams, "
                f"{shard.nnz} nnz, makespan {shard.timing.makespan_s * 1e3:.3f} ms"
            )
        lines.append(
            f"scatter-gather latency: {self.latency_s * 1e3:.3f} ms, "
            f"fleet power: {self.total_power_w:.1f} W"
        )
        return "\n".join(lines)

    def _check_query(self, x: np.ndarray) -> np.ndarray:
        return check_query_vector(x, self._query_view.n_cols)

    def _check_query_block(self, queries: np.ndarray) -> np.ndarray:
        return check_query_block(queries, self._query_view.n_cols)
