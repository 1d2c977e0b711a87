"""High-level public API: the end-to-end simulated accelerator.

:class:`TopKSpmvEngine` is what a downstream user touches: load an embedding
collection once (partitioning + BS-CSR encoding + URAM feasibility check),
then issue Top-K queries.  Every query runs on the *quantised* values and
returns the exact global Top-K of the quantised scores, together with the
simulated latency, throughput and power of the modelled board.

The paper's per-core approximation (each core keeps its own depth-``k``
scratchpad and the host merges the ``k·c`` candidates, Section III-A) is
the hardware's, not the answer's: :meth:`TopKSpmvEngine.query_candidates`
returns those per-core lists, and
:func:`~repro.core.approx.merge_topk_candidates` merges them at any ``K``.

The engine serves frozen and segmented collections alike, including the
mutation facade (``ingest``/``update``/``delete``/``seal``/``compact``,
segmented only).  :class:`~repro.serving.sharded.ShardedEngine` is this
engine with a different board model — a fleet of boards — and nothing else.

Example
-------
>>> import numpy as np
>>> from repro import TopKSpmvEngine, PAPER_DESIGNS
>>> from repro.data.synthetic import synthetic_embeddings
>>> matrix = synthetic_embeddings(n_rows=10_000, n_cols=512, avg_nnz=20, seed=7)
>>> engine = TopKSpmvEngine(matrix, design=PAPER_DESIGNS["20b"])
>>> x = np.abs(np.random.default_rng(0).standard_normal(512))
>>> result = engine.query(x / np.linalg.norm(x), top_k=10)
>>> len(result.topk)
10

Batched queries
---------------
:meth:`TopKSpmvEngine.query_batch` takes a ``(Q, n_cols)`` block and runs it
through the one query driver,
:func:`~repro.core.kernels.segmented.run_segmented`: a frozen artifact is
served as a pristine one-segment collection, swept once for the whole block
on a pluggable kernel backend (:mod:`repro.core.kernels`) into one global
depth-``K`` scratchpad per query.  :meth:`~TopKSpmvEngine.query` is the same
path with a one-row block, so looping it is bit-identical and merely pays
the per-call cost ``Q`` times:

>>> X = np.abs(np.random.default_rng(1).standard_normal((64, 512)))
>>> X /= np.linalg.norm(X, axis=1, keepdims=True)
>>> batch = engine.query_batch(X, top_k=10)
>>> len(batch), len(batch.dataflow)        # per-query topk and stats
(64, 64)
>>> batch.queries_per_second > 0
True
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.dataflow import (
    DataflowStats,
    StreamPlan,
    simulate_multicore_batch,
)
from repro.core.reference import TopKResult, exact_topk_spmv
from repro.core.segments import SegmentedCollection
from repro.errors import ConfigurationError
from repro.formats.bscsr import BSCSRMatrix
from repro.formats.csr import CSRMatrix
from repro.hw.calibration import CALIBRATION, CalibrationConstants
from repro.hw.design import AcceleratorDesign
from repro.hw.hbm import ALVEO_U280_HBM, HBMConfig
from repro.hw.multicore import AcceleratorTiming, TopKSpmvAccelerator
from repro.hw.power import estimate_fpga_power_w
from repro.hw.uram import ALVEO_U280_URAM, URAMSpec, check_vector_fits
from repro.utils.validation import check_positive_int

__all__ = [
    "EngineResult",
    "BatchResult",
    "TopKSpmvEngine",
    "as_csr_matrix",
    "check_query_vector",
    "check_query_block",
]


def check_query_vector(x: np.ndarray, n_cols: int) -> np.ndarray:
    """Validate one dense query against the collection width."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (n_cols,):
        raise ConfigurationError(
            f"query must have shape ({n_cols},), got {x.shape}"
        )
    return x


def check_query_block(queries: np.ndarray, n_cols: int) -> np.ndarray:
    """Validate a ``(Q, n_cols)`` query block (1-D input is promoted)."""
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if queries.ndim != 2 or queries.shape[1] != n_cols:
        raise ConfigurationError(
            f"queries must have shape (Q, {n_cols}), got {queries.shape}"
        )
    return queries


def as_csr_matrix(matrix) -> CSRMatrix:
    """Coerce a CSRMatrix / SciPy sparse / dense 2-D array into CSRMatrix."""
    if isinstance(matrix, CSRMatrix):
        return matrix
    if hasattr(matrix, "tocsr"):
        return CSRMatrix.from_scipy(matrix)
    dense = np.asarray(matrix)
    if dense.ndim == 2:
        return CSRMatrix.from_dense(dense)
    raise ConfigurationError(
        f"matrix must be CSRMatrix, scipy sparse or dense 2-D array, "
        f"got {type(matrix).__name__}"
    )


@dataclass(frozen=True)
class BatchResult:
    """Result of a back-to-back batch of queries on one board.

    ``topk`` and ``dataflow`` are per-query (index-aligned with the input
    block); the timing/energy fields describe the whole batch.
    """

    topk: "list[TopKResult]"
    seconds: float
    queries_per_second: float
    energy_j: float
    dataflow: "tuple[DataflowStats, ...]" = ()

    def __len__(self) -> int:
        return len(self.topk)

    @property
    def dataflow_totals(self) -> DataflowStats:
        """Counters merged over every query of the batch."""
        totals = DataflowStats()
        for stats in self.dataflow:
            totals = totals.merge(stats)
        return totals


@dataclass(frozen=True)
class EngineResult:
    """Everything one simulated query produces."""

    topk: TopKResult
    timing: AcceleratorTiming
    dataflow: DataflowStats
    power_w: float

    @property
    def latency_s(self) -> float:
        """Simulated end-to-end query latency in seconds."""
        return self.timing.total_seconds

    @property
    def throughput_nnz_per_s(self) -> float:
        """Simulated non-zeros per second."""
        return self.timing.throughput_nnz_per_s

    @property
    def energy_j(self) -> float:
        """Simulated board energy for the query."""
        return self.power_w * self.latency_s


class TopKSpmvEngine:
    """Simulated multi-core Top-K SpMV accelerator over a loaded collection.

    Mutation methods (``ingest``/``update``/``delete``/``seal``/``compact``)
    delegate to a segmented collection; a frozen one refuses them.
    """

    def __init__(
        self,
        matrix,
        design: AcceleratorDesign | None = None,
        hbm: HBMConfig = ALVEO_U280_HBM,
        uram: URAMSpec = ALVEO_U280_URAM,
        constants: CalibrationConstants = CALIBRATION,
        kernel: "str | None" = None,
    ):
        """Attach a board to a collection, compiling it if necessary.

        Parameters
        ----------
        matrix:
            An already-compiled
            :class:`~repro.core.collection.CompiledCollection` (its encoded
            streams and plans are reused verbatim — nothing is rebuilt), a
            mutable :class:`~repro.core.segments.SegmentedCollection`, or
            the raw sparse embedding collection
            (:class:`repro.formats.csr.CSRMatrix`, SciPy sparse, dense
            array), which is run through
            :func:`~repro.core.collection.compile_collection` first.
        design:
            Accelerator design point; defaults to the paper's best (20-bit
            fixed point, 32 cores).  If the matrix is wider than the
            design's ``max_columns``, the layout is re-solved for the real
            width (fewer lanes per packet).  Must be omitted (or equal)
            when a compiled collection is passed — the artifact already
            fixes the design it was quantised with.
        hbm, uram, constants:
            Board models; defaults model the Alveo U280.
        kernel:
            Batch-query kernel backend name (see :mod:`repro.core.kernels`);
            ``None`` defers to ``$REPRO_KERNEL`` or the registry default.
            Every backend returns bit-identical results — this is a pure
            software-performance knob.
        """
        from repro.core.collection import (
            CompiledCollection,
            check_design_compatible,
            compile_collection,
            resolve_design,
        )

        compiled = isinstance(matrix, (CompiledCollection, SegmentedCollection))
        if compiled:
            check_design_compatible(matrix, design, "serve")
            design = matrix.design
        else:
            matrix = as_csr_matrix(matrix)
            design = resolve_design(matrix, design)
        self._segmented = isinstance(matrix, SegmentedCollection)
        self.constants = constants
        # Validate the board can hold the query vector *before* paying for
        # the (potentially long) build.
        check_vector_fits(
            vector_size=max(1, matrix.n_cols),
            cores=self._board_cores(design),
            lanes=design.layout.lanes,
            x_bits=32,
            spec=uram,
        )
        self.collection = matrix if compiled else compile_collection(matrix, design)
        self.kernel = kernel
        # The one query driver serves every collection: a frozen artifact is
        # a pristine one-segment collection (keys and mask only, no copy).
        self._query_view = (
            self.collection if self._segmented
            else SegmentedCollection.from_collection(self.collection)
        )
        self.accelerator = TopKSpmvAccelerator(design, hbm, constants)
        self._power_w = estimate_fpga_power_w(design, constants)
        self._by_generation: dict = {}

    @classmethod
    def from_collection(
        cls,
        collection,
        hbm: HBMConfig = ALVEO_U280_HBM,
        uram: URAMSpec = ALVEO_U280_URAM,
        constants: CalibrationConstants = CALIBRATION,
        kernel: "str | None" = None,
    ) -> "TopKSpmvEngine":
        """Serve a pre-compiled (or loaded) collection on a simulated board."""
        return cls(
            collection, hbm=hbm, uram=uram, constants=constants, kernel=kernel
        )

    # The query-independent state lives on the compiled artifact; the engine
    # only adds the board (timing + power) on top.
    @property
    def matrix(self) -> CSRMatrix:
        """The original float64 collection (live logical rows if segmented)."""
        return self.collection.matrix

    @property
    def design(self) -> AcceleratorDesign:
        """The design the collection was compiled for."""
        return self.collection.design

    @property
    def segmented(self) -> bool:
        """Whether this engine serves a mutable segmented collection."""
        return self._segmented

    @property
    def encoded(self) -> BSCSRMatrix:
        """The partitioned BS-CSR streams (frozen collections only)."""
        if self._segmented:
            raise ConfigurationError(
                "a segmented collection has no single encoded matrix; "
                "inspect collection.segments instead"
            )
        return self.collection.encoded

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def query(self, x: np.ndarray, top_k: int) -> EngineResult:
        """Run one Top-K query through the simulated hardware.

        A one-row :meth:`query_batch`: the same driver, kernel backend and
        counters, so the two can never disagree.  Indices are positions in
        the (live logical) matrix; on a segmented collection translate them
        to stable row keys with
        ``engine.collection.keys_for(result.topk.indices)``.
        """
        batch = self.query_batch(self._check_query(x)[None, :], top_k)
        return EngineResult(
            topk=batch.topk[0],
            timing=self.timing,
            dataflow=batch.dataflow[0],
            power_w=self.power_w,
        )

    def query_candidates(self, x: np.ndarray) -> tuple[list[TopKResult], DataflowStats]:
        """Run the paper's cores once and return the raw k·c candidate lists.

        This is the hardware's per-core approximation (Section III-A): each
        core keeps only its own top ``local_k``.  Merging the lists with
        :func:`repro.core.approx.merge_topk_candidates` at any
        ``top_k <= local_k`` gives :meth:`query`'s answer; deeper merges
        are the approximation Table I and Figure 7 measure.
        ``tracker_accepts`` here are per-core scratchpad accepts.
        """
        self._frozen_only("query_candidates")
        candidates, stats = self._candidate_block(self._check_query(x)[None, :])
        return candidates[0], stats[0]

    def query_exact(self, x: np.ndarray, top_k: int) -> TopKResult:
        """Golden float64 reference on the *original* (unquantised) matrix."""
        x = self._check_query(x)
        return exact_topk_spmv(self.matrix, x, top_k)

    def query_candidates_batch(
        self, queries: np.ndarray
    ) -> tuple[list[list[TopKResult]], list[DataflowStats]]:
        """Run the cores once against a query block; raw candidates per query.

        The block is validated and quantised once; every partition stream is
        walked once for the whole block (see
        :func:`repro.core.dataflow.simulate_multicore_batch`).  ``result[q]``
        holds query ``q``'s per-core k-candidate lists with global row ids.
        """
        self._frozen_only("query_candidates_batch")
        candidates, stats = self._candidate_block(self._check_query_block(queries))
        return list(candidates), stats

    def _candidate_block(self, queries: np.ndarray):
        """The cores' dense candidates + per-query stats for a checked block."""
        from repro.core.kernels import resolve_kernel_name

        x_uram = self.design.quantize_query(queries)
        # Only lower/pass the contraction operand when the resolved backend
        # can actually use it (see CompiledCollection.wants_contraction_
        # operand for the policy) — gather/streaming engines and gateless
        # auto never pay the operand's O(nnz) build or memory cost.
        operand = (
            self.collection.contraction_operand()
            if self.collection.wants_contraction_operand(
                resolve_kernel_name(self.kernel)
            )
            else None
        )
        return simulate_multicore_batch(
            self.encoded,
            x_uram,
            local_k=self.design.local_k,
            accumulate_dtype=self.design.accumulate_dtype,
            plans=self.stream_plans(),
            kernel=self.kernel,
            operand=operand,
            row_map=self.collection.row_map,
        )

    def query_batch(self, queries: np.ndarray, top_k: int) -> "BatchResult":
        """Serve a batch of queries back-to-back on the simulated board.

        The whole ``(Q, n_cols)`` block is validated and quantised once and
        runs through :func:`~repro.core.kernels.segmented.run_segmented`:
        every segment (a frozen artifact is one) is swept once per *batch*
        into one global depth-``top_k`` scratchpad per query.  The answer
        is the exact Top-K of the quantised scores at any ``top_k``, and
        ``tracker_accepts`` counts accepts into that global scratchpad.
        :meth:`query` is this call with one row.

        The modelled hardware still streams the matrix once per query
        (queries are independent scans); the batch latency is therefore
        ``Q x makespan`` plus a single host invocation — consecutive scans
        overlap the host round-trip, which is how a real deployment would
        drive the board (a fleet's boards scan concurrently, so its makespan
        is the slowest board's).
        """
        from repro.core.kernels import run_segmented

        top_k = check_positive_int(top_k, "top_k")
        queries = self._check_query_block(queries)
        out = run_segmented(
            self._query_view,
            self.design.quantize_query(queries),
            top_k,
            kernel=self.kernel,
        )
        seconds = self.batch_seconds(len(queries))
        return BatchResult(
            topk=out.results,
            seconds=seconds,
            queries_per_second=len(queries) / seconds if seconds else 0.0,
            energy_j=self.power_w * seconds,
            dataflow=tuple(out.stats_per_query()),
        )

    def _frozen_only(self, action: str) -> None:
        if self._segmented:
            raise ConfigurationError(
                f"{action} exposes the per-core candidate sweep, which only "
                "exists for frozen collections (query/query_batch serve "
                "every collection)"
            )

    # ------------------------------------------------------------------ #
    # Mutation (segmented collections only)
    # ------------------------------------------------------------------ #
    def _mutable(self) -> SegmentedCollection:
        if not self._segmented:
            raise ConfigurationError(
                "this deployment serves a frozen CompiledCollection; build "
                "it from a SegmentedCollection to ingest/update/delete/compact"
            )
        return self.collection

    def ingest(self, rows) -> np.ndarray:
        """Append rows to the served collection; returns their stable keys."""
        return self._mutable().ingest(rows)

    def update(self, key: int, row) -> None:
        """Replace one served row, keeping its stable key."""
        self._mutable().update(key, row)

    def delete(self, keys) -> int:
        """Tombstone served rows by stable key; returns the count deleted."""
        return self._mutable().delete(keys)

    def seal(self) -> bool:
        """Freeze the delta buffer into a new immutable segment."""
        return self._mutable().seal()

    def compact(self, **kwargs) -> int:
        """Rewrite segment runs and drop tombstoned rows (see collection)."""
        return self._mutable().compact(**kwargs)

    # ------------------------------------------------------------------ #
    # The board model
    # ------------------------------------------------------------------ #
    def _per_generation(self, name: str, build):
        """``build()`` memoised until the served collection's generation
        moves (a frozen artifact's one-segment view never moves)."""
        generation = self._query_view.generation
        cached = self._by_generation.get(name)
        if cached is None or cached[0] != generation:
            cached = self._by_generation[name] = (generation, build())
        return cached[1]

    def _board_cores(self, design: AcceleratorDesign) -> int:
        """Cores per board, each holding its own copy of the query vector."""
        return design.cores

    @property
    def timing(self) -> AcceleratorTiming:
        """Query-independent timing of one full scan.

        Core ``p`` streams partition ``p`` of every segment back to back (a
        frozen artifact is one segment; the delta snapshot rides on core 0),
        so per-core packet counts sum across segments; tombstoned rows still
        stream until a compaction drops them — the honest LSM
        read-amplification cost, and exactly what ``compact()`` recovers.
        """

        def scan() -> AcceleratorTiming:
            packets, nnz = _partition_load(self._query_view)
            return self.accelerator.timing_from_packets(packets, nnz=sum(nnz))

        return self._per_generation("timing", scan)

    @property
    def makespan_s(self) -> float:
        """Stream time of one query on the modelled board."""
        return self.timing.makespan_s

    @property
    def latency_s(self) -> float:
        """Modelled latency of a single query (makespan + host invocation)."""
        return self.batch_seconds(1)

    def batch_seconds(self, n_queries: int) -> float:
        """Modelled service time of a ``n_queries`` batch: a function of the
        batch size alone, so a serving policy can fix a batch's completion
        when it dispatches it, before any data comes back."""
        return n_queries * self.makespan_s + self.constants.host_overhead_s

    @property
    def power_w(self) -> float:
        """Modelled board power of the configured design (all its cores,
        whatever the collection's partition count)."""
        return self._power_w

    def describe(self) -> str:
        """Multi-line summary of the loaded collection and design."""
        if self._segmented:
            lines = [
                self.collection.describe(),
                f"simulated query latency: "
                f"{self.timing.total_seconds * 1e3:.3f} ms, "
                f"power: {self.power_w:.1f} W",
            ]
            return "\n".join(lines)
        lines = [
            self.design.describe(),
            f"matrix: {self.matrix.n_rows} rows x {self.matrix.n_cols} cols, "
            f"{self.matrix.nnz} non-zeros",
            f"BS-CSR: {self.encoded.total_packets} packets, "
            f"{self.encoded.total_bytes / 1e6:.2f} MB across "
            f"{self.encoded.n_partitions} channels",
            f"simulated query latency: {self.timing.total_seconds * 1e3:.3f} ms, "
            f"power: {self.power_w:.1f} W",
        ]
        return "\n".join(lines)

    def stream_plans(self) -> "list[StreamPlan]":
        """Per-partition batch plans (the collection's shared lazy cache)."""
        self._frozen_only("stream_plans")
        return self.collection.stream_plans()

    def _check_query(self, x: np.ndarray) -> np.ndarray:
        return check_query_vector(x, self.collection.n_cols)

    def _check_query_block(self, queries: np.ndarray) -> np.ndarray:
        return check_query_block(queries, self.collection.n_cols)


def _partition_load(collection) -> "tuple[list[int], list[int]]":
    """Per-core packet and nnz counts of one scan of a segmented collection.

    Core ``p`` streams partition ``p`` of every segment back to back; the
    compiled delta snapshot (1 partition) streams on core 0.  Tombstoned
    rows are still encoded in their segments, so they are honestly counted
    until a compaction rewrites them away.
    """
    n_parts = max(
        (s.artifact.n_partitions for s in collection.segments), default=1
    )
    packets, nnz = [0] * n_parts, [0] * n_parts
    for segment in collection.segments:
        for p, stream in enumerate(segment.artifact.encoded.streams):
            packets[p] += stream.n_packets
            nnz[p] += stream.nnz
    delta = collection.compiled_delta()
    if delta is not None:
        packets[0] += delta.encoded.total_packets
        nnz[0] += delta.nnz
    return packets, nnz
