"""The compiled, query-independent half of the accelerator: one build pipeline.

The paper separates a one-time preprocessing phase — row partitioning across
HBM channels plus BS-CSR packing (Sections III-A/III-B) — from the streaming
query phase.  :class:`CompiledCollection` makes that split explicit in the
reproduction: it owns *everything* that does not depend on the query —

* the original float64 collection (kept for exact references and baselines);
* the resolved :class:`~repro.hw.design.AcceleratorDesign` (the layout/codec
  the values were quantised with);
* the per-partition BS-CSR streams as structure-of-arrays numpy buffers;
* a SHA-256 content digest identifying the artifact.

Only the first three are content.  Two derived caches are rebuilt on first
use and never stored, one per reader: the query driver's sorted run, decoded
straight from the packet streams, and the per-core candidate path's
:class:`~repro.core.dataflow.StreamPlan` list (with the contraction operand
lowered from it), which no query or mutation builds.

One shared pipeline (:func:`compile_collection`) builds it; every downstream
layer — :class:`~repro.core.engine.TopKSpmvEngine`,
:class:`~repro.serving.sharded.ShardedEngine`, the baselines, the CLI —
constructs *from* it instead of re-running partition/encode/plan logic.

``save``/``load`` persist the content as one uncompressed ``.npz`` with a
JSON header (see :func:`repro.formats.io.save_artifact`); saving builds no
plan and lowers no operand.  Loading performs no encoding: the stacked
packet buffers come back verbatim and per-partition streams are plain row
slices (views) of them, so a serving process restarts in I/O time rather
than re-encode time.
"""

from __future__ import annotations

from dataclasses import asdict, replace

import numpy as np

from repro.core.dataflow import StreamPlan, plan_stream
from repro.core.kernels.contraction import (
    ContractionOperand,
    codec_grid_bits,
    lower_plans,
)
from repro.core.placement import Placement, resolve_placement
from repro.errors import ConfigurationError, FormatError
from repro.formats.bscsr import BSCSRMatrix, BSCSRStream
from repro.formats.csr import CSRMatrix
from repro.formats.io import artifact_digest, load_artifact, save_artifact
from repro.hw.design import AcceleratorDesign, PAPER_DESIGNS

__all__ = [
    "CompiledCollection",
    "compile_collection",
    "resolve_design",
    "original_matrix",
    "Segment",
    "SegmentedCollection",
]

#: Artifact ``kind`` tag in the persisted header.
COLLECTION_KIND = "compiled-collection"


def __getattr__(name):
    # Lazy re-export of the mutable-collection layer: ``Segment`` and
    # ``SegmentedCollection`` are the collection API too, but live in
    # :mod:`repro.core.segments` (which imports this module).
    if name in ("Segment", "SegmentedCollection"):
        from repro.core import segments

        return getattr(segments, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def check_design_compatible(collection: "CompiledCollection", design, action: str) -> None:
    """Raise unless ``design`` matches what ``collection`` was compiled for.

    ``None`` always passes (the artifact's own design is used).  Comparison
    happens post-resolution: the artifact stores the auto-widened design, so
    re-passing the design it was compiled with is not a conflict.  Works on
    any collection with ``n_cols`` and ``design`` (frozen or segmented).
    """
    if design is not None and resolve_design(collection, design) != collection.design:
        raise ConfigurationError(
            f"collection was compiled for {collection.design.name!r}; "
            f"cannot {action} it as {design.name!r} — recompile instead"
        )


def original_matrix(matrix):
    """Unwrap a :class:`CompiledCollection` to its original float64 matrix.

    Anything else passes through unchanged.  Consumers that only need the
    unencoded collection (CPU/GPU baselines, exact references) use this so
    they accept the same compiled artifact the accelerator engines serve.
    """
    if isinstance(matrix, CompiledCollection):
        return matrix.matrix
    return matrix


def resolve_design(matrix: CSRMatrix, design: "AcceleratorDesign | None") -> AcceleratorDesign:
    """The design actually compiled against: default 20b, widened to fit M.

    If the matrix is wider than the design's ``max_columns``, the packet
    layout is re-solved for the real width (fewer lanes per packet) — the
    same rule every engine applied individually before this pipeline existed.
    """
    if design is None:
        design = PAPER_DESIGNS["20b"]
    if matrix.n_cols > design.max_columns:
        design = replace(design, max_columns=matrix.n_cols)
    return design


def compile_collection(
    matrix,
    design: "AcceleratorDesign | None" = None,
    n_partitions: "int | None" = None,
    placement=None,
) -> "CompiledCollection":
    """Partition + quantise + encode a collection: the one build pipeline.

    Parameters
    ----------
    matrix:
        The sparse embedding collection; any of
        :class:`~repro.formats.csr.CSRMatrix`, SciPy sparse, dense array.
    design:
        Accelerator design point; defaults to the paper's best (20-bit fixed
        point, 32 cores).  Widened automatically when the matrix is wider
        than ``design.max_columns``.
    n_partitions:
        Stream count override; defaults to ``design.cores`` (one stream per
        core / HBM channel).
    placement:
        Row→channel layout: ``None``/``"uniform"`` (original order, the
        default), a strategy name from
        :data:`~repro.core.placement.PLACEMENT_STRATEGIES`, or a
        :class:`~repro.core.placement.Placement`.  The permutation is
        applied *before* encoding and persisted (digest-covered) with the
        artifact; ``collection.matrix`` keeps the original row order and
        every engine inverse-maps results, so placement never changes
        top-k output — only channel balance and block-skip.
    """
    from repro.core.engine import as_csr_matrix  # deferred: engine imports us

    matrix = as_csr_matrix(matrix)
    design = resolve_design(matrix, design)
    n_parts = design.cores if n_partitions is None else n_partitions
    placement = resolve_placement(placement, matrix, n_parts)
    encode_input = matrix if placement is None else matrix.take_rows(placement.order)
    encoded = BSCSRMatrix.encode(
        encode_input,
        layout=design.layout,
        codec=design.codec,
        n_partitions=n_parts,
        rows_per_packet=design.effective_rows_per_packet,
        boundaries=None if placement is None else placement.boundaries,
    )
    return CompiledCollection(
        matrix=matrix, design=design, encoded=encoded, placement=placement
    )


class CompiledCollection:
    """One compiled, servable embedding collection (see module docstring).

    Construct via :func:`compile_collection` or :meth:`load`; the raw
    constructor only wires pre-built parts together.
    """

    def __init__(
        self,
        matrix: CSRMatrix,
        design: AcceleratorDesign,
        encoded: BSCSRMatrix,
        placement: "Placement | None" = None,
    ):
        if encoded.n_rows != matrix.n_rows or encoded.n_cols != matrix.n_cols:
            raise ConfigurationError(
                f"encoded shape ({encoded.n_rows}, {encoded.n_cols}) disagrees "
                f"with matrix shape {matrix.shape}"
            )
        if placement is not None and (
            placement.n_rows != matrix.n_rows
            or placement.n_partitions != encoded.n_partitions
        ):
            raise ConfigurationError(
                f"placement shape ({placement.n_rows} rows, "
                f"{placement.n_partitions} partitions) disagrees with the "
                f"encoded collection ({matrix.n_rows} rows, "
                f"{encoded.n_partitions} partitions)"
            )
        self.matrix = matrix
        self.design = design
        self.encoded = encoded
        self.placement = placement
        self._plans: "list[StreamPlan] | None" = None
        self._operand: "ContractionOperand | None" = None
        #: The query driver's precomputes of the artifact alone (its sorted
        #: run), shared by every collection wrapping it.
        self.derived: dict = {}

    # ------------------------------------------------------------------ #
    # Shape and size
    # ------------------------------------------------------------------ #
    @property
    def n_rows(self) -> int:
        """Collection size N."""
        return self.matrix.n_rows

    @property
    def n_cols(self) -> int:
        """Embedding dimension M."""
        return self.matrix.n_cols

    @property
    def nnz(self) -> int:
        """Genuine non-zeros stored across all partitions."""
        return self.encoded.nnz

    @property
    def n_partitions(self) -> int:
        """Partition streams (= cores = HBM channels on one board)."""
        return self.encoded.n_partitions

    @property
    def row_map(self) -> "np.ndarray | None":
        """Stream-position → original-row map the engines globalise through.

        ``None`` for identity placements: kernel-local indices plus the
        partition's global row offset already *are* original row ids.
        """
        return None if self.placement is None else self.placement.order

    def channel_stats(self) -> "dict[str, np.ndarray | float]":
        """Per-partition nnz/packet counts and the nnz imbalance ratio.

        ``imbalance`` is max/mean nnz across channels — 1.0 is a perfectly
        balanced board; the makespan core is ~``imbalance``x the average.
        """
        part_nnz = np.array([s.nnz for s in self.encoded.streams], dtype=np.int64)
        part_packets = np.array(
            [s.n_packets for s in self.encoded.streams], dtype=np.int64
        )
        part_rows = np.array([s.n_rows for s in self.encoded.streams], dtype=np.int64)
        mean_nnz = float(part_nnz.mean()) if len(part_nnz) else 0.0
        imbalance = float(part_nnz.max() / mean_nnz) if mean_nnz > 0 else 1.0
        return {
            "part_nnz": part_nnz,
            "part_packets": part_packets,
            "part_rows": part_rows,
            "imbalance": imbalance,
        }

    def describe(self) -> str:
        """Multi-line summary of the compiled artifact, including the
        per-channel nnz/packet histogram — skew is visible before and
        after tuning."""
        stats = self.channel_stats()
        part_nnz, part_packets = stats["part_nnz"], stats["part_packets"]
        placement_line = (
            "placement: uniform (original row order)"
            if self.placement is None
            else f"placement: {self.placement.strategy} (permuted rows)"
        )
        lines = [
            self.design.describe(),
            f"matrix: {self.n_rows} rows x {self.n_cols} cols, "
            f"{self.nnz} non-zeros",
            f"BS-CSR: {self.encoded.total_packets} packets, "
            f"{self.encoded.total_bytes / 1e6:.2f} MB across "
            f"{self.n_partitions} channels",
            placement_line,
            f"channel imbalance: max/mean nnz = {stats['imbalance']:.2f}x",
        ]
        peak = int(part_nnz.max()) if len(part_nnz) else 0
        for p in range(self.n_partitions):
            bar = "#" * (
                round(24 * int(part_nnz[p]) / peak) if peak else 0
            )
            lines.append(
                f"  ch {p:>3}: nnz {int(part_nnz[p]):>10}  "
                f"packets {int(part_packets[p]):>8}  |{bar}"
            )
        lines.append(f"digest: {self.digest[:16]}…")
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # Stream plans — the per-core candidate path's lazy cache
    # ------------------------------------------------------------------ #
    def stream_plans(self) -> "list[StreamPlan]":
        """All per-partition batch plans of the candidate path (built on
        first use, then cached); the query path never builds them."""
        if self._plans is None:
            self._plans = [plan_stream(s) for s in self.encoded.streams]
        return self._plans

    def contraction_grid_bits(self) -> "int | None":
        """Fraction bits of the design's value grid, without lowering.

        ``None`` (float32/exact codecs) means the contraction kernel's
        exactness gate can never pass for this collection — the candidate
        path uses this to skip the O(nnz) :meth:`contraction_operand` build
        for gateless designs.
        """
        return codec_grid_bits(self.design.codec)

    def wants_contraction_operand(self, kernel_name: str) -> bool:
        """Whether a *resolved* kernel name should be handed the operand.

        The operand-eligibility policy of the per-core candidate path:
        ``"contraction"`` and ``"auto"`` get the cached operand only when
        the design's codec grid could ever pass the exactness gate — a
        gateless design is guaranteed to fall back to gather with
        identical bits whether the operand is present or not (and the
        dataflow driver never re-lowers for it either), so nobody pays
        its O(nnz) build or memory cost.  Gather/streaming never take it,
        and no other path (query, save or load) builds it.
        """
        return (
            kernel_name in ("contraction", "auto")
            and self.contraction_grid_bits() is not None
        )

    def contraction_operand(self) -> ContractionOperand:
        """The collection-level CSR operand for the contraction kernel.

        Lowered from the stream plans on first use by the candidate path
        and shared by every consumer, like the plan cache it is derived
        from.  It is a cache, never persisted: :meth:`save` does not build
        it and :meth:`load` leaves it unbuilt.
        """
        if self._operand is None:
            plans = self.stream_plans()
            self._operand = lower_plans(plans, [self.design.codec] * len(plans))
        return self._operand

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    @property
    def digest(self) -> str:
        """SHA-256 content digest over every persisted buffer (cached)."""
        cached = getattr(self, "_digest", None)
        if cached is None:
            cached = self._digest = artifact_digest(self._payload_arrays())
        return cached

    def _payload_arrays(self) -> "dict[str, np.ndarray]":
        streams = self.encoded.streams
        lanes = self.design.layout.lanes
        if streams:
            new_row = np.concatenate([s.new_row for s in streams])
            ptr = np.concatenate([s.ptr for s in streams])
            idx = np.concatenate([s.idx for s in streams])
            val_raw = np.concatenate([s.val_raw for s in streams])
        else:
            new_row = np.zeros(0, dtype=bool)
            ptr = np.zeros((0, lanes), dtype=np.uint16)
            idx = np.zeros((0, lanes), dtype=np.int64)
            val_raw = np.zeros((0, lanes), dtype=np.uint64)
        packet_offsets = np.concatenate(
            [[0], np.cumsum([s.n_packets for s in streams], dtype=np.int64)]
        ).astype(np.int64)
        placement_arrays = (
            {}
            if self.placement is None
            # Digest-covered (these are primary payload arrays): a placed
            # artifact's identity includes its permutation.  Identity
            # placements persist nothing, so pre-placement artifacts and
            # their digests are byte-identical.
            else {
                "placement_order": self.placement.order,
                "placement_boundaries": self.placement.boundaries,
            }
        )
        return {
            **placement_arrays,
            "matrix_indptr": self.matrix.indptr,
            "matrix_indices": self.matrix.indices,
            "matrix_data": self.matrix.data,
            "row_offsets": np.asarray(self.encoded.row_offsets, dtype=np.int64),
            "packet_offsets": packet_offsets,
            "part_n_rows": np.array([s.n_rows for s in streams], dtype=np.int64),
            "part_nnz": np.array([s.nnz for s in streams], dtype=np.int64),
            "new_row": new_row,
            "ptr": ptr,
            "idx": idx,
            "val_raw": val_raw,
        }

    def _header(self) -> dict:
        return {
            "design": asdict(self.design),
            "codec": self.design.codec.name,
            "layout": {
                "lanes": self.design.layout.lanes,
                "ptr_bits": self.design.layout.ptr_bits,
                "idx_bits": self.design.layout.idx_bits,
                "val_bits": self.design.layout.val_bits,
                "packet_bits": self.design.layout.packet_bits,
            },
            "rows_per_packet": self.design.effective_rows_per_packet,
            "n_rows": self.n_rows,
            "n_cols": self.n_cols,
            "nnz": self.nnz,
            "n_partitions": self.n_partitions,
            "placement": (
                None
                if self.placement is None
                else {"strategy": self.placement.strategy}
            ),
        }

    def save(self, path) -> None:
        """Persist the artifact's content as one ``.npz`` with a JSON header.

        The file lands at exactly ``path`` (no ``.npz`` suffix is appended).
        No derived cache is built or stored.
        """
        self._digest = save_artifact(
            path, COLLECTION_KIND, self._header(), self._payload_arrays()
        )

    @classmethod
    def load(cls, path, verify: bool = True) -> "CompiledCollection":
        """Reload an artifact saved by :meth:`save` — no re-encode.

        Per-partition streams are row slices (numpy views) of the stacked
        packet buffers exactly as stored; the build pipeline is never
        invoked.  ``verify`` (default) re-derives the content digest and
        raises :class:`~repro.errors.FormatError` on mismatch.  A version-2
        file from an older build loads too; its stored contraction operand
        is dropped unread and lowered again on first use.
        """
        header, arrays = load_artifact(path, COLLECTION_KIND, verify=verify)
        try:
            return cls._from_payload(path, header, arrays)
        except (KeyError, TypeError) as exc:
            raise FormatError(
                f"{path} has an incomplete collection header or buffer set"
            ) from exc

    @classmethod
    def _from_payload(cls, path, header: dict, arrays: "dict[str, np.ndarray]") -> "CompiledCollection":
        design = AcceleratorDesign(**header["design"])
        layout_fields = header["layout"]
        codec_name = header["codec"]
        n_partitions = int(header["n_partitions"])
        if design.codec.name != codec_name:
            raise FormatError(
                f"{path}: header codec {codec_name!r} disagrees with the "
                f"design's codec {design.codec.name!r}"
            )
        actual_layout = {
            "lanes": design.layout.lanes,
            "ptr_bits": design.layout.ptr_bits,
            "idx_bits": design.layout.idx_bits,
            "val_bits": design.layout.val_bits,
            "packet_bits": design.layout.packet_bits,
        }
        if actual_layout != layout_fields:
            raise FormatError(
                f"{path}: header layout {layout_fields} disagrees with the "
                f"design's layout {actual_layout}"
            )
        matrix = CSRMatrix(
            indptr=arrays["matrix_indptr"],
            indices=arrays["matrix_indices"],
            data=arrays["matrix_data"],
            n_cols=int(header["n_cols"]),
        )
        offsets = arrays["packet_offsets"]
        if len(offsets) != n_partitions + 1:
            raise FormatError(
                f"{path}: {len(offsets)} packet offsets for "
                f"{n_partitions} partitions"
            )
        streams = []
        for i in range(n_partitions):
            lo, hi = int(offsets[i]), int(offsets[i + 1])
            streams.append(
                BSCSRStream(
                    layout=design.layout,
                    codec=design.codec,
                    n_rows=int(arrays["part_n_rows"][i]),
                    n_cols=matrix.n_cols,
                    nnz=int(arrays["part_nnz"][i]),
                    new_row=arrays["new_row"][lo:hi],
                    ptr=arrays["ptr"][lo:hi],
                    idx=arrays["idx"][lo:hi],
                    val_raw=arrays["val_raw"][lo:hi],
                    rows_per_packet=int(header["rows_per_packet"]),
                )
            )
        encoded = BSCSRMatrix(
            streams=streams,
            row_offsets=arrays["row_offsets"],
            n_rows=matrix.n_rows,
            n_cols=matrix.n_cols,
        )
        placement = None
        if "placement_order" in arrays:
            meta = header.get("placement") or {}
            placement = Placement(
                order=arrays["placement_order"],
                boundaries=arrays["placement_boundaries"],
                strategy=meta.get("strategy", "custom"),
            )
        # Legacy artifacts (no placement buffers) load as identity:
        # ``placement`` stays None and every query path behaves as before.
        collection = cls(
            matrix=matrix, design=design, encoded=encoded, placement=placement
        )
        collection._digest = header["digest"]
        return collection
