"""CSR-contraction kernel: one sparse·dense product for the whole sweep.

Every :class:`~repro.core.dataflow.StreamPlan` is *lowered* once into a
collection-level CSR operand — the kept-lane values and column indices
concatenated across partitions, with row pointers from the per-row segment
starts — and a batch's scores become a single SciPy ``csr_matrix @ dense``
product instead of 32 per-partition gather/reduceat sweeps.  The operand is
built once per compiled collection (``compile_collection`` lowers it; the
artifact persists it), so the per-batch cost is just the SpMM plus the
scratchpad folds.

When is a sparse product bit-identical to the hardware model?
-------------------------------------------------------------
SciPy accumulates each row sequentially; ``np.add.reduceat`` (the reference
and ``run_fast``) reduces pairwise.  The two agree on every bit exactly
when the accumulation is *exact*, i.e. no partial sum ever rounds — then
any summation order yields the one true value.  That holds provably when

* values sit on a fixed-point grid ``2^-f_v`` (the paper's fixed/signed
  codecs; ``value_grid_bits`` records ``f_v``),
* the query block sits on the ``2^-31`` grid (the Q1.31/sQ1.30 URAM
  formats; checked against the actual ``X`` at request time), and
* every partial sum fits the float64 mantissa:
  ``max_row(Σ|v|·2^f_v) · max|x·2^31| < 2^52`` (products are then exact —
  value and query significands multiply within 53 bits — and every
  in-order or pairwise partial sum is an exactly-representable multiple of
  ``2^-(f_v+31)``; the 2^52 budget leaves a 2× guard band over the
  mantissa so the float64-computed gate itself cannot flip the decision).

The paper's best design (20-bit fixed point, f_v = 19) passes this gate on
its evaluation workloads; 25/32-bit fixed designs and the float32 design
overflow the budget (or accumulate in float32), so
:meth:`ContractionKernel.supports` says no and the driver falls back to the
reference kernel automatically — the bit-exactness guarantee is never
traded for speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.kernels.base import (
    KernelBackend,
    KernelOutput,
    KernelRequest,
    register_kernel,
)
from repro.core.kernels.scratchpad import BatchScratchpads
from repro.errors import ConfigurationError

__all__ = [
    "ContractionOperand",
    "codec_grid_bits",
    "codecs_grid_bits",
    "lower_plans",
    "score_chunks",
    "ContractionKernel",
]

#: Queries must sit on this grid (Q1.31; the signed sQ1.30 grid is a subset).
QUERY_GRID_BITS = 31

#: Raw-significand budget for provably exact accumulation (2^52, not 2^53:
#: a 2x guard band so the float64 gate arithmetic is itself conclusive).
_EXACT_RAW_BUDGET = float(2**52)

#: Byte budget of one ``(n_rows, chunk)`` float64 SpMM block.  Well under
#: the 32 MiB above which glibc maps (and the kernel page-faults in) a fresh
#: region on every allocation, so consecutive chunks and calls recycle one
#: block; chunking never changes a result bit (queries are independent).
_SCORE_BLOCK_BYTES = 20 << 20


@dataclass
class ContractionOperand:
    """A collection-level CSR lowering of one plan list (see module doc).

    ``data``/``indices``/``indptr`` describe all partitions' rows stacked in
    partition order (placeholder lanes included — they contribute an exact
    zero); ``part_rows[i]`` is partition ``i``'s row count, so partition
    ``i`` owns operand rows ``[part_offsets[i], part_offsets[i+1])``.
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    part_rows: np.ndarray
    #: Fraction bits ``f_v`` of the value grid; ``None`` when the codec
    #: gives no fixed grid (float32/exact codecs) — the gate then never
    #: passes and the kernel always falls back.
    value_grid_bits: "int | None" = None
    #: ``max_row(Σ|v|·2^f_v)`` (0.0 when ``value_grid_bits`` is None).
    max_abs_row_raw: float = 0.0
    #: Row boundaries per partition, ``[0, ..., n_rows]``.
    part_offsets: np.ndarray = field(init=False, repr=False)
    _matrices: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self.part_offsets = np.concatenate(
            [[0], np.cumsum(self.part_rows)]
        ).astype(np.int64)

    @property
    def n_rows(self) -> int:
        return len(self.indptr) - 1

    def matrix(self, n_cols: int):
        """The SciPy CSR operand at a given width (built once per width)."""
        if n_cols not in self._matrices:
            import scipy.sparse as sp

            self._matrices[n_cols] = sp.csr_matrix(
                (self.data, self.indices, self.indptr),
                shape=(self.n_rows, n_cols),
            )
        return self._matrices[n_cols]


def codec_grid_bits(codec) -> "int | None":
    """Fraction bits of a codec's value grid, if it provably has one.

    ``None`` means the exactness gate can never pass for values encoded by
    this codec (float32/exact codecs): callers can use that to skip the
    O(nnz) operand lowering entirely instead of building an operand whose
    ``value_grid_bits`` would be ``None``.
    """
    fmt = getattr(codec, "fmt", None)
    if fmt is not None and hasattr(fmt, "fraction_bits"):
        return int(fmt.fraction_bits)
    return None


def codecs_grid_bits(codecs) -> "int | None":
    """The one value grid shared by every codec in a set, if any.

    ``None`` — empty set, mixed grids, or any grid-less codec — means the
    exactness gate can never pass for values they encode: the single
    eligibility rule behind both lowering an operand and skipping the
    lowering entirely.
    """
    bits = {codec_grid_bits(c) for c in codecs}
    if len(bits) == 1 and None not in bits:
        return bits.pop()
    return None


def lower_plans(plans, codecs=None) -> ContractionOperand:
    """Lower stream plans (+ their value codecs) to one CSR operand.

    ``codecs`` — one per plan, or ``None`` — determines the value grid: the
    grid is recorded only when *every* partition's codec puts values on the
    same fixed-point grid, otherwise the operand is usable but ungated
    (the contraction kernel will always fall back).
    """
    plans = list(plans)
    if codecs is not None and len(codecs) != len(plans):
        raise ConfigurationError(
            f"{len(codecs)} codecs supplied for {len(plans)} plans"
        )
    datas, idxs, lens, part_rows = [], [], [], []
    for plan in plans:
        datas.append(plan.kept_values)
        idxs.append(plan.kept_idx)
        n_lanes = len(plan.kept_values)
        lens.append(np.diff(np.concatenate([plan.starts, [n_lanes]])))
        part_rows.append(plan.n_rows)
    if plans:
        data = np.ascontiguousarray(np.concatenate(datas), dtype=np.float64)
        indices = np.ascontiguousarray(np.concatenate(idxs), dtype=np.int64)
        seg_lens = np.concatenate(lens)
    else:
        data = np.empty(0, dtype=np.float64)
        indices = np.empty(0, dtype=np.int64)
        seg_lens = np.empty(0, dtype=np.int64)
    indptr = np.concatenate([[0], np.cumsum(seg_lens)]).astype(np.int64)

    grid_bits: "int | None" = None
    max_abs_row_raw = 0.0
    if codecs is not None and plans:
        grid_bits = codecs_grid_bits(codecs)
        if grid_bits is not None and len(data):
            row_abs = np.add.reduceat(np.abs(data), indptr[:-1])
            # Rows of width 0 cannot occur (empty rows carry a
            # placeholder lane), so reduceat segments are well-formed.
            max_abs_row_raw = float(row_abs.max(initial=0.0)) * float(
                2**grid_bits
            )
    return ContractionOperand(
        data=data,
        indices=indices,
        indptr=indptr,
        part_rows=np.asarray(part_rows, dtype=np.int64),
        value_grid_bits=grid_bits,
        max_abs_row_raw=max_abs_row_raw,
    )


def score_chunks(operand: ContractionOperand, X: np.ndarray):
    """Yield ``(q0, scores)``: the SpMM of ``X``'s queries in byte-budgeted chunks.

    ``scores`` is the provably exact ``(n_rows, width)`` float64 block of
    queries ``q0 : q0 + width`` — the fewest equal chunks whose block fits
    :data:`_SCORE_BLOCK_BYTES`.  Shared by both drivers' contraction folds;
    a consumer drops its block (``del``) before asking for the next, so one
    block is live at a time.
    """
    n_queries = X.shape[0]
    matrix = operand.matrix(X.shape[1])
    widest = max(1, _SCORE_BLOCK_BYTES // (8 * max(1, operand.n_rows)))
    n_chunks = max(1, -(-n_queries // widest))
    chunk = max(1, -(-n_queries // n_chunks))
    for q0 in range(0, n_queries, chunk):
        yield q0, matrix @ X[q0 : q0 + chunk].T


class ContractionKernel(KernelBackend):
    """Sparse-contraction backend, gated on provable exactness."""

    name = "contraction"
    fallback = "gather"

    def supports(self, request: KernelRequest) -> bool:
        operand = request.operand
        if not isinstance(operand, ContractionOperand):
            return False
        if operand.value_grid_bits is None:
            return False
        if np.dtype(request.accumulate_dtype) != np.dtype(np.float64):
            return False
        if len(operand.part_rows) != len(request.plans) or any(
            int(rows) != plan.n_rows
            for rows, plan in zip(operand.part_rows, request.plans)
        ):
            return False
        scaled = request.X * float(2**QUERY_GRID_BITS)
        if not np.isfinite(scaled).all() or (scaled != np.rint(scaled)).any():
            return False
        max_raw_x = float(np.abs(scaled).max(initial=0.0))
        return operand.max_abs_row_raw * max_raw_x < _EXACT_RAW_BUDGET

    def run(self, request: KernelRequest) -> KernelOutput:
        operand: ContractionOperand = request.operand
        n_queries = request.n_queries
        n_parts = len(request.plans)
        local_k = request.local_k
        values = np.empty((n_parts, n_queries, local_k), dtype=np.float64)
        rows = np.empty((n_parts, n_queries, local_k), dtype=np.int64)
        accepts = np.empty((n_parts, n_queries), dtype=np.int64)
        for q0, scores in score_chunks(operand, request.X):
            width = scores.shape[1]
            # Every partition x query scratchpad of the chunk is one lane
            # of a single fold straight off the SpMM block.
            pads = BatchScratchpads(n_parts * width, local_k)
            pads.fold_partitions(scores, operand.part_offsets)
            del scores  # released before the next chunk's block is allocated
            top_values, top_rows, top_accepts = pads.finish_dense()
            done = slice(q0, q0 + width)
            values[:, done] = top_values.reshape(n_parts, width, local_k)
            rows[:, done] = top_rows.reshape(n_parts, width, local_k)
            accepts[:, done] = top_accepts.reshape(n_parts, width)
        return KernelOutput(values=values, rows=rows, accepts=accepts)


register_kernel(ContractionKernel())
