"""Native compiled kernel: the streaming fold as Numba ``@njit`` loops.

The streaming backend's three fused stages — provable threshold block
skip, contiguous gather+reduce, per-query depth-K scratchpad insertion —
rewritten as flat loops over the BS-CSR :class:`StreamPlan` buffers with
no ``(Q, n_rows)`` (or even ``(Q, block)``) materialisation, compiled
with ``numba.njit(cache=True, nogil=True)`` when Numba is importable.

Numba is an *optional* dependency (``pip install .[native]``).  The loop
bodies are plain Numba-compatible Python, decorated only when the import
succeeds, so the identical code can run interpreted: setting
``REPRO_NATIVE_INTERPRET=1`` makes the backend report itself available
without Numba (the test suites use this to lock the loop semantics on
small inputs).  With neither Numba nor the override, :meth:`supports`
says no and :func:`~repro.core.kernels.base.run_kernel` silently
substitutes the declared ``streaming`` fallback — importing this module
never requires Numba.

Why the bits still match
------------------------
``run_fast`` (and the gather/streaming kernels) reduce each row's lanes
with ``np.add.reduceat``, whose per-segment accumulation is *pairwise*:
``segment = a[lo] + pairwise(a[lo+1:hi])`` where ``pairwise`` sums runs
of <8 sequentially, unrolls runs up to 128 over eight accumulators
combined as ``((r0+r1)+(r2+r3)) + ((r4+r5)+(r6+r7))``, and splits larger
runs recursively at ``n//2`` rounded down to a multiple of 8.
:func:`_segment_sum` reproduces that tree *exactly* — including the
bit-preservation of single-lane segments (no ``+0.0``, which would turn
``-0.0`` into ``+0.0``) — so per-row scores carry the very same float
bits in both accumulation dtypes (locked by a differential unit test
against ``np.add.reduceat`` and by the kernel property suite).

Scores then stream through a literal transcription of
:meth:`~repro.core.topk_tracker.TopKTracker.insert` (first-argmin slot,
accept on ``value >= worst``), so scratchpad contents, accept counts and
result ordering match the reference by construction; the block screen
reuses :func:`~repro.core.kernels.streaming.screen_blocks` — the same
slack, per query an even *stricter* refinement of the chunk-consensus
skip (each skipped ``(row, query)`` pair is individually provably
rejected), hence bit-neutral.

Under the contraction exactness gate (fixed-point value grid x Q1.31
queries x the 2^52 float64 budget) every partial sum is exact and order
is irrelevant, so the kernel switches to a cheaper sequential-sum fused
path — the contraction backend's arithmetic without the SpMM
materialisation, still inside the same skip/insert loop.
"""

from __future__ import annotations

import os

import numpy as np

from repro.core.kernels.base import (
    KernelBackend,
    KernelOutput,
    KernelRequest,
    get_kernel,
    map_partitions,
    register_kernel,
)
from repro.core.kernels.scratchpad import BatchScratchpads
from repro.core.kernels.streaming import screen_blocks

__all__ = [
    "HAVE_NUMBA",
    "INTERPRET_ENV_VAR",
    "NativeKernel",
    "native_available",
    "reduceat_segment_sums",
    "sweep_plan_into_pads",
]

#: Setting this to ``1`` makes the backend available without Numba, running
#: the identical loop bodies interpreted (a test knob, not a fast path).
INTERPRET_ENV_VAR = "REPRO_NATIVE_INTERPRET"

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit as _njit

    HAVE_NUMBA = True
except ImportError:
    _njit = None
    HAVE_NUMBA = False


def native_available() -> bool:
    """Whether the native loops can run (compiled, or forced interpreted)."""
    return HAVE_NUMBA or os.environ.get(INTERPRET_ENV_VAR, "") == "1"


def _maybe_jit(fn):
    if HAVE_NUMBA:  # pragma: no cover - exercised only where numba is installed
        return _njit(cache=True, nogil=True)(fn)
    return fn


#: NumPy's pairwise-summation unrolled-block size.
_PW_BLOCK = 128

#: Scratch-stack depth for the iterative pairwise split: each split level
#: nets two stack entries, so 160 covers runs far beyond any addressable
#: array (2 * 64 levels + transient slack).
_STACK_DEPTH = 160


def _pairwise_base(a, off, n, zero):
    """Pairwise sum of ``a[off:off+n]`` for ``n <= 128`` (NumPy's base case)."""
    if n < 8:
        res = zero
        for i in range(n):
            res = res + a[off + i]
        return res
    r0 = a[off]
    r1 = a[off + 1]
    r2 = a[off + 2]
    r3 = a[off + 3]
    r4 = a[off + 4]
    r5 = a[off + 5]
    r6 = a[off + 6]
    r7 = a[off + 7]
    i = 8
    lim = n - (n % 8)
    while i < lim:
        r0 = r0 + a[off + i]
        r1 = r1 + a[off + i + 1]
        r2 = r2 + a[off + i + 2]
        r3 = r3 + a[off + i + 3]
        r4 = r4 + a[off + i + 4]
        r5 = r5 + a[off + i + 5]
        r6 = r6 + a[off + i + 6]
        r7 = r7 + a[off + i + 7]
        i += 8
    res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    while i < n:
        res = res + a[off + i]
        i += 1
    return res


def _pairwise_big(a, off, n, zero, vstack, toff, tlen):
    """Pairwise sum for ``n > 128``: the recursive split, run on an explicit
    post-order stack (``tlen == -1`` marks a combine of the top two partial
    sums) so the compiled code needs no recursion support."""
    nt = 0
    nv = 0
    toff[0] = off
    tlen[0] = n
    nt = 1
    while nt > 0:
        nt -= 1
        o = toff[nt]
        ln = tlen[nt]
        if ln == -1:
            right = vstack[nv - 1]
            left = vstack[nv - 2]
            nv -= 2
            vstack[nv] = left + right
            nv += 1
        elif ln <= _PW_BLOCK:
            vstack[nv] = _pairwise_base(a, o, ln, zero)
            nv += 1
        else:
            n2 = ln // 2
            n2 -= n2 % 8
            toff[nt] = 0
            tlen[nt] = -1
            nt += 1
            toff[nt] = o + n2
            tlen[nt] = ln - n2
            nt += 1
            toff[nt] = o
            tlen[nt] = n2
            nt += 1
    return vstack[0]


def _segment_sum(a, lo, hi, zero, vstack, toff, tlen):
    """One ``np.add.reduceat`` segment: ``a[lo] + pairwise(a[lo+1:hi])``.

    A single-lane segment returns ``a[lo]`` bit-preserved (adding 0.0
    would flip ``-0.0`` to ``+0.0``).
    """
    n = hi - lo
    if n == 1:
        return a[lo]
    if n - 1 <= _PW_BLOCK:
        return a[lo] + _pairwise_base(a, lo + 1, n - 1, zero)
    return a[lo] + _pairwise_big(a, lo + 1, n - 1, zero, vstack, toff, tlen)


def _sweep(
    X,
    kept_idx,
    values,
    starts,
    seg_ends,
    blocks,
    block_peak,
    xmax,
    live,
    row_ids,
    exact,
    prod,
    vstack,
    toff,
    tlen,
    vals,
    rows,
    accepts,
    evicted,
    zero,
):
    """The whole fused sweep for one partition plan.

    Walks queries x blocks x rows: screens each block against the query's
    *current* eviction threshold, gathers and reduces surviving live rows
    lane by lane (pairwise tree, or a plain sequential sum when ``exact``
    certifies order-independence), and inserts accepted scores with the
    tracker's first-argmin replace rule.  ``vals``/``rows``/``accepts``
    and ``evicted`` (the value each query's latest accept replaced) are
    updated in place (they may arrive warm from earlier segments);
    returns the number of live (row, query) pairs provably skipped.
    """
    n_queries = X.shape[0]
    k = vals.shape[1]
    n_blocks = len(blocks) - 1
    skipped = 0
    for q in range(n_queries):
        worst = vals[q, 0]
        for j in range(1, k):
            if vals[q, j] < worst:
                worst = vals[q, j]
        xq = xmax[q]
        for b in range(n_blocks):
            r0 = blocks[b]
            r1 = blocks[b + 1]
            if block_peak[b] * xq < worst:
                for r in range(r0, r1):
                    if live[r] != 0:
                        skipped += 1
                continue
            for r in range(r0, r1):
                if live[r] == 0:
                    continue
                l0 = starts[r]
                l1 = seg_ends[r]
                if exact:
                    s = 0.0
                    for l in range(l0, l1):
                        s = s + values[l] * X[q, kept_idx[l]]
                    score = s
                else:
                    m = l1 - l0
                    for j in range(m):
                        l = l0 + j
                        prod[j] = values[l] * X[q, kept_idx[l]]
                    score = float(_segment_sum(prod, 0, m, zero, vstack, toff, tlen))
                if score >= worst:
                    # First slot holding the current minimum (the
                    # priority-encoder argmin): a plain rescan — k is tiny.
                    slot = 0
                    mv = vals[q, 0]
                    for j in range(1, k):
                        if vals[q, j] < mv:
                            mv = vals[q, j]
                            slot = j
                    vals[q, slot] = score
                    rows[q, slot] = row_ids[r]
                    accepts[q] += 1
                    evicted[q] = mv
                    worst = vals[q, 0]
                    for j in range(1, k):
                        if vals[q, j] < worst:
                            worst = vals[q, j]
    return skipped


if HAVE_NUMBA:  # pragma: no cover - exercised only where numba is installed
    _pairwise_base = _maybe_jit(_pairwise_base)
    _pairwise_big = _maybe_jit(_pairwise_big)
    _segment_sum = _maybe_jit(_segment_sum)
    _sweep = _maybe_jit(_sweep)


def reduceat_segment_sums(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """``np.add.reduceat(values, starts)`` via the native segment model.

    A testable seam: the differential unit suite drives this against the
    real ``np.add.reduceat`` across dtypes, lengths and special values to
    lock the pairwise tree the sweep relies on.
    """
    values = np.ascontiguousarray(values)
    starts = np.asarray(starts, dtype=np.int64)
    n = len(values)
    ends = np.concatenate([starts[1:], [n]])
    zero = values.dtype.type(0.0)
    vstack = np.empty(_STACK_DEPTH, dtype=values.dtype)
    toff = np.empty(_STACK_DEPTH, dtype=np.int64)
    tlen = np.empty(_STACK_DEPTH, dtype=np.int64)
    out = np.empty(len(starts), dtype=values.dtype)
    for i, (lo, hi) in enumerate(zip(starts.tolist(), ends.tolist())):
        out[i] = _segment_sum(values, lo, hi, zero, vstack, toff, tlen)
    return out


def _sweep_plan(
    X: np.ndarray,
    plan,
    accumulate_dtype,
    exact: bool,
    live: "np.ndarray | None",
    row_ids: np.ndarray,
    vals: np.ndarray,
    rows: np.ndarray,
    accepts: np.ndarray,
    evicted: np.ndarray,
) -> int:
    """Prepare buffers and run :func:`_sweep` over one plan (in place)."""
    acc = np.dtype(accumulate_dtype)
    values = plan.kept_values.astype(acc)
    kept_idx = np.ascontiguousarray(plan.kept_idx, dtype=np.int64)
    starts = np.ascontiguousarray(plan.starts, dtype=np.int64)
    seg_ends, blocks, block_peak = screen_blocks(plan, acc, live)
    Xc = np.ascontiguousarray(X.astype(acc))
    xmax = np.abs(Xc).max(axis=1).astype(np.float64) if Xc.size else np.zeros(
        Xc.shape[0], dtype=np.float64
    )
    live8 = (
        np.ones(plan.n_rows, dtype=np.uint8)
        if live is None
        else np.ascontiguousarray(live, dtype=np.uint8)
    )
    max_seg = int((seg_ends - starts).max(initial=1))
    prod = np.empty(max_seg, dtype=acc)
    vstack = np.empty(_STACK_DEPTH, dtype=acc)
    toff = np.empty(_STACK_DEPTH, dtype=np.int64)
    tlen = np.empty(_STACK_DEPTH, dtype=np.int64)
    return int(
        _sweep(
            Xc,
            kept_idx,
            values,
            np.ascontiguousarray(starts, dtype=np.int64),
            np.ascontiguousarray(seg_ends, dtype=np.int64),
            np.ascontiguousarray(blocks, dtype=np.int64),
            np.ascontiguousarray(block_peak, dtype=np.float64),
            xmax,
            live8,
            np.ascontiguousarray(row_ids, dtype=np.int64),
            bool(exact),
            prod,
            vstack,
            toff,
            tlen,
            vals,
            rows,
            accepts,
            evicted,
            acc.type(0.0),
        )
    )


def sweep_plan_into_pads(
    X: np.ndarray,
    plan,
    pads: BatchScratchpads,
    accumulate_dtype,
    live: "np.ndarray | None",
    first_live: int,
) -> "tuple[int, int]":
    """Native fold of one plan into existing (possibly warm) scratchpads.

    The multi-segment driver's entry point: the scratchpad state is
    exported dense, advanced by the sweep with live rows renumbered to
    ``first_live + live-position`` (exactly the live-matrix ids), and
    imported back — the import is sequential-tracker-exact, so the global
    fold's cross-segment threshold carry-over is preserved bit for bit.
    Returns ``(skipped_pairs, n_live)``.
    """
    n_rows = plan.n_rows
    if n_rows == 0:
        return 0, 0
    if live is None:
        n_live = n_rows
        row_ids = np.arange(first_live, first_live + n_rows, dtype=np.int64)
    else:
        live8 = np.ascontiguousarray(live, dtype=np.uint8)
        n_live = int(live8.sum())
        if n_live == 0:
            return 0, 0
        row_ids = first_live + np.concatenate(
            [[0], np.cumsum(live8[:-1], dtype=np.int64)]
        ).astype(np.int64)
    vals, rows, accepts = pads.export_state()
    evicted = pads.evicted_values()
    skipped = _sweep_plan(
        X, plan, accumulate_dtype, False, live, row_ids, vals, rows, accepts, evicted
    )
    pads.import_state(vals, rows, accepts, seen_rows=n_live, evicted=evicted)
    return skipped, n_live


class NativeKernel(KernelBackend):
    """Compiled streaming-fold backend (see module docstring)."""

    name = "native"
    fallback = "streaming"

    @staticmethod
    def available() -> bool:
        return native_available()

    def supports(self, request: KernelRequest) -> bool:
        return self.available()

    def run_partition(
        self,
        index,
        plan,
        *,
        X,
        accumulate_dtype,
        local_k,
        exact=False,
        query_chunk=None,
    ):
        """One partition: dense ``(values, rows, accepts, skipped, total)``.

        ``query_chunk`` is accepted for interface parity but unused — the
        sweep holds no per-chunk intermediate, so there is nothing to
        size (and chunking is bit-neutral by contract anyway).
        """
        n_queries = X.shape[0]
        pads = BatchScratchpads(n_queries, local_k)
        skipped = 0
        if plan.n_rows:
            vals, rows, accepts = pads.export_state()
            row_ids = np.arange(plan.n_rows, dtype=np.int64)
            evicted = pads.evicted_values()
            skipped = _sweep_plan(
                X, plan, accumulate_dtype, exact, None, row_ids, vals, rows,
                accepts, evicted,
            )
            pads.import_state(vals, rows, accepts, evicted=evicted)
        return (*pads.finish_dense(), skipped, plan.n_rows * n_queries)

    def run(self, request: KernelRequest) -> KernelOutput:
        acc = np.dtype(request.accumulate_dtype)
        # The contraction gate certifies order-independent exact float64
        # accumulation — then the cheaper sequential-sum path is the same
        # bits as the pairwise tree (no partial sum ever rounds).
        exact = bool(get_kernel("contraction").supports(request))
        params = {
            "accumulate_dtype": acc,
            "local_k": request.local_k,
            "exact": exact,
        }

        def one(i, plan):
            return self.run_partition(i, plan, X=request.X, **params)

        per_partition = map_partitions(
            one,
            request.plans,
            request.n_workers,
            executor=request.executor,
            process_fn=self.run_partition,
            process_params=params,
            X=request.X,
        )
        return KernelOutput.from_partitions(
            per_partition, request.n_queries, request.local_k
        )


register_kernel(NativeKernel())
