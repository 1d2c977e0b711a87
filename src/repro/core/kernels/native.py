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

Scores then stream into tracker scratchpads through a literal transcription
of :meth:`~repro.core.topk_tracker.TopKTracker.insert` (first-argmin slot,
accept on ``value >= worst``), or into the query path's
:class:`~repro.core.kernels.selection.RunningTopK` by sorted insertion under
its total order — the reference's state by construction.  The block screen
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

from repro.core.kernels.base import KernelBackend, KernelRequest, register_kernel
from repro.core.kernels.selection import RunningTopK
from repro.core.kernels.streaming import screen_blocks

__all__ = [
    "HAVE_NUMBA",
    "INTERPRET_ENV_VAR",
    "NativeKernel",
    "native_available",
    "reduceat_segment_sums",
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


def _ranks_above(v, r, bv, br):
    """Whether ``(v, r)`` beats ``(bv, br)`` under the total order: value
    descending, NaN below −inf, ties by ascending row."""
    if bv != bv:
        return v == v or r < br
    return v == v and (v > bv or (v == bv and r < br))


def _lane_worst(vals, q, total_order):
    """Lane ``q``'s threshold: its last slot if kept sorted, else its minimum."""
    k = vals.shape[1]
    if total_order:
        return vals[q, k - 1]
    worst = vals[q, 0]
    for j in range(1, k):
        if vals[q, j] < worst:
            worst = vals[q, j]
    return worst


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
    total_order,
    zero,
):
    """The whole fused sweep for one partition plan.

    Walks queries x blocks x rows: screens each block against the query's
    *current* eviction threshold, gathers and reduces surviving live rows
    lane by lane (pairwise tree, or a plain sequential sum when ``exact``
    certifies order-independence), and inserts each score: with
    ``total_order`` (a sorted ``RunningTopK``) by evicting the last slot
    and bubbling into place, else by the tracker's first-argmin ``>=``
    replace.  The slots may arrive warm and are updated in place; returns
    the number of live (row, query) pairs provably skipped.
    """
    n_queries = X.shape[0]
    k = vals.shape[1]
    n_blocks = len(blocks) - 1
    skipped = 0
    for q in range(n_queries):
        worst = _lane_worst(vals, q, total_order)
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
                row = row_ids[r]
                if total_order:
                    if not _ranks_above(score, row, vals[q, k - 1], rows[q, k - 1]):
                        continue
                    slot = k - 1
                elif score >= worst:
                    # First slot holding the current minimum (the
                    # priority-encoder argmin): a plain rescan — k is tiny.
                    slot = 0
                    for j in range(1, k):
                        if vals[q, j] < vals[q, slot]:
                            slot = j
                else:
                    continue
                while total_order and slot > 0 and _ranks_above(
                    score, row, vals[q, slot - 1], rows[q, slot - 1]
                ):
                    vals[q, slot] = vals[q, slot - 1]
                    rows[q, slot] = rows[q, slot - 1]
                    slot -= 1
                vals[q, slot] = score
                rows[q, slot] = row
                accepts[q] += 1
                worst = _lane_worst(vals, q, total_order)
    return skipped


if HAVE_NUMBA:  # pragma: no cover - exercised only where numba is installed
    _pairwise_base = _maybe_jit(_pairwise_base)
    _pairwise_big = _maybe_jit(_pairwise_big)
    _segment_sum = _maybe_jit(_segment_sum)
    _ranks_above = _maybe_jit(_ranks_above)
    _lane_worst = _maybe_jit(_lane_worst)
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


class NativeKernel(KernelBackend):
    """Compiled streaming-fold backend (see module docstring)."""

    name = "native"
    fallback = "streaming"

    def supports(self, request: KernelRequest) -> bool:
        return native_available()

    def fold_plan(self, queries, plan, pads, first_row=0, live=None):
        """Compiled fold of one plan into (possibly warm) ``pads``.

        Live rows are renumbered to ``first_row + live-position`` (exactly
        the live-matrix ids) and advanced by :func:`_sweep` under the rule
        of ``pads``: a ``RunningTopK`` is updated in place; scratchpads are
        exported dense and imported back, sequential-tracker-exact.  The
        per-query screens refine the streaming fold's all-lanes skip (each
        skipped pair individually provably rejected).  When
        ``queries.exact`` certifies exact float64 accumulation the cheaper
        sequential-sum path is the same bits as the pairwise tree (no
        partial sum ever rounds).
        """
        if live is None:
            n_live = plan.n_rows
            live8 = np.ones(n_live, dtype=np.uint8)
        else:
            n_live = int(np.count_nonzero(live))
            live8 = np.ascontiguousarray(live, dtype=np.uint8)
        if n_live == 0:
            return 0, 0
        acc = queries.acc
        starts = np.ascontiguousarray(plan.starts, dtype=np.int64)
        seg_ends, blocks, block_peak = screen_blocks(plan, acc, live)
        max_seg = int((seg_ends - starts).max(initial=1))
        total_order = isinstance(pads, RunningTopK)
        if total_order:
            vals, rows, accepts = pads.vals, pads.rows, np.zeros(len(queries), int)
        else:
            vals, rows, accepts = pads.export_state()
        skipped = _sweep(
            np.ascontiguousarray(queries.Xc),
            np.ascontiguousarray(plan.kept_idx, dtype=np.int64),
            plan.kept_values.astype(acc),
            starts,
            np.ascontiguousarray(seg_ends, dtype=np.int64),
            np.ascontiguousarray(blocks, dtype=np.int64),
            np.ascontiguousarray(block_peak, dtype=np.float64),
            queries.xmax,
            live8,
            first_row + np.cumsum(live8, dtype=np.int64) - live8,
            queries.exact,
            np.empty(max_seg, dtype=acc),
            np.empty(_STACK_DEPTH, dtype=acc),
            np.empty(_STACK_DEPTH, dtype=np.int64),
            np.empty(_STACK_DEPTH, dtype=np.int64),
            vals,
            rows,
            accepts,
            total_order,
            acc.type(0.0),
        )
        if not total_order:
            pads.import_state(vals, rows, accepts, seen_rows=n_live)
        return int(skipped), n_live * len(queries)


register_kernel(NativeKernel())
