"""Vectorised Top-K scratchpads, one per *lane*, foldable block by block.

The hardware replay behind the paper's per-core candidate path
(``query_candidates``; ``query`` selects with
:class:`~repro.core.kernels.selection.RunningTopK` instead):
:class:`BatchScratchpads` carries one k-entry replace-the-minimum
scratchpad (the hardware unit of
:class:`~repro.core.topk_tracker.TopKTracker`) per lane across an
*incremental* row stream, as dense ``(lanes, k)`` arrays.  A lane is
whatever owns an independent row stream: a query (:meth:`fold` — backends
feed ``(Q, n_block)`` score blocks in row order) or a partition × query
pair (:meth:`fold_partitions` — the whole ``(n_rows, Q)`` block of a
collection-level SpMM, every core's scratchpad advancing together as the
hardware's 32 cores do).  Either way the final state is bit-identical —
slot contents, accept counts, result ordering — to offering every row
sequentially to a per-lane tracker.

Why incremental folding is exact
--------------------------------
Two invariants of the tracker make any block/window partitioning safe:

* while a scratchpad holds fewer than ``k`` entries, every offered
  *finite* row is accepted into the next free slot (the argmin always
  lands on the first −inf register), so the fill is a straight copy as
  long as every value is finite — NaN fails every ``>=`` compare and is
  never accepted, and an accepted −inf leaves the argmin parked on its
  own slot, so the next row overwrites it instead of taking a free slot;
* once full, the eviction threshold (current worst) never decreases, so a
  row below the threshold *at any earlier time* is rejected no matter when
  it arrives — pre-filtering a window against the threshold at the
  window's start can only drop rows the tracker would reject anyway, and
  the surviving rows are re-checked in arrival order.

Survivors are replayed with the tracker's own operations (first-minimum
argmin, ``>=`` accept) in one of two schedules, chosen from what the
window holds: *lockstep* — step ``r`` applies every lane's ``r``-th
survivor at once, one NumPy call chain per step — when enough lanes have
survivors to amortise the chain, otherwise a scalar loop over the
survivors.  Lanes are independent and each lane's survivors keep their
arrival order in both, so the schedule never changes a bit.

Blocks containing any non-finite value (NaN or ±inf) take a per-row
sequential path that mirrors :meth:`TopKTracker.insert` operation for
operation, so the guarantee holds unconditionally.
"""

from __future__ import annotations

import numpy as np

from repro.core.reference import TopKResult, dense_order, results_from_dense

__all__ = ["BatchScratchpads", "batch_scratchpads"]

#: Survivors per lockstep step below which the scalar replay is used.  A
#: step is a fixed chain of ~15 NumPy calls however few lanes it advances,
#: the scalar loop costs ~0.35 µs per survivor; measured, the two break even
#: anywhere between 8 and 32 survivors per step.
_LOCKSTEP_MIN_WIDTH = 8


class BatchScratchpads:
    """Running Top-K scratchpads for ``n_queries`` lanes (see module doc)."""

    def __init__(self, n_queries: int, local_k: int):
        self.n_queries = int(n_queries)
        self.local_k = int(local_k)
        self._vals = np.full((self.n_queries, self.local_k), -np.inf)
        self._rows = np.full((self.n_queries, self.local_k), -1, dtype=np.int64)
        self._accepts = np.zeros(self.n_queries, dtype=np.int64)
        #: Rows offered (or provably-rejected-and-skipped) so far; controls
        #: the doubling window growth only — never any result bit.
        self._seen = 0
        #: True while every lane has accepted the same ``_seen < k`` finite
        #: rows into slots ``0.._seen-1`` — what the fill shortcut needs.
        self._uniform = True

    # ------------------------------------------------------------------ #
    # State backends read
    # ------------------------------------------------------------------ #
    def worst_thresholds(self) -> np.ndarray:
        """Per-lane eviction thresholds (−inf while a scratchpad is unfilled)."""
        return self._vals.min(axis=1)

    def export_state(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Dense ``(vals, rows, accepts)`` snapshot of every scratchpad.

        For kernels that advance the tracker state outside :meth:`fold`
        (the native sweep): ``vals`` is ``(lanes, k)`` float64, ``rows``
        ``(lanes, k)`` int64 (−1 = unfilled), ``accepts`` ``(lanes,)``
        int64 — copies, safe to mutate and hand back to
        :meth:`import_state`.
        """
        return self._vals.copy(), self._rows.copy(), self._accepts.copy()

    def import_state(
        self,
        vals: np.ndarray,
        rows: np.ndarray,
        accepts: np.ndarray,
        seen_rows: int = 0,
    ) -> None:
        """Adopt (a copy of) a state advanced outside :meth:`fold`.

        The caller guarantees the state is what sequential
        :meth:`TopKTracker.insert` operations starting from
        :meth:`export_state` would have produced — then every invariant
        (thresholds never decrease, NaN-free slots) still holds.  The
        fill shortcut is disabled afterwards (per-lane fill levels may
        now differ); the windowed fold path remains exact regardless.
        ``seen_rows`` advances the window-growth counter by the rows
        offered or provably skipped — never any result bit.
        """
        shape = (self.n_queries, self.local_k)
        self._vals = np.array(vals, dtype=np.float64).reshape(shape)
        self._rows = np.array(rows, dtype=np.int64).reshape(shape)
        self._accepts = np.array(accepts, dtype=np.int64).reshape(shape[0])
        self._seen += int(seen_rows)
        self._uniform = False

    # ------------------------------------------------------------------ #
    # Folding
    # ------------------------------------------------------------------ #
    def skip_rows(self, n_rows: int) -> None:
        """Account rows a backend proved every lane would reject.

        Only advances the window-growth counter; a skipped row must satisfy
        ``value < worst`` for every lane (strict), which the tracker
        rejects without counting an accept — so skipping is bit-neutral.
        """
        self._seen += int(n_rows)

    def fold(
        self,
        row_values: np.ndarray,
        first_row: int = 0,
        row_ids: "np.ndarray | None" = None,
    ) -> None:
        """Offer rows ``first_row + j`` with values ``row_values[:, j]``.

        ``row_values`` must be float64 with one row per lane, columns in
        arrival order (any strides — a transposed view is screened in
        place).  Upcasting float32 scores to float64 is exact, so the float
        bits compared downstream are unchanged.  ``row_ids`` (int64, one
        per column) renames the rows: column ``j`` is offered as row
        ``first_row + row_ids[j]`` — payload only, the arrival order is
        still the column order.
        """
        n_lanes, n_block = row_values.shape
        if n_lanes != self.n_queries:
            raise ValueError(
                f"fold got {n_lanes} queries, scratchpads hold {self.n_queries}"
            )
        if n_block == 0:
            return
        ids = (
            np.arange(first_row, first_row + n_block)
            if row_ids is None
            else first_row + row_ids
        )
        if not np.isfinite(row_values).all():
            self._uniform = False
            self._fold_sequential(row_values, ids, 0)
            self._seen += n_block
            return

        local_k = self.local_k
        lo = 0
        if self._uniform and self._seen < local_k:
            # Fill: finite rows land in slots seen..k-1 unconditionally
            # (every finite value passes ``>= -inf`` and raises its slot
            # above −inf, keeping the argmin on the next free register),
            # identically for every lane, so the fill is one sliced copy.
            lo = min(local_k - self._seen, n_block)
            slots = slice(self._seen, self._seen + lo)
            self._vals[:, slots] = row_values[:, :lo]
            self._rows[:, slots] = ids[:lo]
            self._accepts += lo
            self._seen += lo

        # Windowed survivor filtering: each window is pre-screened against
        # every lane's threshold at the window start (rows below it are
        # rejected no matter when they arrive) and the survivors replayed.
        # Window sizes double with the rows seen so early, low-threshold
        # windows stay short.
        while lo < n_block:
            hi = min(n_block, lo + max(local_k, self._seen))
            window = row_values[:, lo:hi]
            hits = np.flatnonzero(window >= self.worst_thresholds()[:, None])
            if len(hits):
                lanes, cols = np.divmod(hits, hi - lo)
                self._replay(lanes, ids[lo + cols], window[lanes, cols], True)
            self._seen += hi - lo
            lo = hi

    def fold_partitions(
        self, scores: np.ndarray, offsets: np.ndarray, first_row: int = 0
    ) -> None:
        """Offer every partition's rows to its own lanes, all lanes at once.

        ``scores`` is a C-contiguous ``(n_rows, Q)`` float64 block whose
        rows ``offsets[p]:offsets[p+1]`` belong to partition ``p``; lane
        ``p * Q + q`` is offered ``scores[offsets[p] + j, q]`` as row
        ``first_row + j`` (partition-local ids).  Equivalent to one
        :meth:`fold` per partition on its own scratchpads — screened with
        one compare per doubling window per run of equal-length partitions
        and read in place: no window of ``scores`` is ever copied.
        """
        n_rows, n_queries = scores.shape
        lengths = np.diff(offsets)
        if len(lengths) * n_queries != self.n_queries:
            raise ValueError(
                f"fold_partitions got {len(lengths)} x {n_queries} lanes, "
                f"scratchpads hold {self.n_queries}"
            )
        if n_rows == 0 or n_queries == 0:
            return
        finite = bool(np.isfinite(scores).all())
        fill = finite and self._uniform
        flat = scores.reshape(-1)
        # Partitions of one length share an (m, n, Q) view of the block.
        cuts = np.flatnonzero(lengths[1:] != lengths[:-1]) + 1
        for p0, p1 in zip([0, *cuts.tolist()], [*cuts.tolist(), len(lengths)]):
            n = int(lengths[p0])
            if n == 0:
                continue
            row0 = int(offsets[p0])
            if finite:
                self._fold_run(
                    flat, row0, p1 - p0, n, n_queries, p0, first_row, fill
                )
            else:
                for p in range(p0, p1):
                    part = scores[row0 + (p - p0) * n : row0 + (p - p0 + 1) * n]
                    self._fold_sequential(
                        part.T, np.arange(first_row, first_row + n), p * n_queries
                    )
        # Lanes stay level only if every partition offered the same rows.
        self._uniform = fill and len(cuts) == 0
        self._seen += int(lengths.max())

    def _fold_run(self, flat, row0, m, n, n_queries, p0, first_row, fill) -> None:
        """Windowed fold of ``m`` equal-length partitions (``n`` rows each)
        starting at block row ``row0`` into lanes ``p0 * Q`` onwards;
        ``fill`` allows the straight-copy fill of :meth:`fold`."""
        view = flat[row0 * n_queries : (row0 + m * n) * n_queries].reshape(
            m, n, n_queries
        )
        lane0 = p0 * n_queries
        lanes = slice(lane0, lane0 + m * n_queries)
        pads = self._vals[lanes]
        seen = self._seen
        lo = 0
        if fill and seen < self.local_k:
            lo = min(self.local_k - seen, n)
            slots = slice(seen, seen + lo)
            pads.reshape(m, n_queries, -1)[:, :, slots] = view[:, :lo].transpose(
                0, 2, 1
            )
            self._rows[lanes, slots] = np.arange(first_row, first_row + lo)
            self._accepts[lanes] += lo
            seen += lo
        while lo < n:
            hi = min(n, lo + max(self.local_k, seen))
            thresholds = pads.min(axis=1).reshape(m, 1, n_queries)
            hits = np.flatnonzero(view[:, lo:hi] >= thresholds)
            if len(hits):
                part, cell = np.divmod(hits, (hi - lo) * n_queries)
                cell += lo * n_queries  # (row, query) cell within its partition
                row, query = np.divmod(cell, n_queries)
                self._replay(
                    lane0 + part * n_queries + query,
                    first_row + row,
                    flat[(row0 + part * n) * n_queries + cell],
                    n_queries == 1,
                )
            seen += hi - lo
            lo = hi

    def _replay(self, lanes, rows, values, lane_major: bool) -> None:
        """Apply screened survivors ``(lane, row, value)`` to their lanes.

        ``lane_major`` says the arrays are already sorted by lane with
        each lane's survivors in arrival order; otherwise arrival order
        within a lane must be ascending row order.
        """
        if len(lanes) < _LOCKSTEP_MIN_WIDTH:  # cannot fill even one step
            self._replay_scalar(lanes, rows, values)
            return
        counts = np.bincount(lanes, minlength=self.n_queries)
        depth = int(counts.max())
        if len(lanes) < _LOCKSTEP_MIN_WIDTH * depth:
            self._replay_scalar(lanes, rows, values)
            return
        if not lane_major:
            # (lane, row) pairs are unique, so one unstable sort of the
            # combined key groups by lane and keeps arrival order.
            order = np.argsort(lanes * (int(rows.max()) + 1) + rows)
            rows, values = rows[order], values[order]
        # Deepest lanes first: the lanes still active at step r are then a
        # prefix, and lane l's r-th survivor sits at starts[l] + r.
        active = np.flatnonzero(counts)
        active = active[np.argsort(-counts[active], kind="stable")]
        starts = (np.cumsum(counts) - counts)[active]
        widths = len(active) - np.cumsum(np.bincount(counts[active]))
        ordinal = np.arange(len(active))
        for step in range(depth):
            width = int(widths[step])
            at = starts[:width] + step
            lane = active[:width]
            value = values[at]
            pad = self._vals[lane]
            slot = pad.argmin(axis=1)  # first minimum, as the tracker's
            worst = pad[ordinal[:width], slot]
            accept = value >= worst
            lane, slot = lane[accept], slot[accept]
            self._vals[lane, slot] = value[accept]
            self._rows[lane, slot] = rows[at][accept]
            self._accepts[lane] += 1

    def _replay_scalar(self, lanes, rows, values) -> None:
        """Survivor-by-survivor replay on list copies of the touched lanes:
        ``min()``/``list.index()`` on k≈8 entries beat NumPy call overhead
        by an order of magnitude when few lanes have survivors."""
        touched = {}
        for lane, row, value in zip(lanes.tolist(), rows.tolist(), values.tolist()):
            state = touched.get(lane)
            if state is None:
                pad = self._vals[lane].tolist()
                state = touched[lane] = [pad, self._rows[lane].tolist(), min(pad), 0]
            pad, pad_rows, worst, _ = state
            if value >= worst:
                slot = pad.index(worst)
                pad[slot] = value
                pad_rows[slot] = row
                state[2] = min(pad)
                state[3] += 1
        for lane, (pad, pad_rows, _, accepted) in touched.items():
            if accepted:
                self._vals[lane] = pad
                self._rows[lane] = pad_rows
                self._accepts[lane] += accepted

    def _fold_sequential(self, row_values, row_ids, lane0: int) -> None:
        """Non-finite block: mirror ``TopKTracker.insert`` row by row on
        lanes ``lane0`` onwards (one per row of ``row_values``; column
        ``j`` is row ``row_ids[j]``).

        ``list.index(min(...))`` picks the first minimal slot exactly as
        the tracker's priority-encoder argmin does — including an accepted
        −inf, which lands on (and keeps re-targeting) the first −inf slot
        rather than the next free one; NaN fails ``>=`` and is never
        accepted, so scratchpad values (and hence ``min``) stay NaN-free.
        """
        lanes = slice(lane0, lane0 + row_values.shape[0])
        pads = self._vals[lanes].tolist()
        pad_rows = self._rows[lanes].tolist()
        ids = row_ids.tolist()
        accepts = []
        for pad, rows, values in zip(pads, pad_rows, row_values.tolist()):
            worst = min(pad)
            accepted = 0
            for row, value in zip(ids, values):
                if value >= worst:
                    slot = pad.index(worst)
                    pad[slot] = value
                    rows[slot] = row
                    accepted += 1
                    worst = min(pad)
            accepts.append(accepted)
        self._vals[lanes] = pads
        self._rows[lanes] = pad_rows
        self._accepts[lanes] += accepts

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def finish_dense(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Sorted ``(vals, rows, accepts)`` snapshot, freshly allocated.

        Every lane is ordered (desc value, asc row) with its unfilled
        slots (``row == -1``, ``value == -inf``) last — after any accepted
        −inf, which carries a real row id.
        """
        order = dense_order(self._rows, self._vals)
        return (
            np.take_along_axis(self._vals, order, axis=1),
            np.take_along_axis(self._rows, order, axis=1),
            self._accepts.copy(),
        )

    def finish(self) -> "tuple[list[TopKResult], np.ndarray]":
        """Snapshot per-lane results (desc value, asc row) + accept counts."""
        vals, rows, accepts = self.finish_dense()
        return results_from_dense(rows, vals), accepts


def batch_scratchpads(
    row_values: np.ndarray, local_k: int
) -> "tuple[list[TopKResult], np.ndarray]":
    """Every query's scratchpad over one full ``(Q, n_rows)`` score block.

    One fold of the whole block — bit-identical to sequential per-query
    :class:`~repro.core.topk_tracker.TopKTracker` inserts in row order.
    """
    pads = BatchScratchpads(row_values.shape[0], local_k)
    pads.fold(np.asarray(row_values, dtype=np.float64), 0)
    return pads.finish()
