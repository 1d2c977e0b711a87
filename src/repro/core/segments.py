"""Segmented mutable collections: LSM-style incremental ingest + compaction.

:class:`~repro.core.collection.CompiledCollection` is compiled once and
frozen — the right shape for the paper's one-shot preprocessing, the wrong
shape for a serving system where embedding rows arrive, change and get
deleted continuously.  This module splits the collection layer the way an
LSM tree splits a sorted store:

* a :class:`Segment` is one *immutable* compiled artifact (a full BS-CSR
  ``CompiledCollection`` with its own digest, stream plans and optional
  contraction operand) plus the two bits of mutable bookkeeping a frozen
  artifact cannot carry: the stable **row keys** of its rows and a
  **tombstone mask** marking rows deleted (or superseded) since sealing;
* a :class:`SegmentedCollection` is an ordered list of segments plus a
  mutable in-memory **delta buffer** receiving appends/updates/deletes.
  The delta is sealed into a new segment when it reaches ``seal_rows`` live
  rows, and :meth:`~SegmentedCollection.compact` rewrites segment runs into
  one, dropping tombstoned rows.

Row identity
------------
Every ingested row gets a monotonically increasing integer **key**, stable
across seal and compaction.  Queries run against the *live logical matrix*:
the live rows of every segment in order, then the live delta rows — results
carry positions in that ordering (what a fresh ``compile_collection`` of
the same matrix would use), and :meth:`SegmentedCollection.live_keys` /
:meth:`SegmentedCollection.keys_for` translate positions back to stable
keys.  An *update* tombstones the key's current row and appends the new
version to the delta, so an updated row moves to the end of the ordering.

Equivalence guarantee
---------------------
After any sequence of ingest/update/delete/seal/compact operations, query
results through the multi-segment driver
(:func:`repro.core.kernels.segmented.run_segmented`) are bit-identical to a
fresh ``compile_collection`` of the equivalent final matrix, for every
kernel backend and codec — see that module for the argument, and
``tests/property/test_prop_segments.py`` for the lock.  The same driver
serves frozen artifacts (as one-segment collections) and every fleet, so an
engine over the fresh compile returns those bits too
(``tests/property/test_prop_one_driver.py``).  Engines also time their
boards from this layout: core ``p`` streams partition ``p`` of every
segment, the delta snapshot riding on core 0.

Persistence
-----------
:meth:`SegmentedCollection.save` writes a *manifest directory* (see
:func:`repro.formats.io.save_manifest`): one ``segment-<digest16>.npz``
artifact per segment — reused verbatim when a segment with the same digest
was already saved, so compaction and delta churn never rewrite unchanged
segments — plus a ``state.npz`` artifact (keys, tombstones, delta rows) and
the ``MANIFEST.json`` carrying the collection *generation*.
:meth:`SegmentedCollection.load` also accepts a plain collection
``.npz``, adopting it verbatim as a pristine one-segment collection (the
artifact keeps its digest and aux buffers) — no migration needed.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from repro.core.collection import (
    COLLECTION_KIND,
    CompiledCollection,
    compile_collection,
    resolve_design,
)
from repro.errors import ConfigurationError, FormatError
from repro.formats.csr import CSRMatrix
from repro.formats.io import load_artifact, load_manifest, save_artifact, save_manifest
from repro.hw.design import AcceleratorDesign
from repro.utils.validation import check_positive_int

__all__ = [
    "Segment",
    "SegmentedCollection",
    "SEGMENT_MANIFEST_KIND",
    "SEGMENT_STATE_KIND",
    "DEFAULT_SEAL_ROWS",
]

#: Manifest ``kind`` of a persisted segmented collection.
SEGMENT_MANIFEST_KIND = "segmented-collection"

#: Artifact ``kind`` of the mutable-state member (keys, tombstones, delta).
SEGMENT_STATE_KIND = "segmented-state"

#: Default delta-buffer seal threshold (live rows).
DEFAULT_SEAL_ROWS = 4096

#: Delta "segment index" in the key-location map.
_DELTA = -1

#: Minimum rows per partition stream when sealing or merging a segment: a
#: small segment spreads over proportionally fewer HBM channels, so its
#: compile cost scales with its size instead of paying ``design.cores``
#: near-empty encoder calls.  Partition count never affects result bits
#: (the driver folds rows in order regardless), only timing balance.
_MIN_SEGMENT_ROWS_PER_PARTITION = 256


@dataclass
class Segment:
    """One immutable compiled artifact inside a segmented collection.

    ``artifact`` is a standard :class:`CompiledCollection`; ``keys`` are the
    stable row keys of its rows (artifact row ``i`` is key ``keys[i]``) and
    ``live`` is the tombstone mask (``False`` = deleted or superseded).
    The artifact is never modified — deletes only flip mask bits, and the
    dead rows disappear physically at the next :meth:`SegmentedCollection.
    compact`.
    """

    artifact: CompiledCollection
    keys: np.ndarray
    live: np.ndarray
    _live_cum: "np.ndarray | None" = field(default=None, repr=False)
    _n_live: "int | None" = field(default=None, repr=False)
    _derived: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self.keys = np.ascontiguousarray(self.keys, dtype=np.int64)
        self.live = np.ascontiguousarray(self.live, dtype=bool)
        if len(self.keys) != self.artifact.n_rows or len(self.live) != self.artifact.n_rows:
            raise ConfigurationError(
                f"segment bookkeeping covers {len(self.keys)} keys / "
                f"{len(self.live)} mask bits for {self.artifact.n_rows} rows"
            )

    @property
    def n_rows(self) -> int:
        """Physical rows in the artifact (tombstoned included)."""
        return self.artifact.n_rows

    @property
    def n_live(self) -> int:
        """Rows still visible to queries."""
        if self._n_live is None:
            self._n_live = int(self.live.sum())
        return self._n_live

    @property
    def all_live(self) -> bool:
        """True when the segment carries no tombstones."""
        return self.n_live == self.n_rows

    @property
    def digest(self) -> str:
        """The underlying artifact's content digest."""
        return self.artifact.digest

    def live_cumsum(self) -> np.ndarray:
        """``live_cumsum()[r]`` = live rows strictly before row ``r`` (len n_rows+1).

        Cached per tombstone state; this is what maps a physical row to its
        position in the live logical matrix.
        """
        if self._live_cum is None:
            self._live_cum = np.concatenate(
                [[0], np.cumsum(self.live, dtype=np.int64)]
            )
        return self._live_cum

    def derived(self, key, build):
        """``build()`` memoised per ``key`` and tombstone state.

        Home of the query-independent precomputes the segmented driver
        derives from the immutable artifact *and* the mask (screen bounds,
        live-row ids); :meth:`tombstone` drops them with the other caches.
        """
        value = self._derived.get(key)
        if value is None:
            value = self._derived[key] = build()
        return value

    def tombstone(self, row: int) -> None:
        """Mark one physical row dead (idempotence is the caller's job)."""
        self.live[row] = False
        self._live_cum = None
        self._n_live = None
        self._derived = {}


class _DeltaBuffer:
    """The mutable in-memory tail of a segmented collection.

    Rows arrive as whole CSR *blocks* (one per ingest call, one-row blocks
    for updates) so an ingest is O(1) bookkeeping plus the block handle —
    no per-row Python loop, which is what keeps incremental ingest an
    order of magnitude ahead of a full recompile.  Keys and tombstones are
    tracked per row in arrival order; every query-facing consumer reads
    the buffer through the collection's lazily compiled snapshot
    (:meth:`SegmentedCollection.compiled_delta`), never directly.
    """

    def __init__(self, n_cols: int):
        self.n_cols = int(n_cols)
        self.blocks: "list[CSRMatrix]" = []
        self.keys: "list[int]" = []
        self.live: "list[bool]" = []
        self.n_live = 0

    def __len__(self) -> int:
        return len(self.keys)

    def append_block(self, block: CSRMatrix, keys: np.ndarray) -> int:
        """Add one live CSR block; returns its first buffer position."""
        if block.n_cols != self.n_cols:
            raise ConfigurationError(
                f"ingested rows have {block.n_cols} columns, collection "
                f"holds {self.n_cols}"
            )
        if block.n_rows != len(keys):
            raise ConfigurationError(
                f"{len(keys)} keys supplied for {block.n_rows} rows"
            )
        first = len(self.keys)
        self.blocks.append(block)
        self.keys.extend(int(k) for k in keys)
        self.live.extend([True] * block.n_rows)
        self.n_live += block.n_rows
        return first

    def tombstone(self, pos: int) -> None:
        self.live[pos] = False
        self.n_live -= 1

    def live_rows(self) -> "tuple[CSRMatrix, np.ndarray]":
        """The live buffered rows, arrival order, as (CSRMatrix, keys)."""
        if not self.blocks:
            return _empty_csr(self.n_cols), np.empty(0, dtype=np.int64)
        import scipy.sparse as sp

        stacked = (
            sp.vstack([b.to_scipy() for b in self.blocks], format="csr")
            if len(self.blocks) > 1
            else self.blocks[0].to_scipy()
        )
        live = np.array(self.live, dtype=bool)
        if not live.all():
            stacked = stacked[np.nonzero(live)[0]]
        csr = CSRMatrix(
            indptr=stacked.indptr,
            indices=stacked.indices,
            data=stacked.data,
            n_cols=self.n_cols,
        )
        return csr, np.array(self.keys, dtype=np.int64)[live]

    def clear(self) -> None:
        self.blocks = []
        self.keys = []
        self.live = []
        self.n_live = 0


def _block_token(block: CSRMatrix) -> str:
    """Short content hash of one ingested/updated CSR block (see state_token)."""
    sha = hashlib.sha256()
    sha.update(block.indptr.tobytes())
    sha.update(block.indices.tobytes())
    sha.update(block.data.tobytes())
    return sha.hexdigest()[:16]


def _empty_csr(n_cols: int) -> CSRMatrix:
    return CSRMatrix(
        indptr=np.zeros(1, dtype=np.int64),
        indices=np.empty(0, dtype=np.int64),
        data=np.empty(0, dtype=np.float64),
        n_cols=n_cols,
    )


def _vstack_csr(blocks, n_cols: int) -> CSRMatrix:
    """Stack SciPy CSR blocks (all of width ``n_cols``) into one CSRMatrix."""
    if not blocks:
        return _empty_csr(n_cols)
    import scipy.sparse as sp

    stacked = sp.vstack(blocks, format="csr") if len(blocks) > 1 else blocks[0]
    return CSRMatrix(
        indptr=stacked.indptr,
        indices=stacked.indices,
        data=stacked.data,
        n_cols=n_cols,
    )


def _as_row_block(rows, n_cols: int) -> CSRMatrix:
    """Coerce an ingest payload into one canonical CSR block."""
    from repro.core.engine import as_csr_matrix  # deferred: engine imports us

    if isinstance(rows, (list, tuple)) and (
        not rows or isinstance(rows[0], tuple)
    ):
        pairs = [_check_row_pair(ind, val, n_cols) for ind, val in rows]
        return CSRMatrix.from_rows(pairs, n_cols=n_cols)
    csr = as_csr_matrix(rows)
    if csr.n_cols != n_cols:
        raise ConfigurationError(
            f"ingested rows have {csr.n_cols} columns, collection holds {n_cols}"
        )
    return csr


def _check_row_pair(
    indices, values, n_cols: int
) -> "tuple[np.ndarray, np.ndarray]":
    indices = np.ascontiguousarray(indices, dtype=np.int64)
    values = np.ascontiguousarray(values, dtype=np.float64)
    if indices.shape != values.shape or indices.ndim != 1:
        raise ConfigurationError(
            f"a sparse row needs equal-length 1-D indices/values, got "
            f"{indices.shape} / {values.shape}"
        )
    if len(indices) and (indices.min() < 0 or indices.max() >= n_cols):
        raise ConfigurationError(
            f"row has column indices outside [0, {n_cols})"
        )
    if len(indices) > 1 and (np.diff(indices) <= 0).any():
        raise ConfigurationError(
            "row needs strictly increasing column indices"
        )
    return indices, values


def _as_one_row(row, n_cols: int) -> CSRMatrix:
    """Coerce one updated row — dense 1-D vector or (indices, values) pair —
    into a one-row CSR block."""
    if isinstance(row, tuple) and len(row) == 2:
        return CSRMatrix.from_rows(
            [_check_row_pair(row[0], row[1], n_cols)], n_cols=n_cols
        )
    dense = np.asarray(row, dtype=np.float64)
    if dense.ndim != 1 or dense.shape[0] != n_cols:
        raise ConfigurationError(
            f"updated row must be a ({n_cols},) vector or an (indices, values) "
            f"pair, got shape {dense.shape}"
        )
    cols = np.nonzero(dense)[0].astype(np.int64)
    return CSRMatrix.from_rows([(cols, dense[cols])], n_cols=n_cols)


class SegmentedCollection:
    """An ordered list of immutable segments plus a mutable delta buffer.

    Construct via :meth:`from_matrix` (compile an initial collection),
    :meth:`from_collection` (wrap an existing compiled artifact — zero
    re-encode) or :meth:`load`.  See the module docstring for the data
    model; every mutation bumps :attr:`generation`, which together with
    :attr:`digest` versions the collection for caches and routing.
    """

    def __init__(
        self,
        design: AcceleratorDesign,
        n_cols: int,
        segments: "list[Segment] | None" = None,
        seal_rows: int = DEFAULT_SEAL_ROWS,
    ):
        self.design = design
        self.n_cols = int(n_cols)
        self.seal_rows = check_positive_int(seal_rows, "seal_rows")
        self.segments: "list[Segment]" = list(segments or [])
        self.delta = _DeltaBuffer(self.n_cols)
        self.generation = 0
        self._state_token = "0"
        self._next_key = 0
        #: key -> (segment index | _DELTA, physical row) for every live key;
        #: built lazily on the first delete/update (ingest-only and
        #: query-only workloads never pay the O(n) index build).
        self._locations: "dict[int, tuple[int, int]] | None" = None
        self._caches: dict = {}
        for segment in self.segments:
            if len(segment.keys):
                self._next_key = max(
                    self._next_key, int(segment.keys.max()) + 1
                )

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_collection(
        cls,
        collection: CompiledCollection,
        keys: "np.ndarray | None" = None,
        seal_rows: int = DEFAULT_SEAL_ROWS,
    ) -> "SegmentedCollection":
        """Wrap one compiled artifact as a pristine 1-segment collection.

        The artifact is adopted verbatim (streams, plans, operand, digest);
        rows get keys ``0..n_rows-1`` unless ``keys`` overrides them.
        """
        if keys is None:
            keys = np.arange(collection.n_rows, dtype=np.int64)
        segment = Segment(
            artifact=collection,
            keys=keys,
            live=np.ones(collection.n_rows, dtype=bool),
        )
        out = cls(
            design=collection.design,
            n_cols=collection.n_cols,
            segments=[segment] if collection.n_rows else [],
            seal_rows=seal_rows,
        )
        return out

    @classmethod
    def from_matrix(
        cls,
        matrix,
        design: "AcceleratorDesign | None" = None,
        seal_rows: int = DEFAULT_SEAL_ROWS,
    ) -> "SegmentedCollection":
        """Compile an initial collection and wrap it as one segment."""
        from repro.core.engine import as_csr_matrix  # deferred: engine imports us

        csr = as_csr_matrix(matrix)
        design = resolve_design(csr, design)
        if csr.n_rows == 0:
            return cls(design=design, n_cols=csr.n_cols, seal_rows=seal_rows)
        return cls.from_collection(
            compile_collection(csr, design), seal_rows=seal_rows
        )

    def _key_locations(self) -> "dict[int, tuple[int, int]]":
        """The live key index, built on first use (duplicates rejected)."""
        if self._locations is None:
            locations: "dict[int, tuple[int, int]]" = {}
            expected = 0
            for s, segment in enumerate(self.segments):
                rows = np.nonzero(segment.live)[0]
                locations.update(
                    zip(
                        segment.keys[rows].tolist(),
                        ((s, row) for row in rows.tolist()),
                    )
                )
                expected += len(rows)
            for pos, (key, alive) in enumerate(
                zip(self.delta.keys, self.delta.live)
            ):
                if alive:
                    locations[key] = (_DELTA, pos)
                    expected += 1
            if len(locations) != expected:
                raise ConfigurationError(
                    "segmented collection holds duplicate live row keys"
                )
            self._locations = locations
        return self._locations

    # ------------------------------------------------------------------ #
    # Shape, identity, caches
    # ------------------------------------------------------------------ #
    @property
    def n_segments(self) -> int:
        return len(self.segments)

    @property
    def n_live(self) -> int:
        """Rows visible to queries (segments + delta, tombstones excluded)."""
        return sum(s.n_live for s in self.segments) + self.delta.n_live

    @property
    def n_rows(self) -> int:
        """Alias of :attr:`n_live` (the logical matrix row count)."""
        return self.n_live

    @property
    def digest(self) -> str:
        """Content identity of the *sealed* tier: the ordered segment digests
        hashed under a ``segmented-collection:`` namespace.

        Namespaced apart from a frozen artifact's digest even for a
        pristine 1-segment wrap.  The two answer every query with the same
        bits (one driver serves both); the namespace only keeps the two
        kinds of identity apart — this one names an ordered segment list
        that mutates under it, not one immutable artifact.  The wrapped
        artifact itself keeps its digest (``segments[0].digest``) —
        adoption is still migration-free.
        Tombstones and the delta buffer are excluded here — they are
        versioned by :attr:`generation`, and every mutation (including mask
        flips) bumps it, so ``(digest, generation)`` always changes when
        results could.
        """
        cached = self._caches.get("digest")
        if cached is None:
            sha = hashlib.sha256(b"segmented-collection:")
            for segment in self.segments:
                sha.update(segment.digest.encode())
                sha.update(b",")
            cached = self._caches["digest"] = sha.hexdigest()
        return cached

    @property
    def state_token(self) -> str:
        """``"<generation>:<chain>"`` — the mutable tier's version string.

        The chain is a running hash over every mutation *and its content*
        (ingested bytes, updated rows, deleted keys, sealed/compacted
        segment digests), so two collections that loaded the same snapshot
        and then diverged — even by the same *number* of mutations — carry
        different tokens.  A bare generation counter cannot promise that
        across processes; ``(digest, state_token)`` can, which is what the
        serving tier keys caches and routing on.
        """
        return f"{self.generation}:{self._state_token}"

    @property
    def version(self) -> "tuple[str, str]":
        """``(digest, state_token)`` — the cache/routing key of this state."""
        return (self.digest, self.state_token)

    def _bump(self, *tag) -> None:
        self.generation += 1
        self._state_token = hashlib.sha256(
            "|".join([self._state_token, *map(str, tag)]).encode()
        ).hexdigest()[:16]
        self._caches = {}

    @property
    def matrix(self) -> CSRMatrix:
        """The live logical matrix (original float64 rows, query order).

        Built lazily and cached per generation: segments' live rows in
        segment order, then the live delta rows.  This is exactly the
        matrix a fresh ``compile_collection`` equivalent would be built
        from, so positions in it match query-result indices.
        """
        cached = self._caches.get("matrix")
        if cached is not None:
            return cached
        blocks = []
        for segment in self.segments:
            block = segment.artifact.matrix.to_scipy()
            if not segment.all_live:
                block = block[np.nonzero(segment.live)[0]]
            blocks.append(block)
        delta_csr, _ = self.delta.live_rows()
        if delta_csr.n_rows:
            blocks.append(delta_csr.to_scipy())
        matrix = _vstack_csr(blocks, self.n_cols)
        self._caches["matrix"] = matrix
        return matrix

    def live_keys(self) -> np.ndarray:
        """Stable keys of the live rows, in query (position) order."""
        cached = self._caches.get("live_keys")
        if cached is not None:
            return cached
        parts = [s.keys[s.live] for s in self.segments]
        _, delta_keys = self.delta.live_rows()
        parts.append(delta_keys)
        keys = (
            np.concatenate(parts)
            if parts
            else np.empty(0, dtype=np.int64)
        )
        self._caches["live_keys"] = keys
        return keys

    def keys_for(self, positions: np.ndarray) -> np.ndarray:
        """Translate query-result positions into stable row keys."""
        return self.live_keys()[np.asarray(positions, dtype=np.int64)]

    def compiled_delta(self) -> "CompiledCollection | None":
        """The live delta rows compiled as a 1-partition snapshot.

        Rebuilt lazily per generation (the delta is bounded by the seal
        threshold, so this is the small, cheap tail of every query);
        ``None`` when the delta holds no live rows.
        """
        if "delta" in self._caches:
            return self._caches["delta"]
        if self.delta.n_live == 0:
            compiled = None
        else:
            csr, _ = self.delta.live_rows()
            compiled = compile_collection(csr, self.design, n_partitions=1)
        self._caches["delta"] = compiled
        return compiled

    def describe(self) -> str:
        """Multi-line summary of the segmented collection."""
        lines = [
            self.design.describe(),
            f"segmented: {self.n_segments} segment(s) + "
            f"{self.delta.n_live} delta row(s), {self.n_live} live rows x "
            f"{self.n_cols} cols, generation {self.generation}",
        ]
        for s, segment in enumerate(self.segments):
            lines.append(
                f"  segment {s}: {segment.n_live}/{segment.n_rows} live rows, "
                f"{segment.artifact.nnz} nnz, digest {segment.digest[:16]}…"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def ingest(self, rows) -> np.ndarray:
        """Append new rows; returns their stable keys.

        ``rows`` may be a dense 2-D array, a :class:`CSRMatrix`, a SciPy
        sparse matrix, or a list of ``(indices, values)`` pairs.  The whole
        batch lands in the delta buffer as one block — no per-row work, no
        re-encode of any sealed segment — and the buffer auto-seals into a
        new segment when it reaches ``seal_rows`` live rows.
        """
        block = _as_row_block(rows, self.n_cols)
        if block.n_rows == 0:
            return np.empty(0, dtype=np.int64)
        keys = np.arange(
            self._next_key, self._next_key + block.n_rows, dtype=np.int64
        )
        first = self.delta.append_block(block, keys)
        if self._locations is not None:
            for i, key in enumerate(keys.tolist()):
                self._locations[key] = (_DELTA, first + i)
        self._next_key += block.n_rows
        self._bump("ingest", int(keys[0]), _block_token(block))
        if self.delta.n_live >= self.seal_rows:
            self.seal()
        return keys

    def delete(self, keys) -> int:
        """Tombstone rows by stable key; returns the number deleted.

        Raises :class:`~repro.errors.ConfigurationError` on an unknown (or
        already deleted) key — silent no-op deletes hide caller bugs.  The
        whole batch is validated before anything is tombstoned, so a failed
        delete leaves the collection (and its generation) untouched.
        """
        keys = np.atleast_1d(np.asarray(keys, dtype=np.int64))
        locations = self._key_locations()
        resolved = []
        seen = set()
        for key in keys.tolist():
            key = int(key)
            loc = locations.get(key)
            if loc is None or key in seen:
                raise ConfigurationError(
                    f"row key {key} is not live in this collection"
                )
            seen.add(key)
            resolved.append((key, loc))
        for key, (where, row) in resolved:
            del locations[key]
            if where == _DELTA:
                self.delta.tombstone(row)
            else:
                self.segments[where].tombstone(row)
        self._bump("delete", *keys.tolist())
        return len(keys)

    def update(self, key: int, row) -> None:
        """Replace one row's embedding, keeping its stable key.

        The current version is tombstoned where it lives (segment or delta)
        and the new version appended to the delta — so an updated row moves
        to the end of the query ordering, exactly as if it were deleted and
        re-ingested with its old key.
        """
        key = int(key)
        block = _as_one_row(row, self.n_cols)
        self._tombstone_key(key)
        pos = self.delta.append_block(block, np.array([key], dtype=np.int64))
        self._key_locations()[key] = (_DELTA, pos)
        self._bump("update", key, _block_token(block))
        if self.delta.n_live >= self.seal_rows:
            self.seal()

    def _tombstone_key(self, key: int) -> None:
        try:
            where, row = self._key_locations().pop(int(key))
        except KeyError:
            raise ConfigurationError(
                f"row key {key} is not live in this collection"
            ) from None
        if where == _DELTA:
            self.delta.tombstone(row)
        else:
            self.segments[where].tombstone(row)

    def seal(self) -> bool:
        """Freeze the delta buffer into a new immutable segment.

        Dead delta rows are dropped in the process.  Returns True when a
        segment was produced (False on an empty/all-dead delta, which is
        still cleared).
        """
        csr, keys = self.delta.live_rows()
        had_rows = len(self.delta) > 0
        self.delta.clear()
        if csr.n_rows == 0:
            if had_rows:
                self._bump("seal-empty")
            return False
        artifact = compile_collection(
            csr, self.design, n_partitions=self._segment_partitions(csr.n_rows)
        )
        segment = Segment(
            artifact=artifact,
            keys=keys,
            live=np.ones(csr.n_rows, dtype=bool),
        )
        self.segments.append(segment)
        if self._locations is not None:
            s = len(self.segments) - 1
            for row, key in enumerate(keys.tolist()):
                self._locations[key] = (s, row)
        self._bump("seal", segment.digest)
        return True

    def compact(
        self, include_delta: bool = True, keep_clean_over: "int | None" = None
    ) -> int:
        """Rewrite segment runs into one, dropping tombstoned rows.

        Adjacent segments are merged (the query ordering — segments in
        order — is preserved, which the equivalence guarantee depends on);
        a tombstone-free segment with at least ``keep_clean_over`` live
        rows is left untouched and breaks the run around it, so large
        settled segments are reused verbatim (zero re-encode, zero rewrite
        on the next :meth:`save`).  ``keep_clean_over=None`` (default)
        compacts everything into a single segment.  With ``include_delta``
        the delta buffer is sealed first, so a full compaction leaves one
        segment and an empty delta.  Returns the number of segments
        rewritten.
        """
        if include_delta:
            self.seal()

        def keeps(segment: Segment) -> bool:
            return (
                keep_clean_over is not None
                and segment.all_live
                and segment.n_live >= keep_clean_over
            )

        new_segments: "list[Segment]" = []
        run: "list[Segment]" = []
        rewritten = 0

        def flush() -> None:
            nonlocal rewritten
            if not run:
                return
            if len(run) == 1 and run[0].all_live:
                new_segments.append(run[0])  # nothing to rewrite
            else:
                merged = self._merge_segments(run)
                if merged is not None:  # a run of pure tombstones vanishes
                    new_segments.append(merged)
                rewritten += len(run)
            run.clear()

        for segment in self.segments:
            if keeps(segment):
                flush()
                new_segments.append(segment)
            else:
                run.append(segment)
        flush()
        if rewritten == 0 and len(new_segments) == len(self.segments):
            return 0
        self.segments = new_segments
        self._locations = None  # rebuilt lazily against the new layout
        self._bump("compact", *[s.digest for s in new_segments])
        return rewritten

    def _segment_partitions(self, n_rows: int) -> int:
        """Channels a sealed/merged segment spreads over (see the constant)."""
        return max(
            1,
            min(
                self.design.cores,
                -(-n_rows // _MIN_SEGMENT_ROWS_PER_PARTITION),
            ),
        )

    def _merge_segments(self, run: "list[Segment]") -> "Segment | None":
        """Compile one segment from a run's live rows (order preserved).

        ``None`` when the run holds no live rows (it was all tombstones).
        """
        blocks = []
        keys = []
        for segment in run:
            alive = np.nonzero(segment.live)[0]
            if len(alive) == 0:
                continue
            block = segment.artifact.matrix.to_scipy()
            if not segment.all_live:
                block = block[alive]
            blocks.append(block)
            keys.append(segment.keys[alive])
        if not blocks:
            return None
        merged = _vstack_csr(blocks, self.n_cols)
        artifact = compile_collection(
            merged, self.design, n_partitions=self._segment_partitions(merged.n_rows)
        )
        all_keys = np.concatenate(keys)
        return Segment(
            artifact=artifact,
            keys=all_keys,
            live=np.ones(len(all_keys), dtype=bool),
        )

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, path) -> None:
        """Persist as a manifest directory (see module docstring).

        Segment artifacts are written content-addressed
        (``segment-<digest16>.npz``); a file already present for the same
        digest is reused without a rewrite, so successive saves only pay
        for *new* segments plus the small state artifact and manifest.
        """
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        members = []
        for segment in self.segments:
            digest = segment.digest
            name = f"segment-{digest[:16]}.npz"
            target = path / name
            if not target.exists():
                # Write-then-rename: a crash mid-write must not leave a
                # truncated file that later saves would skip as "present".
                tmp = path / (name + ".tmp")
                segment.artifact.save(tmp)
                tmp.replace(target)
            members.append(
                {
                    "file": name,
                    "digest": digest,
                    "n_rows": segment.n_rows,
                    "n_live": segment.n_live,
                }
            )
        state_name = "state.npz"
        state_tmp = path / (state_name + ".tmp")
        save_artifact(
            state_tmp,
            SEGMENT_STATE_KIND,
            self._state_header(),
            self._state_arrays(),
        )
        state_tmp.replace(path / state_name)
        save_manifest(
            path,
            SEGMENT_MANIFEST_KIND,
            {
                "generation": self.generation,
                "n_cols": self.n_cols,
                "seal_rows": self.seal_rows,
                "next_key": self._next_key,
                "design": asdict(self.design),
                "state_file": state_name,
                "digest": self.digest,
            },
            members,
        )

    def _state_header(self) -> dict:
        return {
            "generation": self.generation,
            "state_token": self._state_token,
            "n_cols": self.n_cols,
            "n_segments": self.n_segments,
            "delta_rows": int(self.delta.n_live),
        }

    def _state_arrays(self) -> "dict[str, np.ndarray]":
        seg_rows = np.array([s.n_rows for s in self.segments], dtype=np.int64)
        keys = (
            np.concatenate([s.keys for s in self.segments])
            if self.segments
            else np.empty(0, dtype=np.int64)
        )
        live = (
            np.concatenate([s.live for s in self.segments])
            if self.segments
            else np.empty(0, dtype=bool)
        )
        delta_csr, delta_keys = self.delta.live_rows()
        return {
            "segment_rows": seg_rows,
            "keys": keys,
            "live": live,
            "delta_indptr": delta_csr.indptr,
            "delta_indices": delta_csr.indices,
            "delta_data": delta_csr.data,
            "delta_keys": delta_keys,
        }

    @classmethod
    def load(cls, path, verify: bool = True) -> "SegmentedCollection":
        """Reload a manifest directory — or adopt a plain collection ``.npz``.

        A plain PR-2/PR-4 ``CompiledCollection`` artifact loads as a
        pristine 1-segment collection: the artifact is adopted verbatim
        (its digest and aux operand buffers unchanged), keys
        ``0..n_rows-1`` — no migration, no re-encode.
        """
        path = Path(path)
        if path.is_file():
            return cls.from_collection(CompiledCollection.load(path, verify=verify))
        header, members = load_manifest(path, SEGMENT_MANIFEST_KIND)
        try:
            design = AcceleratorDesign(**header["design"])
            seal_rows = int(header["seal_rows"])
            state_header, state = load_artifact(
                path / str(header["state_file"]), SEGMENT_STATE_KIND, verify=verify
            )
            if int(state_header["generation"]) != int(header["generation"]):
                raise FormatError(
                    f"{path}: state generation "
                    f"{state_header['generation']} disagrees with the "
                    f"manifest's {header['generation']} — torn save; "
                    "re-save the collection"
                )
            segments = []
            offset = 0
            seg_rows = state["segment_rows"]
            if len(seg_rows) != len(members):
                raise FormatError(
                    f"{path}: state holds {len(seg_rows)} segments, manifest "
                    f"lists {len(members)}"
                )
            for entry, n_rows in zip(members, seg_rows.tolist()):
                artifact = CompiledCollection.load(
                    path / str(entry["file"]), verify=verify
                )
                if artifact.digest != entry["digest"]:
                    raise FormatError(
                        f"{path}: segment {entry['file']} digest disagrees "
                        "with the manifest"
                    )
                if artifact.n_rows != n_rows:
                    raise FormatError(
                        f"{path}: segment {entry['file']} holds "
                        f"{artifact.n_rows} rows, state expects {n_rows}"
                    )
                segments.append(
                    Segment(
                        artifact=artifact,
                        keys=state["keys"][offset : offset + n_rows],
                        live=state["live"][offset : offset + n_rows],
                    )
                )
                offset += n_rows
            out = cls(
                design=design,
                n_cols=int(header["n_cols"]),
                segments=segments,
                seal_rows=seal_rows,
            )
            delta_csr = CSRMatrix(
                indptr=state["delta_indptr"],
                indices=state["delta_indices"],
                data=state["delta_data"],
                n_cols=int(header["n_cols"]),
            )
            delta_keys = state["delta_keys"]
            if delta_csr.n_rows:
                out.delta.append_block(delta_csr, delta_keys)
            out.generation = int(header["generation"])
            out._state_token = str(state_header["state_token"])
            out._next_key = max(out._next_key, int(header["next_key"]))
            return out
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(
                f"{path} has an incomplete segmented-collection manifest"
            ) from exc
