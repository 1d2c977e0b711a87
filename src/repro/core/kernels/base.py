"""Kernel backend contract and registry for the batch-query hot path.

A *kernel backend* answers one question: given a ``(Q, n_cols)`` quantised
query block and the per-partition :class:`~repro.core.dataflow.StreamPlan`
structures, what are every partition's per-query local Top-K candidates and
tracker-accept counts?  The answer is required to be **bit-identical** —
candidate indices, float bit patterns and accept counts — to
:meth:`repro.core.dataflow.DataflowCore.run_fast` run per query, for both
the float64 (exact fixed-point) and float32 accumulation models.

Backends therefore differ only in *how* they compute the same bits:

``gather``
    The reference: broadcast gather + ``np.add.reduceat`` sweep per
    partition, materialising the full ``(Q, n_rows)`` score block.
``streaming``
    Row-block streaming that folds scores straight into the per-query
    scratchpads and skips whole blocks whose provable score upper bound is
    below every query's eviction threshold — never materialising
    ``(Q, n_rows)``.
``contraction``
    One collection-level sparse·dense product (SciPy CSR), valid only when
    fixed-point value/query grids make float64 accumulation provably exact
    (order-independent); otherwise it falls back automatically.
``native``
    The streaming fold compiled with Numba (optional dependency) — flat
    ``@njit`` loops over the plan buffers reproducing ``np.add.reduceat``'s
    pairwise tree bit for bit; unavailable (and substituted by its
    ``streaming`` fallback) when Numba is absent.
``auto``
    The first backend of the preference order that supports the request.

A backend that cannot guarantee the accumulation order of the current
request must say so via :meth:`KernelBackend.supports`; the one dispatch
rule (:func:`resolve_backend`) then silently substitutes the backend's
declared fallback, so callers always get the guaranteed bits.

A per-partition backend *is* its :meth:`KernelBackend.fold_plan`.  Two thin
drivers decide which Top-K state a plan folds into and share the rest:
:func:`~repro.core.kernels.segmented.run_segmented` (one global
:class:`~repro.core.kernels.selection.RunningTopK`) answers every engine's
``query``/``query_batch``, frozen
or segmented, and :func:`run_kernel` (fresh depth-``local_k`` pads per
partition) models the paper's per-core candidates behind
``query_candidates`` and :func:`~repro.core.dataflow.simulate_multicore_batch`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.core.kernels.executor import (  # noqa: F401 - re-exported API
    EXECUTOR_ENV_VAR,
    WORKERS_ENV_VAR,
    map_partitions,
    resolve_executor,
    resolve_workers,
)
from repro.core.kernels.scratchpad import BatchScratchpads
from repro.core.reference import results_from_dense
from repro.errors import ConfigurationError

__all__ = [
    "KernelRequest",
    "KernelOutput",
    "Queries",
    "KernelBackend",
    "register_kernel",
    "get_kernel",
    "available_kernels",
    "resolve_kernel_name",
    "resolve_workers",
    "resolve_executor",
    "auto_chunk_width",
    "map_partitions",
    "resolve_backend",
    "run_kernel",
    "DEFAULT_KERNEL",
    "FALLBACK_KERNEL",
    "KERNEL_ENV_VAR",
    "WORKERS_ENV_VAR",
    "EXECUTOR_ENV_VAR",
]

#: Environment variable overriding the default backend name.
KERNEL_ENV_VAR = "REPRO_KERNEL"

#: Backend used when none is named (and the env var is unset).
DEFAULT_KERNEL = "auto"

#: Backend substituted when a request is unsupported and the chosen backend
#: declares no fallback of its own.  The gather kernel supports everything.
FALLBACK_KERNEL = "gather"


@dataclass(frozen=True)
class KernelRequest:
    """One batched multicore sweep, fully described.

    Attributes
    ----------
    X:
        ``(Q, n_cols)`` float64 query block *as stored in URAM* (already
        quantised by the caller to the design's query precision).
    plans:
        Per-partition stream plans, in partition order.
    accumulate_dtype:
        ``np.float64`` (exact fixed-point model) or ``np.float32``.
    local_k:
        Per-core scratchpad depth.
    operand:
        Optional collection-level contraction operand
        (:class:`~repro.core.kernels.contraction.ContractionOperand`)
        aligned with ``plans``; ``None`` disables the contraction backend
        unless it is requested by name.
    n_workers:
        Workers for partition-parallel execution (1 = inline).  Partition
        results are written by index, so scheduling cannot change any bit.
    executor:
        ``"thread"`` or ``"process"`` partition fan-out (``None`` defers
        to ``$REPRO_KERNEL_EXECUTOR`` or the thread default); see
        :mod:`repro.core.kernels.executor`.  Bit-neutral like
        ``n_workers``.
    """

    X: np.ndarray
    plans: tuple
    accumulate_dtype: np.dtype
    local_k: int
    operand: "object | None" = None
    n_workers: int = 1
    executor: "str | None" = None

    @property
    def n_queries(self) -> int:
        return int(self.X.shape[0])


@dataclass(frozen=True)
class Queries:
    """The query block of one sweep and its casts, made once per sweep."""

    X: np.ndarray  # (Q, n_cols) float64, as stored in URAM
    Xc: np.ndarray  # X in the accumulate dtype
    xmax: np.ndarray  # (Q,) float64 max |x| — the query half of the bound
    #: The contraction gate certified this sweep's float64 accumulation
    #: exact, hence order-independent: a backend may sum lanes in any order.
    exact: bool = False

    @classmethod
    def of(cls, X: np.ndarray, accumulate_dtype, exact: bool = False) -> "Queries":
        Xc = X.astype(accumulate_dtype)
        xmax = np.abs(Xc).max(axis=1, initial=0.0).astype(np.float64)
        return cls(X, Xc, xmax, exact)

    @property
    def acc(self) -> np.dtype:
        """The accumulate dtype."""
        return self.Xc.dtype

    def __len__(self) -> int:
        return len(self.X)

    def chunk(self, q0: int, q1: int) -> "Queries":
        """Queries ``q0:q1`` (views — queries are independent rows)."""
        return Queries(self.X[q0:q1], self.Xc[q0:q1], self.xmax[q0:q1], self.exact)


@dataclass
class KernelOutput:
    """Per-partition, per-query candidates of one batched sweep, dense.

    ``values[p, q]`` / ``rows[p, q]`` are partition ``p``'s local Top-K
    for query ``q`` — ``(P, Q, local_k)`` float64 / int64 (partition-
    local row ids), each ordered (desc value, asc row) with unfilled
    slots (``row == -1``) last; ``accepts[p, q]`` its tracker-accept
    count.  :attr:`results` views the same candidates as
    :class:`~repro.core.reference.TopKResult` lists.

    ``skipped_rows`` / ``total_rows`` count (row, query) pairs whose
    gather the backend provably skipped vs. screened in this run —
    diagnostics only (never part of any result bit), and zero for
    backends that do not skip.  Being carried on the per-run output,
    they are safe under concurrent engines and thread-parallel
    partitions, unlike any state on the registered backend singleton.
    """

    values: np.ndarray
    rows: np.ndarray
    accepts: np.ndarray
    skipped_rows: int = 0
    total_rows: int = 0

    @property
    def results(self) -> "list[list]":
        """``results[p][q]``: partition ``p``'s local result for query ``q``."""
        return [results_from_dense(r, v) for v, r in zip(self.values, self.rows)]

    @property
    def skip_fraction(self) -> float:
        """Skipped share of this run's (row, query) pairs (0.0 when none)."""
        return self.skipped_rows / self.total_rows if self.total_rows else 0.0


class KernelBackend:
    """Interface every kernel backend implements (see module docstring)."""

    #: Registry name (stable; used by ``--kernel`` and ``REPRO_KERNEL``).
    name: str = ""

    #: Backend substituted by :func:`run_kernel` when :meth:`supports` says
    #: no.  Must itself support every request.
    fallback: str = FALLBACK_KERNEL

    def supports(self, request: KernelRequest) -> bool:
        """Whether this backend can serve ``request`` bit-identically."""
        return True

    def select(self, request: KernelRequest) -> "KernelBackend":
        """The backend ``request`` actually runs on (``auto`` delegates)."""
        return self

    def fold_plan(self, queries: Queries, plan, pads, first_row=0, live=None):
        """Offer one plan's live rows, in stream order, to ``pads``.

        The one entry point of a per-partition backend.  ``pads`` (one lane
        per query: a ``RunningTopK``, or :class:`BatchScratchpads` on the
        candidate path) may be fresh or warm — thresholds already raised by
        earlier plans.  Live row ``j`` (``live``: bool mask over the plan's
        rows, ``None`` = all) is offered as row ``first_row + j`` with the
        score bits ``run_fast`` computes, so scratchpads end as sequential
        :meth:`~repro.core.topk_tracker.TopKTracker.insert` calls leave
        them.  Returns
        ``(skipped, screened)``: (row, query) pairs provably rejected
        ungathered, of those put through a screen at all — ``(0, 0)`` from
        a backend without one.  Collection-level backends (contraction)
        have no per-partition unit and leave this unimplemented.
        """
        raise NotImplementedError

    def fold_width(self, plan, queries: Queries) -> int:
        """Queries per fresh-scratchpad fold of :meth:`run_partition` (all,
        unless the backend sizes a working set by it)."""
        return len(queries)

    def run_partition(self, index, plan, *, X, accumulate_dtype, local_k, exact=False):
        """One partition's share of a frozen sweep, as a *picklable* entry
        point: fresh pads → :meth:`fold_plan` → ``finish_dense``, in blocks
        of :meth:`fold_width` queries (bit-neutral: lanes are independent).

        The process executor ships this bound method to spawn workers,
        which rebuild ``plan``/``X`` as zero-copy views over the
        shared-memory arena.  Returns the partition's dense ``(values,
        rows, accepts)`` — see :class:`KernelOutput` — plus the summed
        ``(skipped, screened)``: freshly allocated arrays only, never views
        of ``plan`` or ``X``, and no state shared between pool workers.
        """
        queries = Queries.of(X, accumulate_dtype, exact)
        n_queries = len(queries)
        values = np.empty((n_queries, local_k), dtype=np.float64)
        rows = np.empty((n_queries, local_k), dtype=np.int64)
        accepts = np.empty(n_queries, dtype=np.int64)
        counts = np.zeros(2, dtype=np.int64)
        width = max(1, self.fold_width(plan, queries))
        for q0 in range(0, n_queries, width):
            part = queries.chunk(q0, q0 + width)
            pads = BatchScratchpads(len(part), local_k)
            counts += self.fold_plan(part, plan, pads)
            done = slice(q0, q0 + width)
            values[done], rows[done], accepts[done] = pads.finish_dense()
        return values, rows, accepts, int(counts[0]), int(counts[1])

    def run(self, request: KernelRequest) -> KernelOutput:
        """Execute the sweep; only called when :meth:`supports` is true."""
        params = {
            "accumulate_dtype": np.dtype(request.accumulate_dtype),
            "local_k": request.local_k,
            # See Queries.exact: the contraction backend owns the gate.
            "exact": bool(get_kernel("contraction").supports(request)),
        }
        per_partition = map_partitions(
            partial(self.run_partition, X=request.X, **params),
            request.plans,
            request.n_workers,
            executor=request.executor,
            process_fn=self.run_partition,
            process_params=params,
            X=request.X,
        )
        if not per_partition:
            shape = (0, request.n_queries, request.local_k)
            return KernelOutput(
                values=np.empty(shape),
                rows=np.empty(shape, dtype=np.int64),
                accepts=np.zeros(shape[:2], dtype=np.int64),
            )
        values, rows, accepts, skipped, screened = zip(*per_partition)
        return KernelOutput(
            values=np.stack(values),
            rows=np.stack(rows),
            accepts=np.stack(accepts),
            skipped_rows=sum(skipped),
            total_rows=sum(screened),
        )


_REGISTRY: "dict[str, KernelBackend]" = {}


def register_kernel(backend: KernelBackend) -> KernelBackend:
    """Add a backend to the registry (name must be unique); returns it."""
    if not backend.name:
        raise ConfigurationError("kernel backends need a non-empty name")
    if backend.name in _REGISTRY:
        raise ConfigurationError(f"kernel {backend.name!r} is already registered")
    _REGISTRY[backend.name] = backend
    return backend


def get_kernel(name: str) -> KernelBackend:
    """Look a backend up by name; raises with the available set on miss."""
    try:
        return _REGISTRY[name]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown kernel {name!r}; available: {available_kernels()}"
        ) from exc


def available_kernels() -> "list[str]":
    """Registered backend names, in registration order."""
    return list(_REGISTRY)


def resolve_kernel_name(name: "str | None" = None) -> str:
    """An explicit name, else ``$REPRO_KERNEL``, else :data:`DEFAULT_KERNEL`."""
    resolved = name or os.environ.get(KERNEL_ENV_VAR) or DEFAULT_KERNEL
    get_kernel(resolved)  # fail fast on typos, including from the env
    return resolved


def auto_chunk_width(n_lanes: int, itemsize: int, n_queries: int) -> int:
    """Query chunk sized so one gathered products block stays cache-resident.

    Replaces the old hardcoded 32: the ``(chunk, n_lanes)`` intermediate is
    held near 4 MiB, clamped to [8, 128] and rounded down to a multiple of
    8.  Chunk choice never changes any result bit — queries are independent
    rows of every intermediate — so this is purely a matter of locality.
    """
    per_query = max(1, int(n_lanes) * int(itemsize))
    chunk = (4 << 20) // per_query
    chunk = max(8, min(128, (chunk // 8) * 8))
    return max(1, min(chunk, max(1, n_queries)))


def resolve_backend(
    request: KernelRequest, kernel: "str | None" = None
) -> KernelBackend:
    """The one dispatch rule: the backend ``request`` will run on.

    ``kernel`` may be a registry name or ``None`` (env var / default).  If
    the chosen backend does not support the request — e.g. the contraction
    backend on a design whose float32 accumulation order it cannot
    reproduce — its declared fallback stands in, so the bits always honour
    the equivalence guarantee.  The frozen driver resolves once per sweep,
    the segmented one per sealed segment.
    """
    backend = get_kernel(resolve_kernel_name(kernel))
    if not backend.supports(request):
        backend = get_kernel(backend.fallback)
        if not backend.supports(request):  # pragma: no cover - registry bug
            backend = get_kernel(FALLBACK_KERNEL)
    return backend.select(request)


def run_kernel(request: KernelRequest, kernel: "str | None" = None) -> KernelOutput:
    """Resolve (:func:`resolve_backend`) and execute one batched sweep."""
    return resolve_backend(request, kernel).run(request)
