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
request must say so via :meth:`KernelBackend.supports`; the driver
(:func:`run_kernel`) then silently substitutes the backend's declared
fallback, so callers always get the guaranteed bits.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.core.kernels.executor import (  # noqa: F401 - re-exported API
    EXECUTOR_ENV_VAR,
    WORKERS_ENV_VAR,
    map_partitions,
    resolve_executor,
    resolve_workers,
)
from repro.core.reference import results_from_dense
from repro.errors import ConfigurationError

__all__ = [
    "KernelRequest",
    "KernelOutput",
    "KernelBackend",
    "register_kernel",
    "get_kernel",
    "available_kernels",
    "resolve_kernel_name",
    "resolve_workers",
    "resolve_executor",
    "auto_query_chunk",
    "map_partitions",
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
    query_chunk:
        Query-block chunk width; ``None`` lets each backend auto-tune it
        against its working-set size.  Chunking is bit-neutral (queries are
        independent rows of every intermediate).
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
    query_chunk: "int | None" = None
    executor: "str | None" = None

    @property
    def n_queries(self) -> int:
        return int(self.X.shape[0])


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
    gather the backend provably skipped vs. offered in this run —
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

    @classmethod
    def from_partitions(
        cls, per_partition: list, n_queries: int, local_k: int
    ) -> "KernelOutput":
        """Stack ``run_partition`` returns — ``(values, rows, accepts)``
        plus, for backends that skip, ``(skipped, total)`` — in order."""
        if not per_partition:
            return cls(
                values=np.empty((0, n_queries, local_k)),
                rows=np.empty((0, n_queries, local_k), dtype=np.int64),
                accepts=np.zeros((0, n_queries), dtype=np.int64),
            )
        values, rows, accepts, *counters = zip(*per_partition)
        skipped, total = counters or ((), ())
        return cls(
            values=np.stack(values),
            rows=np.stack(rows),
            accepts=np.stack(accepts),
            skipped_rows=sum(skipped),
            total_rows=sum(total),
        )

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

    def run(self, request: KernelRequest) -> KernelOutput:
        """Execute the sweep; only called when :meth:`supports` is true."""
        raise NotImplementedError

    def run_partition(self, index: int, plan, *, X, **params):
        """One partition's share of a sweep, as a *picklable* entry point.

        Partition-parallel backends implement this (and route ``run``
        through it) so the process executor can ship the bound method to
        spawn workers, which rebuild ``plan``/``X`` as zero-copy views
        over the shared-memory arena.  Returns the partition's dense
        ``(values, rows, accepts)`` — see :class:`KernelOutput` — plus
        ``(skipped, total)`` from backends that skip; only freshly
        allocated arrays, never views of ``plan`` or ``X``.
        Collection-level backends (contraction) have no per-partition
        unit and leave this unimplemented.
        """
        raise NotImplementedError


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


def auto_query_chunk(
    n_lanes: int,
    itemsize: int,
    n_queries: int,
    target_bytes: int = 4 << 20,
) -> int:
    """Query chunk sized so one gathered products block stays cache-resident.

    Replaces the old hardcoded 32: the ``(chunk, n_lanes)`` intermediate is
    held near ``target_bytes`` (default 4 MiB), clamped to [8, 128] and
    rounded down to a multiple of 8.  Chunk choice never changes any result
    bit — queries are independent rows of every intermediate — so this is a
    pure locality knob.
    """
    per_query = max(1, int(n_lanes) * int(itemsize))
    chunk = target_bytes // per_query
    chunk = max(8, min(128, (chunk // 8) * 8))
    return max(1, min(chunk, max(1, n_queries)))


def run_kernel(request: KernelRequest, kernel: "str | None" = None) -> KernelOutput:
    """Resolve, gate and execute one batched sweep.

    ``kernel`` may be a registry name or ``None`` (env var / default).  If
    the chosen backend does not support the request — e.g. the contraction
    backend on a design whose float32 accumulation order it cannot
    reproduce — its declared fallback runs instead, so the returned bits
    always honour the equivalence guarantee.
    """
    backend = get_kernel(resolve_kernel_name(kernel))
    if not backend.supports(request):
        backend = get_kernel(backend.fallback)
        if not backend.supports(request):  # pragma: no cover - registry bug
            backend = get_kernel(FALLBACK_KERNEL)
    return backend.run(request)
