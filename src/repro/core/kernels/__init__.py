"""Pluggable SpMV kernel backends for the batch-query hot path.

Modules
-------
``base``
    The :class:`KernelBackend` contract (a per-partition backend *is* its
    ``fold_plan``), the registry, request/output types, the one dispatch
    rule (:func:`resolve_backend`) and the candidate driver :func:`run_kernel`.
``executor``
    Partition execution: worker/executor resolution, the thread pool and
    the ``multiprocessing.shared_memory``-backed process pool
    (:class:`SharedPlanArena`) behind :func:`map_partitions`.
``scratchpad``
    :class:`BatchScratchpads` — dense ``(lanes, k)`` Top-K scratchpads, one
    lane per query or per partition × query, foldable block by block and
    bit-identical to sequential tracker inserts (the candidate path).
``selection``
    :class:`RunningTopK` — the query path's order-free exact running Top-K.
``gather``
    The reference gather + ``reduceat`` backend (the universal fallback).
``streaming``
    Fused row-block streaming with provable threshold skipping; never
    materialises ``(Q, n_rows)``.
``contraction``
    Collection-level SciPy CSR contraction, gated on provably exact
    (order-independent) float64 accumulation.
``segmented``
    The one query driver behind every engine's ``query``/``query_batch``:
    every segment walks its sorted run (``streaming.fold_run``: large
    chunks scored by float32 SpMM and screened, the survivors rescored
    exactly), into one global Top-K with threshold carry.

Selection: one rule on the query path; backends are the candidate path's.
``query``/``query_batch`` take no backend name.  The per-core candidate
path (``query_candidates``, ``simulate_multicore_batch``, ``run_kernel``)
takes its settings from arguments only: ``kernel=`` on
``simulate_multicore_batch`` / ``run_kernel`` picks the backend (``auto``
by default), ``n_workers=`` the partition worker count (1 by default,
``auto``/``0`` = all cores) and ``executor=`` ``thread`` (default) or
``process`` partition execution.  Every backend is locked bit-identical to
``DataflowCore.run_fast`` by ``tests/property/test_prop_kernels.py``;
backends that cannot guarantee a request's accumulation order fall back to
the reference kernel automatically.
"""

from repro.core.kernels.base import (
    DEFAULT_KERNEL,
    FALLBACK_KERNEL,
    KernelBackend,
    KernelOutput,
    KernelRequest,
    Queries,
    auto_chunk_width,
    available_kernels,
    get_kernel,
    map_partitions,
    native_available,
    register_kernel,
    resolve_backend,
    resolve_executor,
    resolve_kernel_name,
    resolve_workers,
    run_kernel,
)
from repro.core.kernels.executor import SharedPlanArena
from repro.core.kernels.scratchpad import BatchScratchpads, batch_scratchpads
from repro.core.kernels.selection import RunningTopK
from repro.core.kernels.gather import GatherKernel
from repro.core.kernels.streaming import StreamingKernel
from repro.core.kernels.contraction import (
    ContractionKernel,
    ContractionOperand,
    codec_grid_bits,
    codecs_grid_bits,
    lower_plans,
)
from repro.core.kernels.auto import AutoKernel
from repro.core.kernels.segmented import SegmentedOutput, run_segmented

__all__ = [
    "SegmentedOutput",
    "run_segmented",
    "KernelBackend",
    "KernelRequest",
    "KernelOutput",
    "Queries",
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
    "SharedPlanArena",
    "BatchScratchpads",
    "batch_scratchpads",
    "RunningTopK",
    "GatherKernel",
    "StreamingKernel",
    "ContractionKernel",
    "ContractionOperand",
    "codec_grid_bits",
    "codecs_grid_bits",
    "lower_plans",
    "native_available",
    "AutoKernel",
    "DEFAULT_KERNEL",
    "FALLBACK_KERNEL",
]
