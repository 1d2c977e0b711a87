"""Pluggable SpMV kernel backends for the batch-query hot path.

Modules
-------
``base``
    The :class:`KernelBackend` contract (a per-partition backend *is* its
    ``fold_plan``), the registry, request/output types, the one dispatch
    rule (:func:`resolve_backend`) and the frozen driver :func:`run_kernel`.
``executor``
    Partition execution: worker/executor resolution, the thread pool and
    the ``multiprocessing.shared_memory``-backed process pool
    (:class:`SharedPlanArena`) behind :func:`map_partitions`.
``scratchpad``
    :class:`BatchScratchpads` — dense ``(lanes, k)`` Top-K scratchpads, one
    lane per query or per partition × query, foldable block by block and
    bit-identical to sequential tracker inserts.
``gather``
    The reference gather + ``reduceat`` backend (the universal fallback).
``streaming``
    Fused row-block streaming with provable threshold skipping; never
    materialises ``(Q, n_rows)``.
``contraction``
    Collection-level SciPy CSR contraction, gated on provably exact
    (order-independent) float64 accumulation.
``native``
    The streaming fold as Numba ``@njit`` loops (optional dependency;
    falls back to ``streaming`` when Numba is absent), with per-query
    threshold skipping and a gated exact sequential-sum path.
``segmented``
    The driver for mutable collections: the same dispatch rule per segment,
    the same ``fold_plan`` into one global Top-K with threshold carry.

Selection: ``kernel=`` arguments on the engines /
``simulate_multicore_batch``, the ``--kernel`` CLI flag, or the
``REPRO_KERNEL`` environment variable; ``REPRO_KERNEL_WORKERS`` sets the
partition worker count (``auto``/``0`` = all cores) and
``REPRO_KERNEL_EXECUTOR`` picks ``thread`` (default) or ``process``
partition execution.  Every backend is locked bit-identical to
``DataflowCore.run_fast`` by ``tests/property/test_prop_kernels.py``;
backends that cannot guarantee a request's accumulation order fall back to
the reference kernel automatically.
"""

from repro.core.kernels.base import (
    DEFAULT_KERNEL,
    EXECUTOR_ENV_VAR,
    FALLBACK_KERNEL,
    KERNEL_ENV_VAR,
    WORKERS_ENV_VAR,
    KernelBackend,
    KernelOutput,
    KernelRequest,
    Queries,
    auto_chunk_width,
    available_kernels,
    get_kernel,
    map_partitions,
    register_kernel,
    resolve_backend,
    resolve_executor,
    resolve_kernel_name,
    resolve_workers,
    run_kernel,
)
from repro.core.kernels.executor import SharedPlanArena
from repro.core.kernels.scratchpad import BatchScratchpads, batch_scratchpads
from repro.core.kernels.gather import GatherKernel
from repro.core.kernels.streaming import StreamingKernel
from repro.core.kernels.contraction import (
    ContractionKernel,
    ContractionOperand,
    codec_grid_bits,
    codecs_grid_bits,
    lower_plans,
)
from repro.core.kernels.native import (
    NativeKernel,
    native_available,
    reduceat_segment_sums,
)
from repro.core.kernels.auto import AutoKernel
from repro.core.kernels.segmented import (
    SegmentedOutput,
    run_segmented,
    select_segment_kernel,
)

__all__ = [
    "SegmentedOutput",
    "run_segmented",
    "select_segment_kernel",
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
    "GatherKernel",
    "StreamingKernel",
    "ContractionKernel",
    "ContractionOperand",
    "codec_grid_bits",
    "codecs_grid_bits",
    "lower_plans",
    "NativeKernel",
    "native_available",
    "reduceat_segment_sums",
    "AutoKernel",
    "DEFAULT_KERNEL",
    "FALLBACK_KERNEL",
    "KERNEL_ENV_VAR",
    "WORKERS_ENV_VAR",
    "EXECUTOR_ENV_VAR",
]
