"""Partition executors: inline, thread-pool and shared-memory processes.

:func:`map_partitions` is the one fan-out point every partition-parallel
kernel backend goes through.  Three executors serve it:

``inline``
    ``n_workers <= 1`` (or a single partition): a plain loop.
``thread``
    The default.  A :class:`~concurrent.futures.ThreadPoolExecutor`; NumPy
    releases the GIL inside the big gathers/reductions, so threads scale
    for the vectorised portions.
``process``
    ``executor="process"``: a persistent *spawn*
    :class:`~concurrent.futures.ProcessPoolExecutor`.
    The query block and every partition plan are exported once per sweep
    into a single :class:`multiprocessing.shared_memory.SharedMemory`
    arena; workers attach **zero-copy** (NumPy views over the mapped
    buffer) instead of unpickling array payloads, so the per-task pickle
    cost is one small descriptor and the returned Top-K candidates.

Executor choice is bit-neutral by construction: results come back in
partition order, each partition's computation is pure, and the process
path runs the very same ``run_partition`` code the thread path runs.
Backends opt into the process path by handing ``map_partitions`` a
*picklable* per-partition entry point (a bound ``run_partition`` method);
without one the call degrades to the thread pool rather than failing.

``resolve_workers`` also lives here: it accepts an explicit count, or
``"auto"``/``0``, both meaning ``os.cpu_count()``.  Both settings come from
arguments only; no environment variable steers them.
"""

from __future__ import annotations

import atexit
import os
import warnings
import weakref
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "DEFAULT_EXECUTOR",
    "EXECUTORS",
    "resolve_workers",
    "resolve_executor",
    "map_partitions",
    "SharedPlanArena",
]

#: Executor used when none is named.
DEFAULT_EXECUTOR = "thread"

#: The selectable executors (inline is implicit at ``n_workers <= 1``).
EXECUTORS = ("thread", "process")


def resolve_workers(n_workers: "int | str | None" = None) -> int:
    """An explicit count, else 1 (inline); ``"auto"`` and ``0`` mean
    ``os.cpu_count()``."""
    if n_workers is None:
        n_workers = 1
    if isinstance(n_workers, str):
        text = n_workers.strip()
        if text.lower() == "auto":
            n_workers = 0
        else:
            try:
                n_workers = int(text)
            except ValueError as exc:
                raise ConfigurationError(
                    f"n_workers={n_workers!r} is not an integer"
                ) from exc
    if n_workers == 0:
        n_workers = os.cpu_count() or 1
    if n_workers < 1:
        raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
    return int(n_workers)


def resolve_executor(executor: "str | None" = None) -> str:
    """An explicit name, else :data:`DEFAULT_EXECUTOR` (``thread``)."""
    resolved = executor or DEFAULT_EXECUTOR
    if resolved not in EXECUTORS:
        raise ConfigurationError(
            f"unknown executor {resolved!r}; available: {list(EXECUTORS)}"
        )
    return resolved


# --------------------------------------------------------------------- #
# Shared-memory plan arena
# --------------------------------------------------------------------- #
def _attach_shared_memory(name: str):
    """Attach an existing segment without tracking it for cleanup.

    On Python >= 3.13 ``track=False`` skips the resource-tracker
    registration outright.  Before 3.13 the attach re-registers the name —
    harmlessly: spawn workers share the creator's tracker process, whose
    per-type cache is a set, so the duplicate registration is a no-op and
    the creator's unlink-time unregister stays balanced.  (Explicitly
    unregistering here instead would remove the *creator's* entry and make
    that final unregister fail.)
    """
    from multiprocessing.shared_memory import SharedMemory

    try:
        return SharedMemory(name=name, track=False)  # Python >= 3.13
    except TypeError:
        return SharedMemory(name=name)


def _align(offset: int) -> int:
    return (offset + 63) & ~63


class SharedPlanArena:
    """One query block + plan list packed into a single shared segment.

    The layout is recorded in :attr:`descriptor` — a small picklable dict
    of ``(offset, dtype, shape)`` triples keyed by array role — which is
    all that crosses the process boundary per sweep.  Workers rebuild the
    arrays as views over the attached buffer via :meth:`attach_plan`:
    zero bytes of plan or query data are pickled.
    """

    def __init__(self, X: np.ndarray, plans):
        from multiprocessing.shared_memory import SharedMemory

        staged = []  # (offset, contiguous array) pairs to copy in

        def stage(arr: np.ndarray, offset: int) -> "tuple[tuple, int]":
            arr = np.ascontiguousarray(arr)
            offset = _align(offset)
            staged.append((offset, arr))
            meta = (offset, arr.dtype.str, arr.shape)
            return meta, offset + arr.nbytes

        offset = 0
        x_meta, offset = stage(np.asarray(X), offset)
        plan_metas = []
        for plan in plans:
            idx_meta, offset = stage(plan.kept_idx, offset)
            val_meta, offset = stage(plan.kept_values, offset)
            starts_meta, offset = stage(plan.starts, offset)
            plan_metas.append(
                {
                    "n_rows": int(plan.n_rows),
                    "kept_idx": idx_meta,
                    "kept_values": val_meta,
                    "starts": starts_meta,
                }
            )
        self.shm = SharedMemory(create=True, size=max(1, offset))
        for off, arr in staged:
            view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=self.shm.buf, offset=off)
            view[...] = arr
        self.descriptor = {
            "name": self.shm.name,
            "X": x_meta,
            "plans": plan_metas,
        }
        # Crash-safe reclamation: the segment is unlinked even when the
        # owning sweep dies before reaching close() — at garbage collection
        # or interpreter exit, whichever comes first — so no ``/dev/shm``
        # entry ever outlives the parent.
        self._finalizer = weakref.finalize(self, self._reclaim, self.shm)

    @staticmethod
    def _reclaim(shm) -> None:
        """Finalizer body: close the mapping and unlink the segment."""
        try:
            shm.close()
        except (OSError, ValueError):  # pragma: no cover - already closed
            pass
        try:
            shm.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover - gone
            pass

    @staticmethod
    def _view(shm, meta) -> np.ndarray:
        offset, dtype, shape = meta
        return np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf, offset=offset)

    @classmethod
    def attach_plan(cls, descriptor: dict, index: int):
        """Attach and rebuild ``(shm, X, plans[index])`` as zero-copy views.

        The caller must ``shm.close()`` after the views are no longer
        needed (and must not return anything aliasing them).
        """
        from repro.core.dataflow import DataflowStats, StreamPlan

        shm = _attach_shared_memory(descriptor["name"])
        X = cls._view(shm, descriptor["X"])
        meta = descriptor["plans"][index]
        plan = StreamPlan(
            n_rows=meta["n_rows"],
            kept_idx=cls._view(shm, meta["kept_idx"]),
            kept_values=cls._view(shm, meta["kept_values"]),
            starts=cls._view(shm, meta["starts"]),
            stats=DataflowStats(),
        )
        return shm, X, plan

    def close(self, unlink: bool = False) -> None:
        if unlink:
            # Runs the registered finalizer (at most once): close + unlink.
            self._finalizer()
        else:
            self.shm.close()


# --------------------------------------------------------------------- #
# Process pool (persistent, spawn-based)
# --------------------------------------------------------------------- #
_POOL: "ProcessPoolExecutor | None" = None
_POOL_SIZE = 0


def _shutdown_pool() -> None:
    global _POOL, _POOL_SIZE
    if _POOL is not None:
        _POOL.shutdown(wait=False, cancel_futures=True)
        _POOL = None
        _POOL_SIZE = 0


def _process_pool(size: int) -> ProcessPoolExecutor:
    """A cached spawn pool with at least ``size`` workers.

    Spawn (not fork) so workers hold no copy-on-write snapshot of the
    parent heap — the arena is the only shared state — and so the pool is
    safe to create from threaded parents.  The pool persists across
    sweeps; the first call pays the interpreter start-up, later sweeps
    only pay the descriptor pickle.
    """
    global _POOL, _POOL_SIZE
    if _POOL is None or _POOL_SIZE < size:
        import multiprocessing

        if _POOL is None:
            atexit.register(_shutdown_pool)
        else:
            _POOL.shutdown(wait=False, cancel_futures=True)
        _POOL = ProcessPoolExecutor(
            max_workers=size, mp_context=multiprocessing.get_context("spawn")
        )
        _POOL_SIZE = size
    return _POOL


def _run_partition_from_arena(descriptor, process_fn, params, index):
    """Worker-side entry: attach, rebuild views, run, detach.

    ``process_fn`` must return freshly allocated arrays only (every
    backend's ``run_partition`` does) — the segment is unmapped before the
    return value is pickled back.
    """
    shm, X, plan = SharedPlanArena.attach_plan(descriptor, index)
    try:
        return process_fn(index, plan, X=X, **params)
    finally:
        shm.close()


#: Sentinel returned by :func:`_map_partitions_process` when the pool broke
#: twice in a row — the caller degrades to the thread executor.
_DEGRADE = object()


def _map_partitions_process(process_fn, params, X, plans, n_workers):
    arena = SharedPlanArena(X, plans)
    try:
        # A dead worker (OOM-kill, segfault, os._exit) poisons the whole
        # pool as BrokenProcessPool.  Partition work is pure and the arena
        # outlives the attempt, so the safe response is: respawn the pool
        # once and resubmit everything; if the fresh pool breaks too, hand
        # control back so the caller degrades to threads.
        for attempt in range(2):
            pool = _process_pool(min(n_workers, len(plans)))
            futures = [
                pool.submit(_run_partition_from_arena, arena.descriptor, process_fn, params, i)
                for i in range(len(plans))
            ]
            # Drain *every* future before the arena is unlinked (a
            # straggler must never race an attach against the unlink),
            # then surface the first failure with its original exception.
            results, first_exc, broken = [], None, False
            for future in futures:
                try:
                    results.append(future.result())
                except BrokenProcessPool:
                    broken = True
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    if first_exc is None:
                        first_exc = exc
            if broken:
                _shutdown_pool()
                if attempt == 0:
                    warnings.warn(
                        "a partition worker died; respawning the process "
                        "pool and resubmitting the sweep",
                        RuntimeWarning,
                        stacklevel=3,
                    )
                    continue
                return _DEGRADE
            if first_exc is not None:
                raise first_exc
            return results
        return _DEGRADE  # pragma: no cover - loop always returns
    finally:
        arena.close(unlink=True)


def map_partitions(
    fn,
    plans,
    n_workers: int,
    executor: "str | None" = None,
    process_fn=None,
    process_params: "dict | None" = None,
    X: "np.ndarray | None" = None,
) -> list:
    """``[fn(i, plan) for i, plan in enumerate(plans)]``, fanned out.

    With ``n_workers > 1`` partitions run on the resolved executor;
    results come back in partition order regardless of scheduling, so the
    output is identical to the inline loop (each partition's computation
    is independent and pure).  The process executor additionally needs
    ``process_fn`` (a picklable ``(index, plan, *, X, **params)``
    callable) and ``X``; backends that do not provide them fall back to
    the thread pool.  A partition callable that raises surfaces its
    original exception under every executor.
    """
    executor = resolve_executor(executor)
    if n_workers <= 1 or len(plans) <= 1:
        return [fn(i, plan) for i, plan in enumerate(plans)]
    if executor == "process" and process_fn is not None and X is not None:
        results = _map_partitions_process(
            process_fn, dict(process_params or {}), X, plans, n_workers
        )
        if results is not _DEGRADE:
            return results
        warnings.warn(
            "the respawned process pool broke again; degrading this sweep "
            "to the thread executor (results are bit-identical, only "
            "slower)",
            RuntimeWarning,
            stacklevel=2,
        )
    with ThreadPoolExecutor(max_workers=min(n_workers, len(plans))) as pool:
        return list(pool.map(fn, range(len(plans)), plans))
