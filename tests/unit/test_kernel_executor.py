"""Unit tests for the partition executor layer (thread / process / arena)."""

import numpy as np
import pytest

from repro.arithmetic.codecs import codec_for_design
from repro.core.dataflow import plan_stream
from repro.core.kernels import SharedPlanArena, map_partitions, resolve_executor
from repro.data.synthetic import synthetic_embeddings
from repro.errors import ConfigurationError
from repro.formats.bscsr import BSCSRMatrix
from repro.formats.layout import solve_layout


def _plans(n_rows=120, n_partitions=3, seed=2):
    matrix = synthetic_embeddings(
        n_rows=n_rows, n_cols=32, avg_nnz=5, distribution="uniform", seed=seed
    )
    layout = solve_layout(matrix.n_cols, 20)
    encoded = BSCSRMatrix.encode(
        matrix,
        layout,
        codec_for_design(20, "fixed"),
        n_partitions=n_partitions,
        rows_per_packet=5,
    )
    return [plan_stream(s) for s in encoded.streams]


def _boom(index, plan, *, X, **params):
    """Module-level so the spawn pool can pickle it by reference."""
    raise ValueError(f"partition {index} exploded")


def _lane_count(index, plan, *, X, **params):
    """Module-level partition summary for process-path assertions."""
    return (
        index,
        int(plan.n_rows),
        float(plan.kept_values.sum()),
        float(X.sum()),
    )


class TestResolveExecutor:
    def test_default_and_explicit(self):
        assert resolve_executor() == "thread"
        assert resolve_executor("thread") == "thread"
        assert resolve_executor("process") == "process"

    def test_typo_fails_fast(self):
        with pytest.raises(ConfigurationError, match="unknown executor"):
            resolve_executor("processs")
        with pytest.raises(ConfigurationError, match="unknown executor"):
            resolve_executor("fork")

    def test_the_environment_does_not_pick_the_executor(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_EXECUTOR", "processs")
        assert resolve_executor() == "thread"


class TestSharedPlanArena:
    def test_round_trip_is_exact_and_zero_copy(self):
        plans = _plans()
        X = np.linspace(-1.0, 1.0, 4 * 32).reshape(4, 32)
        arena = SharedPlanArena(X, plans)
        try:
            for i, plan in enumerate(plans):
                shm, X_view, got = SharedPlanArena.attach_plan(
                    arena.descriptor, i
                )
                try:
                    assert X_view.tobytes() == X.tobytes()
                    assert got.n_rows == plan.n_rows
                    assert got.kept_idx.tobytes() == plan.kept_idx.tobytes()
                    assert (
                        got.kept_values.tobytes() == plan.kept_values.tobytes()
                    )
                    assert got.starts.tobytes() == plan.starts.tobytes()
                    # Views over the mapped buffer, not copies.
                    assert got.kept_values.base is not None
                finally:
                    shm.close()
        finally:
            arena.close(unlink=True)

    def test_descriptor_is_small_and_picklable(self):
        import pickle

        plans = _plans()
        X = np.zeros((2, 32))
        arena = SharedPlanArena(X, plans)
        try:
            blob = pickle.dumps(arena.descriptor)
            # The whole point: per-task pickle cost is a descriptor, not
            # the array payloads.
            assert len(blob) < 2048
        finally:
            arena.close(unlink=True)


class TestMapPartitionsErrorPropagation:
    """A raising partition callable must surface the original exception
    under every executor (the ISSUE-7 satellite)."""

    def test_inline(self):
        plans = _plans()

        def fn(i, plan):
            if i == 1:
                raise ValueError("partition 1 exploded")
            return i

        with pytest.raises(ValueError, match="partition 1 exploded"):
            map_partitions(fn, plans, n_workers=1)

    def test_thread(self):
        plans = _plans()

        def fn(i, plan):
            if i == 2:
                raise ValueError("partition 2 exploded")
            return i

        with pytest.raises(ValueError, match="partition 2 exploded"):
            map_partitions(fn, plans, n_workers=3, executor="thread")

    def test_process(self):
        plans = _plans()
        X = np.zeros((2, 32))
        with pytest.raises(ValueError, match="exploded"):
            map_partitions(
                lambda i, p: _boom(i, p, X=X),
                plans,
                n_workers=2,
                executor="process",
                process_fn=_boom,
                process_params={},
                X=X,
            )


class TestMapPartitionsProcess:
    def test_results_in_partition_order(self):
        plans = _plans()
        X = np.linspace(0.0, 1.0, 2 * 32).reshape(2, 32)
        want = [
            _lane_count(i, plan, X=X) for i, plan in enumerate(plans)
        ]
        got = map_partitions(
            lambda i, p: _lane_count(i, p, X=X),
            plans,
            n_workers=2,
            executor="process",
            process_fn=_lane_count,
            process_params={},
            X=X,
        )
        assert got == want

    def test_degrades_to_thread_without_process_fn(self):
        plans = _plans()
        # No process_fn/X: the thread pool serves the request instead of
        # failing — backends without a picklable entry point stay usable.
        got = map_partitions(
            lambda i, p: (i, int(p.n_rows)),
            plans,
            n_workers=2,
            executor="process",
        )
        assert got == [(i, int(p.n_rows)) for i, p in enumerate(plans)]

    def test_inline_short_circuits_single_worker(self):
        plans = _plans()
        calls = []

        def fn(i, plan):
            calls.append(i)
            return i

        assert map_partitions(fn, plans, n_workers=1, executor="process") == [
            0,
            1,
            2,
        ]
        assert calls == [0, 1, 2]
