"""Unit tests for micro-batching: the ``BatchQueue`` dispatch rule and a
single board served as a 1-replica ``ClusterRuntime``."""

import numpy as np
import pytest

from repro.core.engine import TopKSpmvEngine
from repro.data.synthetic import synthetic_embeddings
from repro.errors import ConfigurationError
from repro.hw.design import PAPER_DESIGNS
from repro.serving.batcher import BatchQueue, poisson_arrivals
from repro.serving.cluster import ClusterRuntime
from repro.utils.rng import sample_unit_queries


@pytest.fixture(scope="module")
def engine():
    matrix = synthetic_embeddings(
        n_rows=2000, n_cols=256, avg_nnz=12, distribution="uniform", seed=41
    )
    return TopKSpmvEngine(matrix, design=PAPER_DESIGNS["20b"])


@pytest.fixture(scope="module")
def stream_queries():
    return sample_unit_queries(np.random.default_rng(43), 48, 256)


class TestBatchFormation:
    def test_max_batch_size_honoured(self, engine, stream_queries):
        # Everything arrives at t=0: the runtime must still cap batches.
        runtime = ClusterRuntime([engine], max_batch_size=7, max_wait_s=1e-3)
        arrivals = np.zeros(len(stream_queries))
        _, report = runtime.run(stream_queries, arrivals, top_k=10)
        assert all(b.size <= 7 for b in report.batches)
        assert sum(b.size for b in report.batches) == len(stream_queries)
        # A flood of simultaneous arrivals fills every batch but the tail.
        assert all(b.size == 7 for b in report.batches[:-1])

    def test_deadline_honoured_when_idle(self, engine, stream_queries):
        # Requests 10 s apart: each dispatches alone after max_wait.
        max_wait = 1e-3
        runtime = ClusterRuntime([engine], max_batch_size=16, max_wait_s=max_wait)
        arrivals = np.arange(8) * 10.0
        _, report = runtime.run(stream_queries[:8], arrivals, top_k=10)
        assert report.n_batches == 8
        for batch, arrival in zip(report.batches, arrivals):
            assert batch.size == 1
            assert batch.dispatch_s == pytest.approx(arrival + max_wait)

    def test_batch_fills_before_deadline(self, engine, stream_queries):
        # 4 requests in quick succession, huge deadline: dispatch on fill.
        runtime = ClusterRuntime([engine], max_batch_size=4, max_wait_s=10.0)
        arrivals = np.array([0.0, 0.001, 0.002, 0.003])
        _, report = runtime.run(stream_queries[:4], arrivals, top_k=10)
        assert report.n_batches == 1
        assert report.batches[0].size == 4
        assert report.batches[0].dispatch_s == pytest.approx(0.003)

    def test_backlog_coalesces_while_board_busy(self, engine, stream_queries):
        # Zero deadline still batches whatever queued while the board ran.
        runtime = ClusterRuntime([engine], max_batch_size=16, max_wait_s=0.0)
        arrivals = np.linspace(0.0, engine.timing.makespan_s, 16)
        _, report = runtime.run(stream_queries[:16], arrivals, top_k=10)
        assert report.n_batches < 16
        assert sum(b.size for b in report.batches) == 16

    def test_results_in_request_order(self, engine, stream_queries):
        runtime = ClusterRuntime([engine], max_batch_size=5, max_wait_s=1e-3)
        arrivals = np.linspace(0, 1e-3, len(stream_queries))
        results, _ = runtime.run(stream_queries, arrivals, top_k=10)
        for x, got in zip(stream_queries, results):
            want = engine.query(x, top_k=10).topk
            assert got.indices.tolist() == want.indices.tolist()

    def test_unsorted_arrivals_accepted(self, engine, stream_queries):
        runtime = ClusterRuntime([engine], max_batch_size=4, max_wait_s=1e-3)
        arrivals = np.array([3e-3, 0.0, 2e-3, 1e-3])
        results, report = runtime.run(stream_queries[:4], arrivals, top_k=5)
        assert len(results) == 4
        # Request 0 (latest arrival) still gets its own correct answer.
        want = engine.query(stream_queries[0], top_k=5).topk
        assert results[0].indices.tolist() == want.indices.tolist()


class TestReport:
    def test_latency_percentiles_ordered(self, engine, stream_queries):
        runtime = ClusterRuntime([engine], max_batch_size=8, max_wait_s=2e-3)
        arrivals = poisson_arrivals(len(stream_queries), 5000.0, rng=7)
        _, report = runtime.run(stream_queries, arrivals, top_k=10)
        assert report.n_queries == len(stream_queries)
        assert 0 < report.p50_latency_s <= report.p99_latency_s
        assert report.p99_latency_s <= report.latencies_s.max()
        assert report.qps > 0
        assert report.energy_j > 0

    def test_every_latency_at_least_service_time(self, engine, stream_queries):
        runtime = ClusterRuntime([engine], max_batch_size=8, max_wait_s=1e-3)
        arrivals = poisson_arrivals(len(stream_queries), 20_000.0, rng=11)
        _, report = runtime.run(stream_queries, arrivals, top_k=10)
        min_service = engine.timing.makespan_s
        assert (report.latencies_s >= min_service).all()

    def test_to_dict_roundtrips_key_metrics(self, engine, stream_queries):
        runtime = ClusterRuntime([engine], max_batch_size=8, max_wait_s=1e-3)
        arrivals = np.zeros(8)
        _, report = runtime.run(stream_queries[:8], arrivals, top_k=10)
        payload = report.to_dict()
        assert payload["n_queries"] == 8
        assert payload["p50_latency_ms"] == pytest.approx(report.p50_latency_s * 1e3)
        assert payload["batch_sizes"] == [b.size for b in report.batches]


class TestArrivalsAndValidation:
    def test_poisson_arrivals_shape(self):
        arrivals = poisson_arrivals(100, 50.0, rng=3)
        assert len(arrivals) == 100
        assert arrivals[0] == 0.0
        assert (np.diff(arrivals) >= 0).all()

    def test_poisson_rate_sets_mean_gap(self):
        arrivals = poisson_arrivals(4000, 100.0, rng=5)
        mean_gap = float(np.diff(arrivals).mean())
        assert mean_gap == pytest.approx(1 / 100.0, rel=0.1)

    def test_bad_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            poisson_arrivals(10, 0.0)
        with pytest.raises(ConfigurationError):
            poisson_arrivals(10, -5.0)

    def test_non_finite_rate_rejected(self):
        for rate in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ConfigurationError):
                poisson_arrivals(10, rate)

    def test_single_arrival_is_anchored_at_zero(self):
        # The stream is shifted so the first arrival defines t=0; with one
        # request there are no gaps left, so the result is exactly [0.0]
        # for any rate and any seed.
        for rate in (1e-6, 1.0, 1e9):
            for seed in (0, 1, 2):
                arrivals = poisson_arrivals(1, rate, rng=seed)
                assert arrivals.shape == (1,)
                assert arrivals[0] == 0.0

    def test_mismatched_arrivals_rejected(self, engine, stream_queries):
        runtime = ClusterRuntime([engine], max_batch_size=4, max_wait_s=1e-3)
        with pytest.raises(ConfigurationError):
            runtime.run(stream_queries, np.zeros(3), top_k=5)

    def test_empty_stream_rejected(self, engine):
        runtime = ClusterRuntime([engine], max_batch_size=4, max_wait_s=1e-3)
        with pytest.raises(ConfigurationError):
            runtime.run(np.empty((0, 256)), np.empty(0), top_k=5)

    def test_bad_batcher_params_rejected(self, engine):
        with pytest.raises(ConfigurationError):
            ClusterRuntime([engine], max_batch_size=0)
        with pytest.raises(ConfigurationError):
            ClusterRuntime([engine], max_wait_s=-1.0)


class TestBatchQueue:
    """The causal dispatch-rule state machine behind ClusterRuntime."""

    def test_idle_queue_has_no_dispatch(self):
        queue = BatchQueue(max_batch_size=4, max_wait_s=1e-3)
        assert queue.next_dispatch_s() is None
        with pytest.raises(ConfigurationError):
            queue.pop_batch()

    def test_partial_batch_waits_for_the_deadline(self):
        queue = BatchQueue(max_batch_size=4, max_wait_s=1e-3)
        queue.push(0, 0.5)
        assert queue.next_dispatch_s() == pytest.approx(0.5 + 1e-3)

    def test_full_batch_dispatches_on_fill(self):
        queue = BatchQueue(max_batch_size=2, max_wait_s=10.0)
        queue.push(0, 0.0)
        queue.push(1, 0.25)
        assert queue.next_dispatch_s() == 0.25
        dispatch, members = queue.pop_batch()
        assert dispatch == 0.25
        assert [rid for rid, _ in members] == [0, 1]
        assert queue.queued == 0

    def test_busy_board_defers_dispatch(self):
        queue = BatchQueue(max_batch_size=2, max_wait_s=0.0)
        queue.t_free = 5.0
        queue.push(0, 1.0)
        assert queue.next_dispatch_s() == 5.0

    def test_overfull_queue_pops_only_one_batch(self):
        queue = BatchQueue(max_batch_size=2, max_wait_s=0.0)
        for rid in range(5):
            queue.push(rid, 0.0)
        _, members = queue.pop_batch()
        assert [rid for rid, _ in members] == [0, 1]
        assert queue.queued == 3

    def test_out_of_order_push_rejected(self):
        queue = BatchQueue(max_batch_size=4, max_wait_s=1e-3)
        queue.push(0, 2.0)
        with pytest.raises(ConfigurationError):
            queue.push(1, 1.0)


class TestShortEngineReturns:
    """Regression: an engine returning the wrong number of results must
    fail loudly at dispatch, not drop requests or die in an IndexError."""

    class _ShortEngine:
        """Returns one result fewer than the batch asked for."""

        def __init__(self, drop: int = 1):
            self.drop = drop
            self.matrix = type("M", (), {"n_cols": 8})()

        def batch_seconds(self, n_queries):
            from serving_stubs import StubBatchEngine

            return StubBatchEngine(n_cols=8).batch_seconds(n_queries)

        def query_batch(self, queries, top_k):
            from serving_stubs import StubBatchEngine

            served = StubBatchEngine(n_cols=8).query_batch(queries, top_k)
            kept = served.topk[: max(0, len(served.topk) - self.drop)]
            return type(served)(
                topk=kept, seconds=served.seconds, energy_j=served.energy_j
            )

    def _stream(self, n):
        return np.ones((n, 8)), np.zeros(n)

    class _NoTopk:
        """Returns a batch result without any ``topk``."""

        matrix = type("M", (), {"n_cols": 8})()

        def batch_seconds(self, n_queries):
            return 1e-3

        def query_batch(self, queries, top_k):
            return type("R", (), {"seconds": 1e-3, "energy_j": 0.0})()

    @pytest.mark.parametrize(
        "make_engine, n, match",
        [
            (lambda cls: cls._ShortEngine(), 4, "3 result"),
            (lambda cls: cls._ShortEngine(drop=4), 4, "0 result"),
            (lambda cls: cls._NoTopk(), 2, "no topk attribute"),
        ],
        ids=["short", "empty", "topkless"],
    )
    @pytest.mark.parametrize("n_replicas", [1, 2])
    def test_wrong_result_count_raises_format_error(
        self, make_engine, n, match, n_replicas
    ):
        from repro.errors import FormatError

        runtime = ClusterRuntime(
            [make_engine(type(self)) for _ in range(n_replicas)],
            max_batch_size=4,
            max_wait_s=0.0,
        )
        # Every replica gets a full batch of ``n`` requests.
        queries, arrivals = self._stream(n * n_replicas)
        with pytest.raises(FormatError, match=match):
            runtime.run(queries, arrivals, top_k=1)

    def test_well_behaved_engine_unaffected(self):
        from serving_stubs import StubBatchEngine

        runtime = ClusterRuntime(
            [StubBatchEngine(n_cols=8)], max_batch_size=4, max_wait_s=0.0
        )
        queries, arrivals = self._stream(5)
        results, report = runtime.run(queries, arrivals, top_k=1)
        assert len(results) == 5
        assert all(r is not None for r in results)
