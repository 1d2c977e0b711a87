"""Round-trip tests for ClusterReport persistence (replayable bench results)."""

import numpy as np
import pytest

from serving_stubs import StubBatchEngine
from repro.errors import FormatError
from repro.formats.io import save_artifact
from repro.serving import ClusterReport, ClusterRuntime
from repro.serving.batcher import poisson_arrivals
from repro.serving.faults import ResilienceConfig


@pytest.fixture()
def report():
    engine = StubBatchEngine(base_s=1e-3, per_query_s=3e-4)
    runtime = ClusterRuntime([engine], max_batch_size=5, max_wait_s=1e-3)
    arrivals = poisson_arrivals(37, 8_000.0, rng=17)
    _, report = runtime.run(np.ones((37, 8)), arrivals, top_k=1)
    return report


class TestRoundTrip:
    def test_latency_trace_bit_identical(self, tmp_path, report):
        path = tmp_path / "report.npz"
        report.save(path)
        loaded = ClusterReport.load(path)
        assert loaded.latencies_s.tobytes() == report.latencies_s.tobytes()
        assert loaded.latencies_s.dtype == report.latencies_s.dtype

    def test_batches_and_totals_round_trip(self, tmp_path, report):
        path = tmp_path / "report.npz"
        report.save(path)
        loaded = ClusterReport.load(path)
        assert loaded.batches == report.batches  # indices, dispatch, service
        assert loaded.span_s == report.span_s
        assert loaded.energy_j == report.energy_j

    def test_derived_metrics_replay_exactly(self, tmp_path, report):
        """A reloaded report re-derives the same p50/p99/QPS bit-for-bit."""
        path = tmp_path / "report.npz"
        report.save(path)
        loaded = ClusterReport.load(path)
        assert loaded.to_dict() == report.to_dict()
        assert loaded.render() == report.render()

    def test_save_returns_the_content_digest(self, tmp_path, report):
        digest = report.save(tmp_path / "report.npz")
        assert isinstance(digest, str) and len(digest) == 64

    def test_single_batch_report_round_trips(self, tmp_path):
        engine = StubBatchEngine()
        runtime = ClusterRuntime([engine], max_batch_size=8, max_wait_s=0.0)
        _, report = runtime.run(np.ones((1, 8)), np.zeros(1), top_k=1)
        report.save(tmp_path / "one.npz")
        loaded = ClusterReport.load(tmp_path / "one.npz")
        assert loaded.n_queries == 1
        assert loaded.batches == report.batches


def _bounded_cluster_report():
    replicas = [
        StubBatchEngine(base_s=1e-3, per_query_s=3e-4, marker=r)
        for r in range(3)
    ]
    runtime = ClusterRuntime(
        replicas,
        router="least-outstanding",
        max_batch_size=4,
        max_wait_s=1e-3,
        queue_capacity=3,
    )
    arrivals = poisson_arrivals(40, 6_000.0, rng=23)
    _, report = runtime.run(np.ones((40, 8)), arrivals, top_k=1)
    assert report.n_rejected > 0  # exercise the rejected-trace encoding
    return report


def _hedge_twin_cluster_report():
    # Request 2 and its hedge twin both dispatch at 1 ms as equal
    # ServedBatch values on different replicas: the batch log must keep
    # both, each under its own replica.
    replicas = [
        StubBatchEngine(base_s=1e-3, per_query_s=0.0, marker=r)
        for r in range(2)
    ]
    runtime = ClusterRuntime(
        replicas,
        max_batch_size=1,
        max_wait_s=0.0,
        resilience=ResilienceConfig(hedge_after_s=1e-3),
    )
    _, report = runtime.run(np.ones((3, 8)), np.zeros(3), top_k=1)
    assert report.batches[2] == report.batches[3]
    return report


class TestClusterRoundTrip:
    @pytest.fixture(
        params=[_bounded_cluster_report, _hedge_twin_cluster_report],
        ids=["bounded", "hedge-twin"],
    )
    def cluster_report(self, request):
        return request.param()

    def test_every_tier_round_trips(self, tmp_path, cluster_report):
        path = tmp_path / "cluster.npz"
        cluster_report.save(path)
        loaded = ClusterReport.load(path)
        assert loaded.trace == cluster_report.trace
        assert loaded.to_dict() == cluster_report.to_dict()
        assert loaded.render() == cluster_report.render()
        assert loaded.batches == cluster_report.batches
        assert loaded.routed_per_replica == cluster_report.routed_per_replica
        assert loaded.rejected_per_replica == cluster_report.rejected_per_replica
        assert loaded.n_replicas == cluster_report.n_replicas
        for a, b in zip(loaded.replica_reports, cluster_report.replica_reports):
            assert a.batches == b.batches
            assert a.latencies_s.tobytes() == b.latencies_s.tobytes()
            assert a.span_s == b.span_s
            assert a.energy_j == b.energy_j

    def test_cache_counters_round_trip(self, tmp_path):
        from repro.core.collection import compile_collection
        from repro.core.engine import TopKSpmvEngine
        from repro.data.synthetic import synthetic_embeddings

        collection = compile_collection(
            synthetic_embeddings(
                n_rows=1000, n_cols=128, avg_nnz=8,
                distribution="uniform", seed=27,
            )
        )
        runtime = ClusterRuntime(
            [TopKSpmvEngine.from_collection(collection)],
            cache_size=16, max_batch_size=2, max_wait_s=0.0,
        )
        rng = np.random.default_rng(29)
        q = rng.random((1, 128))
        queries = np.repeat(q / np.linalg.norm(q), 4, axis=0)
        _, report = runtime.run(
            queries, np.array([0.0, 0.0, 5.0, 5.0]), top_k=3
        )
        assert report.n_cache_hits > 0
        path = tmp_path / "cached.npz"
        report.save(path)
        loaded = ClusterReport.load(path)
        assert loaded.n_cache_hits == report.n_cache_hits
        assert loaded.cache_stats == report.cache_stats


    def test_cluster_loader_refuses_a_base_report(self, tmp_path, report):
        # Plain ``serving-report`` artifacts written by earlier builds are a
        # retired kind: loading one must fail loudly and name it.
        path = tmp_path / "plain.npz"
        save_artifact(
            path, "serving-report", {}, {"latency_s": report.latencies_s}
        )
        with pytest.raises(FormatError, match="serving-report"):
            ClusterReport.load(path)


class TestCorruption:
    def test_wrong_kind_rejected(self, tmp_path, report):
        path = tmp_path / "other.npz"
        save_artifact(path, "not-a-report", {}, {"x": np.zeros(1)})
        with pytest.raises(FormatError, match="expected"):
            ClusterReport.load(path)

    def test_incomplete_buffer_set_rejected(self, tmp_path):
        path = tmp_path / "broken.npz"
        save_artifact(
            path, "cluster-report", {}, {"trace_latency_s": np.zeros(3)}
        )
        with pytest.raises(FormatError, match="incomplete"):
            ClusterReport.load(path)

    def test_bit_flip_caught_by_digest(self, tmp_path, report):
        import numpy as _np

        path = tmp_path / "report.npz"
        report.save(path)
        # Rewrite the artifact with one latency perturbed but the old header
        # (and so the old digest) kept verbatim.
        with _np.load(path, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
        arrays["trace_latency_s"] = arrays["trace_latency_s"].copy()
        arrays["trace_latency_s"][0] += 1e-9
        with open(path, "wb") as handle:
            _np.savez(handle, **arrays)
        with pytest.raises(FormatError, match="digest"):
            ClusterReport.load(path)
