"""Integration tests: serving layer end-to-end and the serve-bench CLI."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.engine import TopKSpmvEngine
from repro.data.synthetic import synthetic_embeddings
from repro.hw.design import PAPER_DESIGNS
from repro.serving import (
    ClusterRuntime,
    ServingConfig,
    ShardedEngine,
    poisson_arrivals,
    run_serve_bench,
)
from repro.utils.rng import sample_unit_queries


@pytest.fixture(scope="module")
def collection():
    return synthetic_embeddings(
        n_rows=4000, n_cols=256, avg_nnz=16, distribution="uniform", seed=51
    )


@pytest.fixture(scope="module")
def served_setup(collection):
    engine = ShardedEngine(collection, n_shards=4, design=PAPER_DESIGNS["20b"])
    queries = sample_unit_queries(np.random.default_rng(53), 32, 256)
    runtime = ClusterRuntime([engine], max_batch_size=8, max_wait_s=1e-3)
    arrivals = poisson_arrivals(len(queries), 10_000.0, rng=55)
    results, report = runtime.run(queries, arrivals, top_k=10)
    return engine, queries, results, report


class TestServedRecall:
    def test_served_recall_matches_unsharded_engine(self, collection, served_setup):
        """recall@K of batched+sharded serving == the plain engine's recall."""
        engine, queries, results, _ = served_setup
        flat = TopKSpmvEngine(collection, design=PAPER_DESIGNS["20b"])
        served_hits = 0
        flat_hits = 0
        for x, got in zip(queries, results):
            exact = set(flat.query_exact(x, top_k=10).indices.tolist())
            served_hits += len(set(got.indices.tolist()) & exact)
            flat_hits += len(
                set(flat.query(x, top_k=10).topk.indices.tolist()) & exact
            )
        assert served_hits == flat_hits
        assert served_hits >= 0.9 * len(queries) * 10

    def test_served_results_equal_direct_queries(self, served_setup):
        engine, queries, results, _ = served_setup
        for x, got in zip(queries, results):
            direct = engine.query(x, top_k=10).topk
            assert got.indices.tolist() == direct.indices.tolist()

    def test_report_accounts_for_every_query(self, served_setup):
        _, queries, results, report = served_setup
        assert len(results) == len(queries)
        assert report.n_queries == len(queries)
        assert sum(b.size for b in report.batches) == len(queries)


class TestServeBenchRunner:
    def test_runner_returns_report_and_payload(self):
        config = ServingConfig(
            rows=1500, cols=128, n_queries=24, recall_queries=4, seed=3
        )
        text, payload = run_serve_bench(config)
        assert "serve-bench" in text
        assert "p50" in text
        assert payload["report"]["n_queries"] == 24
        assert 0.0 <= payload["recall_at_k"] <= 1.0
        assert payload["config"]["n_shards"] == 4

    def test_full_board_mode(self):
        config = ServingConfig(
            rows=1500, cols=128, n_queries=16, recall_queries=4,
            n_shards=2, cores_per_shard=16, seed=5,
        )
        _, payload = run_serve_bench(config)
        assert payload["config"]["cores_per_shard"] == 16
        assert len(payload["fleet"]["shard_makespans_ms"]) == 2


class TestClusterServeBench:
    def test_runner_cluster_payload(self):
        config = ServingConfig(
            rows=1500, cols=128, n_queries=32, recall_queries=4, seed=7,
            replicas=2, router="least-outstanding", cache_size=64,
        )
        text, payload = run_serve_bench(config)
        assert "cluster: 2 replicas, least-outstanding router" in text
        cluster = payload["report"]["cluster"]
        assert cluster["n_replicas"] == 2
        assert cluster["n_offered"] == 32
        assert cluster["n_served"] + cluster["n_cache_hits"] + cluster[
            "n_rejected"
        ] == 32
        assert payload["config"]["replicas"] == 2
        assert payload["config"]["router"] == "least-outstanding"
        assert payload["config"]["cache_size"] == 64

    def test_runner_admission_control(self):
        config = ServingConfig(
            rows=1500, cols=128, n_queries=48, recall_queries=4, seed=9,
            replicas=1, queue_capacity=2, max_batch_size=2,
            rate_qps=1e7,  # deliberate overload
        )
        _, payload = run_serve_bench(config)
        cluster = payload["report"]["cluster"]
        assert cluster["n_rejected"] > 0
        assert cluster["reject_rate"] > 0.0

    def test_bad_cluster_knobs_rejected_up_front(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="replicas"):
            run_serve_bench(
                ServingConfig(rows=1500, cols=128, n_queries=8, replicas=0)
            )
        with pytest.raises(ConfigurationError, match="replicas"):
            run_serve_bench(
                ServingConfig(rows=1500, cols=128, n_queries=8, replicas=-2)
            )
        with pytest.raises(ConfigurationError, match="cache_size"):
            run_serve_bench(
                ServingConfig(rows=1500, cols=128, n_queries=8, cache_size=-5)
            )

    def test_single_fleet_defaults_report_a_one_replica_cluster(self):
        _, payload = run_serve_bench(
            ServingConfig(rows=1500, cols=128, n_queries=16, recall_queries=4)
        )
        cluster = payload["report"]["cluster"]
        assert cluster["n_replicas"] == 1
        assert cluster["n_served"] == payload["report"]["n_queries"] == 16

    def test_cli_cluster_flags(self, tmp_path, capsys):
        json_path = tmp_path / "cluster.json"
        assert main([
            "serve-bench", "--quick", "--n-queries", "32",
            "--replicas", "2", "--router", "power-of-two",
            "--cache-size", "32", "--queue-capacity", "64",
            "--json", str(json_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "cluster: 2 replicas, power-of-two router" in out
        payload = json.loads(json_path.read_text())
        assert payload["config"]["replicas"] == 2
        assert payload["config"]["queue_capacity"] == 64
        assert payload["report"]["cluster"]["n_replicas"] == 2


class TestServeBenchCli:
    def test_cli_prints_report(self, capsys):
        assert main(["serve-bench", "--quick", "--n-queries", "32"]) == 0
        out = capsys.readouterr().out
        assert "serve-bench" in out
        assert "recall@10" in out
        assert "QPS" in out

    def test_cli_writes_json_and_output(self, tmp_path, capsys):
        json_path = tmp_path / "serve.json"
        out_path = tmp_path / "serve.md"
        assert main([
            "serve-bench", "--quick", "--n-queries", "32",
            "--shards", "2", "--batch-size", "4",
            "--json", str(json_path), "-o", str(out_path),
        ]) == 0
        capsys.readouterr()
        payload = json.loads(json_path.read_text())
        assert payload["config"]["n_shards"] == 2
        assert payload["config"]["max_batch_size"] == 4
        assert all(size <= 4 for size in payload["report"]["batch_sizes"])
        assert "p50" in out_path.read_text()

    def test_cli_rows_and_seed_overrides(self, capsys):
        assert main([
            "serve-bench", "--quick", "--rows", "1000",
            "--seed", "9", "--n-queries", "16",
        ]) == 0
        out = capsys.readouterr().out
        assert "1000 rows" in out

    def test_paper_experiments_still_run(self, capsys):
        # The serve-bench wiring must not disturb the experiment path.
        assert main(["table1", "--quick"]) == 0
        assert "Table I" in capsys.readouterr().out
