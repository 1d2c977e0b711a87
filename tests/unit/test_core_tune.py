"""Unit tests for the placement tuner: a search over the modelled board."""

import numpy as np
import pytest

import repro.core.collection as collection_module
import repro.core.kernels as kernels_module
import repro.core.kernels.base as kernels_base
import repro.formats.bscsr as bscsr_module
from repro import PAPER_DESIGNS, TopKSpmvEngine, compile_collection
from repro.cli import main
from repro.core.collection import CompiledCollection
from repro.core.placement import PLACEMENT_STRATEGIES
from repro.core.tune import score_placement, tune_placement
from repro.data.synthetic import synthetic_embeddings, zipf_embeddings
from repro.errors import ConfigurationError
from repro.utils.rng import sample_unit_queries

CORPORA = {
    "zipf": lambda: zipf_embeddings(n_rows=3000, n_cols=96, avg_nnz=10, seed=3),
    "uniform": lambda: synthetic_embeddings(
        n_rows=3000, n_cols=96, avg_nnz=10, distribution="uniform", seed=3
    ),
}


@pytest.fixture(scope="module", params=sorted(CORPORA))
def matrix(request):
    return CORPORA[request.param]()


class TestWinner:
    @pytest.mark.parametrize("design", ["20b", "f32"])
    def test_lowest_modelled_makespan_wins(self, matrix, design):
        report = tune_placement(matrix, PAPER_DESIGNS[design])
        makespans = {c.strategy: c.score.makespan_s for c in report.candidates}
        assert tuple(makespans) == PLACEMENT_STRATEGIES
        assert report.winner.score.makespan_s == min(makespans.values())
        assert report.winner.score.makespan_s <= makespans["uniform"]
        payload = report.to_payload()
        assert payload["winner"]["strategy"] == report.winner.strategy
        assert payload["model_speedup_vs_uniform"] >= 1.0

    @pytest.mark.parametrize("strategy", PLACEMENT_STRATEGIES)
    def test_score_is_the_compiled_board(self, matrix, strategy):
        """The model counts the packets the encoder writes: its makespan is
        the compiled artifact's own board timing, bit for bit."""
        design = PAPER_DESIGNS["20b"]
        report = tune_placement(matrix, design, n_partitions=4)
        candidate = next(c for c in report.candidates if c.strategy == strategy)
        compiled = compile_collection(
            matrix, design, n_partitions=4, placement=candidate.placement
        )
        engine = TopKSpmvEngine.from_collection(compiled)
        assert candidate.score.makespan_s == engine.makespan_s
        assert candidate.score.packets_per_core == tuple(
            s.n_packets for s in compiled.encoded.streams
        )
        assert score_placement(matrix, design, candidate.placement) == candidate.score

    def test_tuning_compiles_and_queries_nothing(self, matrix, monkeypatch):
        calls = []

        def spy(name):
            def refuse(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"tune_placement called {name}")

            return refuse

        monkeypatch.setattr(
            collection_module, "compile_collection", spy("compile_collection")
        )
        monkeypatch.setattr(kernels_module, "run_kernel", spy("run_kernel"))
        monkeypatch.setattr(kernels_base, "run_kernel", spy("run_kernel"))
        monkeypatch.setattr(bscsr_module, "encode_bscsr", spy("encode_bscsr"))
        report = tune_placement(matrix, PAPER_DESIGNS["20b"])
        assert any(c is report.winner for c in report.candidates)
        assert calls == []


class TestStrategies:
    @pytest.mark.parametrize("name", ["norm_sorted", "nnz_balanced"])
    def test_removed_strategies_are_refused(self, name):
        matrix = CORPORA["zipf"]()
        with pytest.raises(ConfigurationError) as excinfo:
            compile_collection(matrix, PAPER_DESIGNS["20b"], placement=name)
        message = str(excinfo.value)
        assert name in message
        assert "'uniform'" in message and "'skew'" in message


class TestTuneVerb:
    @pytest.mark.parametrize("dataset", ["synthetic", "zipf"])
    def test_artifact_answers_like_the_unplaced_compile(
        self, tmp_path, capsys, dataset
    ):
        out = tmp_path / "tuned.npz"
        report = tmp_path / "tune.json"
        assert main([
            "tune", dataset, str(out), "--rows", "2000", "--cols", "64",
            "--avg-nnz", "8", "--seed", "4", "--json", str(report),
        ]) == 0
        assert "winner:" in capsys.readouterr().out
        builder = (
            zipf_embeddings
            if dataset == "zipf"
            else lambda **kw: synthetic_embeddings(distribution="uniform", **kw)
        )
        matrix = builder(n_rows=2000, n_cols=64, avg_nnz=8, seed=4)
        tuned = CompiledCollection.load(out)
        base = compile_collection(matrix, tuned.design)
        X = sample_unit_queries(np.random.default_rng(9), 6, matrix.n_cols)
        got = TopKSpmvEngine.from_collection(tuned).query_batch(X, 10)
        want = TopKSpmvEngine.from_collection(base).query_batch(X, 10)
        for g, w in zip(got.topk, want.topk):
            assert g.indices.tolist() == w.indices.tolist()
            assert g.values.tobytes() == w.values.tobytes()
