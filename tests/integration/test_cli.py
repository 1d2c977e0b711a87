"""Integration tests for the CLI."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_known_experiments_accepted(self):
        parser = build_parser()
        args = parser.parse_args(["table1", "--quick"])
        assert args.experiment == "table1"
        assert args.quick

    def test_unknown_experiment_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["table9"])

    def test_quick_and_paper_scale_conflict(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["table1", "--quick", "--paper-scale"])
        assert excinfo.value.code == 2
        assert "not allowed with" in capsys.readouterr().err


class TestMain:
    def test_table1_prints_report(self, capsys):
        assert main(["table1", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "monte carlo" in out

    def test_output_file_written(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        assert main(["figure3", "--quick", "-o", str(target)]) == 0
        capsys.readouterr()
        assert "BS-CSR" in target.read_text()

    def test_seed_and_rows_overrides(self, capsys):
        assert main(["table1", "--quick", "--seed", "7"]) == 0
        capsys.readouterr()

    def test_stray_positionals_rejected(self):
        with pytest.raises(SystemExit):
            main(["table1", "extra.npz"])


class TestCompileCommand:
    def test_compile_then_serve(self, tmp_path, capsys):
        target = tmp_path / "collection.npz"
        assert main([
            "compile", "synthetic", str(target),
            "--rows", "800", "--cols", "128", "--avg-nnz", "8",
        ]) == 0
        out = capsys.readouterr().out
        assert "digest:" in out
        assert target.exists()
        assert main([
            "serve-bench", "--collection", str(target),
            "--n-queries", "16", "--shards", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "800 rows" in out

    def test_compile_requires_dataset_and_output(self):
        with pytest.raises(SystemExit):
            main(["compile"])
        with pytest.raises(SystemExit):
            main(["compile", "synthetic"])

    def test_compile_unknown_dataset_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["compile", "imagenet", str(tmp_path / "x.npz")])


class TestKernelFlag:
    def test_serve_bench_with_each_kernel(self, tmp_path, capsys):
        import json

        target = tmp_path / "serve.json"
        assert main([
            "serve-bench", "--rows", "2000", "--cols", "128", "--n-queries", "16",
            "--shards", "2", "--kernel", "contraction",
            "--json", str(target),
        ]) == 0
        out = capsys.readouterr().out
        assert "kernel: contraction\n" in out
        payload = json.loads(target.read_text())
        assert payload["config"]["kernel"] == "contraction"
        assert "kernel_workers" not in payload["config"]

    def test_unknown_kernel_fails_fast(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="unknown kernel"):
            main([
                "serve-bench", "--rows", "2000", "--cols", "128",
                "--n-queries", "16", "--kernel", "warp",
            ])

    def test_kernel_env_var_drives_default(self, tmp_path, capsys, monkeypatch):
        import json

        monkeypatch.setenv("REPRO_KERNEL", "streaming")
        target = tmp_path / "serve.json"
        assert main([
            "serve-bench", "--rows", "2000", "--cols", "128", "--n-queries", "16",
            "--shards", "2", "--json", str(target),
        ]) == 0
        capsys.readouterr()
        assert json.loads(target.read_text())["config"]["kernel"] == "streaming"


class TestServeBenchFlags:
    def test_top_k_reaches_the_served_k(self, tmp_path, capsys):
        import json

        target = tmp_path / "serve.json"
        assert main([
            "serve-bench", "--rows", "600", "--cols", "64", "--avg-nnz", "6",
            "--n-queries", "8", "--shards", "2", "--top-k", "25",
            "--json", str(target),
        ]) == 0
        out = capsys.readouterr().out
        assert "recall@25 vs exact" in out
        assert json.loads(target.read_text())["config"]["top_k"] == 25

    @pytest.mark.parametrize(
        "flags",
        [
            ["--retries", "2"],
            ["--backoff-ms", "1"],
            ["--hedge-after-ms", "4"],
            ["--deadline-ms", "50"],
            ["--max-pending", "8"],
            ["--max-frame-bytes", "4096"],
            ["--fault-plan", "plan.json"],
            ["--chaos-seed", "3", "--retries", "1"],
        ],
    )
    def test_live_only_flags_are_refused(self, flags, capsys):
        # serve-bench's parser does not declare the fault-tolerance flags,
        # so argparse itself refuses them.
        with pytest.raises(SystemExit) as excinfo:
            main(["serve-bench", "--quick", *flags])
        assert excinfo.value.code == 2
        assert flags[0] in capsys.readouterr().err

    def test_quick_keeps_an_explicit_n_queries(self, tmp_path, capsys):
        import json

        target = tmp_path / "serve.json"
        assert main([
            "serve-bench", "--quick", "--rows", "600", "--cols", "64",
            "--avg-nnz", "6", "--shards", "2", "--n-queries", "24",
            "--json", str(target),
        ]) == 0
        capsys.readouterr()
        payload = json.loads(target.read_text())
        assert payload["config"]["n_queries"] == 24
        assert payload["report"]["cluster"]["n_offered"] == 24
        assert payload["config"]["rows"] == 600


def _parser_for(verb: str):
    import argparse

    parser = build_parser()
    verbs = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return verbs.choices[verb]


def _dests(verb: str) -> set:
    return {a.dest for a in _parser_for(verb)._actions} - {"help"}


class TestParserContract:
    def test_serving_dests_are_config_daemon_or_output(self):
        import inspect
        from dataclasses import fields

        from repro.serving import LiveServer, ServingConfig
        from repro.serving.faults import ResilienceConfig

        allowed = (
            {f.name for f in fields(ServingConfig)}
            | set(inspect.signature(LiveServer).parameters)
            | {f.name for f in fields(ResilienceConfig)}
            | {"fault_plan", "chaos_seed"}  # the FaultPlan source
            | {"json", "output", "quick"}
        )
        for verb in ("serve-bench", "serve-live"):
            assert _dests(verb) <= allowed, _dests(verb) - allowed

    def test_every_serving_field_is_reachable_from_serve_bench(self):
        from dataclasses import fields

        from repro.serving import ServingConfig

        wanted = {f.name for f in fields(ServingConfig)} - {"recall_queries"}
        assert wanted <= _dests("serve-bench")

    def test_each_verb_accepts_only_the_flags_it_reads(self):
        import argparse

        parser = build_parser()
        verbs = next(
            a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        pairs = sum(
            1
            for sub in verbs.choices.values()
            for a in sub._actions
            if a.option_strings and not isinstance(a, argparse._HelpAction)
        )
        assert pairs <= 150

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["table1", "--json", "x.json"], "--json"),
            (["compile", "synthetic", "a.npz", "--quick"], "--quick"),
            (["compile", "synthetic", "a.npz", "--kernel", "gather"],
             "--kernel"),
            (["load-gen", "--port", "1", "--replicas", "4"], "--replicas"),
            (["serve-bench", "--delta-frac", "0.5"], "--delta-frac"),
            (["ingest", "--retries", "2"], "--retries"),
            (["serve-bench", "--deadline-ms", "5"], "--deadline-ms"),
        ],
    )
    def test_flags_a_verb_does_not_read_are_refused(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err


class TestCollectionFixesTheDataset:
    @pytest.mark.parametrize("verb", ["serve-bench", "serve-live"])
    def test_serving_verbs_refuse_dataset_flags(self, verb):
        with pytest.raises(SystemExit) as excinfo:
            main([verb, "--collection", "a.npz", "--design", "32b",
                  "--rows", "99999"])
        message = str(excinfo.value)
        assert "--rows" in message and "--design" in message

    def test_tune_refuses_a_dataset_positional_and_flags(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["tune", "synthetic", "t.npz", "--collection", "a.npz",
                  "--rows", "2000"])
        message = str(excinfo.value)
        assert "'synthetic'" in message and "--rows" in message

    def test_tune_without_a_dataset_or_collection(self):
        with pytest.raises(SystemExit, match="DATASET"):
            main(["tune", "t.npz"])

    def test_ingest_refuses_shape_flags_but_reads_avg_nnz(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["ingest", "--collection", "a.npz", "--cols", "64",
                  "--avg-nnz", "4"])
        message = str(excinfo.value)
        assert "--cols" in message and "--avg-nnz" not in message


class TestBenchAll:
    def _fake_bench_dir(self, tmp_path, passing=True):
        bench_dir = tmp_path / "benchmarks"
        results = bench_dir / "results"
        results.mkdir(parents=True)
        body = "assert True" if passing else "assert False"
        (bench_dir / "bench_fake.py").write_text(
            "import json, pathlib\n"
            "def test_emit():\n"
            "    out = pathlib.Path(__file__).parent / 'results' / 'fake.json'\n"
            f"    out.write_text(json.dumps({{'speedup': 3.5}}))\n"
            f"    {body}\n"
        )
        return bench_dir

    def test_runs_benches_and_consolidates(self, tmp_path, capsys):
        import json

        bench_dir = self._fake_bench_dir(tmp_path)
        assert main(["bench-all", "--benchmarks-dir", str(bench_dir)]) == 0
        capsys.readouterr()
        summary = json.loads((bench_dir / "results" / "BENCH_summary.json").read_text())
        assert summary["runs"]["bench_fake.py"]["status"] == "passed"
        assert summary["results"]["fake"] == {"speedup": 3.5}

    def test_failed_floor_fails_the_run(self, tmp_path, capsys):
        import json

        bench_dir = self._fake_bench_dir(tmp_path, passing=False)
        assert main(["bench-all", "--benchmarks-dir", str(bench_dir)]) == 1
        capsys.readouterr()
        summary = json.loads((bench_dir / "results" / "BENCH_summary.json").read_text())
        record = summary["runs"]["bench_fake.py"]
        assert record["status"] == "failed"
        # The failure is recorded in full (script, returncode, stderr tail)
        # so one broken bench never hides the rest of the trajectory.
        assert record["returncode"] == 1
        assert "assert False" in record["stderr_tail"]

    def test_one_failure_does_not_abort_the_rest(self, tmp_path, capsys):
        import json

        bench_dir = self._fake_bench_dir(tmp_path, passing=False)
        (bench_dir / "bench_good.py").write_text(
            "import json, pathlib\n"
            "def test_emit():\n"
            "    out = pathlib.Path(__file__).parent / 'results' / 'good.json'\n"
            "    out.write_text(json.dumps({'speedup': 9.0}))\n"
        )
        assert main(["bench-all", "--benchmarks-dir", str(bench_dir)]) == 1
        capsys.readouterr()
        summary = json.loads((bench_dir / "results" / "BENCH_summary.json").read_text())
        assert summary["runs"]["bench_fake.py"]["status"] == "failed"
        assert summary["runs"]["bench_good.py"]["status"] == "passed"
        assert "returncode" not in summary["runs"]["bench_good.py"]
        assert summary["results"]["good"] == {"speedup": 9.0}

    def test_only_filter_and_empty_run(self, tmp_path, capsys):
        import json

        bench_dir = self._fake_bench_dir(tmp_path)
        (bench_dir / "results" / "fake.json").write_text('{"speedup": 3.5}')
        assert main([
            "bench-all", "--benchmarks-dir", str(bench_dir), "--only", "nomatch",
        ]) == 0
        capsys.readouterr()
        summary = json.loads((bench_dir / "results" / "BENCH_summary.json").read_text())
        assert summary["runs"] == {}
        assert "fake" in summary["results"]  # pre-existing payloads still merge

    def test_ingest_verb_end_to_end(self, tmp_path, capsys):
        import json

        out_json = tmp_path / "ingest.json"
        out_dir = tmp_path / "col"
        assert main([
            "ingest", "--quick", "--rows", "1200", "--cols", "128",
            "--updates", "3", "--deletes", "3", "--compact",
            "--save", str(out_dir), "--json", str(out_json),
        ]) == 0
        out = capsys.readouterr().out
        assert "incremental ingest+seal" in out
        assert "verified bit-identical" in out
        payload = json.loads(out_json.read_text())
        assert payload["delta_rows"] == 12
        assert payload["verified_queries"] == 8
        assert payload["speedup_vs_recompile"] > 0
        # The saved manifest directory reloads as a live collection.
        from repro.core.segments import SegmentedCollection

        loaded = SegmentedCollection.load(out_dir)
        # 1200 base + 12 ingested - 3 deleted (updates keep their keys).
        assert loaded.n_live == 1200 + 12 - 3
        assert loaded.n_segments == 1  # --compact left one segment

    def test_ingest_from_compiled_artifact(self, tmp_path, capsys):
        target = tmp_path / "collection.npz"
        assert main([
            "compile", "synthetic", str(target), "--rows", "1000",
            "--cols", "128", "--avg-nnz", "10",
        ]) == 0
        capsys.readouterr()
        assert main([
            "ingest", "--collection", str(target), "--verify-queries", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out

    def test_missing_benchmarks_dir_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="benchmarks directory"):
            main(["bench-all", "--benchmarks-dir", str(tmp_path / "nope")])

    def test_consolidate_tolerates_corrupt_json(self, tmp_path):
        from repro.cli import consolidate_bench_results

        results = tmp_path / "results"
        results.mkdir()
        (results / "good.json").write_text('{"x": 1}')
        (results / "bad.json").write_text("{nope")
        merged = consolidate_bench_results(results, {"bench_x.py": {"status": "passed"}})
        assert merged["results"]["good"] == {"x": 1}
        assert "error" in merged["results"]["bad"]
        assert merged["runs"]["bench_x.py"]["status"] == "passed"
