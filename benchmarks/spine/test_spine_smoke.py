"""Tier-1 smoke checks of the spine benchmark's own arithmetic and contract.

No sockets, no timing assertions, no corpus: the contract file against the
metric table, span self-time arithmetic, the percentile rule and
``compare.py``'s verdicts.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

SPINE = Path(__file__).resolve().parent
if str(SPINE) not in sys.path:
    sys.path.insert(0, str(SPINE))

import compare  # noqa: E402
import measure  # noqa: E402
import spec  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


@pytest.fixture(scope="module")
def contract():
    with open(SPINE.parent.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def test_contract_shape(contract):
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    assert isinstance(contract["run_seconds"], int) and 1 <= contract["run_seconds"] <= 60
    names = [
        m["name"] for key in ("workloads", "end_to_end", "per_layer")
        for m in contract[key]
    ]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.match(name), name
    for w in contract["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in contract["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in contract["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("higher", "lower")
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in contract["end_to_end"])


def test_contract_matches_the_metric_table(contract):
    assert [w["name"] for w in contract["workloads"]] == list(spec.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in contract["end_to_end"]
    ] == [(m.name, m.unit, m.better, m.bound) for m in spec.END_TO_END]
    assert [
        (m["name"], m["unit"], m["better"]) for m in contract["per_layer"]
    ] == [(m.name, m.unit, m.better) for m in spec.PER_LAYER]
    for path in contract["paths"]:
        assert (SPINE.parent.parent / path).resolve() == SPINE


def test_every_moves_target_exists():
    pairings = {
        f"{w}.{m}" for w in spec.WORKLOADS for m in spec.END_TO_END_NAMES
    }
    for layer in spec.PER_LAYER:
        for target in layer.moves:
            assert target in pairings, (layer.name, target)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"id": 0, "name": "engine", "start": 0.0, "end": 10.0, "parent": None},
        {"id": 1, "name": "dataflow", "start": 1.0, "end": 8.0, "parent": 0},
        {"id": 2, "name": "kernel", "start": 2.0, "end": 5.0, "parent": 1},
        # two replicas running at once: overlap must not be counted twice
        {"id": 3, "name": "kernel", "start": 4.0, "end": 7.0, "parent": 1},
    ]
    own = measure.self_times(spans)
    assert own[0] == pytest.approx(3.0)  # 10 - 7
    assert own[1] == pytest.approx(2.0)  # 7 - union(2..7)
    assert own[2] == pytest.approx(3.0)
    assert sum(own.values()) == pytest.approx(11.0)  # 10 + the 1 s overlap


def test_tracer_nests_and_a_disabled_tracer_records_nothing():
    tracer = measure.Tracer(True)
    with tracer.span("outer", request=7):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert outer["request"] == 7
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
    assert measure.coverage(tracer.spans, [(outer["start"], outer["end"])]) == 1.0
    off = measure.Tracer(False)
    with off.span("ignored"):
        pass
    assert off.spans == []


def test_percentile_rule_wants_ten_samples_beyond():
    assert measure.tail_percentile(1000) == 99
    assert measure.tail_percentile(999) == 95
    assert measure.tail_percentile(200) == 95
    assert measure.tail_percentile(199) == 90
    assert measure.tail_percentile(100) == 90
    assert measure.tail_percentile(99) == 75
    assert measure.tail_percentile(39) == 50
    # the floor of 100 latency samples per run earns the tail the metric names
    assert measure.tail_percentile(100) >= spec.TAIL_PERCENTILE
    assert measure.percentile([1, 2, 3, 4, 5], 50) == 3
    assert measure.percentile(range(101), 90) == pytest.approx(90.0)


def _payload(values_by_metric, workload="offline_batch", **flags):
    n = len(next(iter(values_by_metric.values())))
    runs = []
    for i in range(n):
        runs.append({
            "smoke": False, "traced": False, "fingerprint": {"cpu_model": "x"},
            "workloads": {workload: {"metrics": {
                m: {"value": v[i], "unit": "u"} for m, v in values_by_metric.items()
            }}},
            **flags,
        })
    return {"schema": 1, "runs": runs}


BOUNDS = {"qps": ("higher", 0.10), "latency_ms_p50": ("lower", 0.10)}


def _verdicts(a, b):
    rows = compare.compare(_payload(a), _payload(b), BOUNDS)
    return {r["metric"]: r["verdict"] for r in rows}


def test_compare_verdicts():
    steady = {"qps": [100, 101, 99, 100, 102], "latency_ms_p50": [10, 10.1, 9.9, 10, 10.2]}
    assert _verdicts(steady, steady) == {"qps": "ok", "latency_ms_p50": "ok"}
    slower = {"qps": [80, 81, 79, 80, 82], "latency_ms_p50": [10.5, 10.6, 10.4, 10.5, 10.7]}
    assert _verdicts(steady, slower) == {"qps": "regressed", "latency_ms_p50": "ok"}
    # spread wider than the bound and overlapping runs: cannot tell
    noisy = {"qps": [60, 140, 95, 85, 120], "latency_ms_p50": [10, 10.1, 9.9, 10, 10.2]}
    assert _verdicts(steady, noisy)["qps"] == "unresolved"
    # ... unless every run of B is better than every run of A
    noisy_better = {"qps": [150, 300, 200, 180, 260], "latency_ms_p50": [5, 5, 5, 5, 5]}
    assert _verdicts(steady, noisy_better) == {"qps": "ok", "latency_ms_p50": "ok"}
    # ... or every run of B is worse than every run of A beyond the bound
    noisy_worse = {"qps": [20, 60, 40, 30, 50], "latency_ms_p50": [10, 10, 10, 10, 10]}
    assert _verdicts(steady, noisy_worse)["qps"] == "regressed"


def test_compare_refuses_smoke_traced_and_foreign_machines():
    good = _payload({"qps": [100, 101]})
    with pytest.raises(compare.NotComparable):
        compare.compare(good, _payload({"qps": [100, 101]}, smoke=True), BOUNDS)
    with pytest.raises(compare.NotComparable):
        compare.compare(_payload({"qps": [1, 2]}, traced=True), good, BOUNDS)
    other = _payload({"qps": [100, 101]})
    for run in other["runs"]:
        run["fingerprint"] = {"cpu_model": "y"}
    with pytest.raises(compare.NotComparable):
        compare.compare(good, other, BOUNDS)


def test_compare_exit_codes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_payload({"qps": [100, 101, 99]})))
    b.write_text(json.dumps(_payload({"qps": [50, 51, 49]})))
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(b)]) == 1
    b.write_text(json.dumps(_payload({"qps": [50, 51, 49]}, smoke=True)))
    assert compare.main([str(a), str(b)]) == 2
