"""Golden decision traces: the serving core's decisions, pinned to bytes.

Each scenario runs a seeded :class:`ClusterRuntime` over stub engines and
renders what it decided as canonical JSON lines: one
``[rid, arrival, status, replica, dispatch, completion, latency]`` row per
request, one ``[replica, dispatch, service, [rids]]`` row per batch, then
``ClusterReport.to_dict()``.  The committed corpus under ``tests/golden/``
is the review artifact of any deliberate behaviour change; regenerate it
with::

    PYTHONPATH=src:tests python tests/unit/test_golden_traces.py
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from serving_stubs import StubBatchEngine
from repro.serving import ClusterRuntime
from repro.serving.batcher import poisson_arrivals
from repro.serving.faults import (
    EngineFault,
    FaultPlan,
    ReplicaCrash,
    ResilienceConfig,
    SlowWindow,
)

GOLDEN = Path(__file__).resolve().parent.parent / "golden"
N_COLS = 8


def _stubs(n, base_s=1e-3, per_query_s=2e-4, digest=None, skew=0.25):
    return [
        StubBatchEngine(
            base_s=base_s * (1 + skew * r), per_query_s=per_query_s,
            marker=r, n_cols=N_COLS, digest=digest,
        )
        for r in range(n)
    ]


def _queries(n, seed, alphabet=None):
    rng = np.random.default_rng(seed)
    if alphabet is None:
        return rng.random((n, N_COLS))
    letters = rng.random((alphabet, N_COLS))
    return letters[rng.integers(0, alphabet, size=n)]


def _stream(n, rate_qps, seed, alphabet=None):
    return _queries(n, seed, alphabet), poisson_arrivals(n, rate_qps, rng=seed)


def _router(name):
    def scenario():
        runtime = ClusterRuntime(
            _stubs(3), router=name, router_seed=3, max_batch_size=4,
            max_wait_s=1e-3,
        )
        return runtime, *_stream(30, 4_000.0, seed=11)
    return scenario


def _cache():
    runtime = ClusterRuntime(
        _stubs(2, digest="golden"), router="least-outstanding",
        cache_size=3, max_batch_size=3, max_wait_s=5e-4,
    )
    return runtime, *_stream(30, 3_000.0, seed=5, alphabet=5)


def _admission():
    runtime = ClusterRuntime(
        _stubs(2), router="round-robin", max_batch_size=2, max_wait_s=0.0,
        queue_capacity=2,
    )
    return runtime, *_stream(24, 8_000.0, seed=7)


def _deadline():
    # Sparse arrivals never fill a batch of 8: every batch leaves on the
    # oldest request's max_wait_s deadline.
    runtime = ClusterRuntime(_stubs(1), max_batch_size=8, max_wait_s=2e-3)
    return runtime, *_stream(12, 1_500.0, seed=13)


def _retries():
    plan = FaultPlan(engine_faults=(
        EngineFault(replica=0, batch_index=0),
        EngineFault(replica=0, batch_index=2),
        EngineFault(replica=1, batch_index=1),
    ))
    runtime = ClusterRuntime(
        _stubs(2), router="least-outstanding", max_batch_size=3,
        max_wait_s=5e-4, fault_plan=plan,
        resilience=ResilienceConfig(max_retries=2, seed=3),
    )
    return runtime, *_stream(24, 4_000.0, seed=17)


def _hedge_twin():
    # Request 2 and its hedge twin both dispatch at 1 ms on different
    # replicas; the first completion delivers, the twin is discarded.
    runtime = ClusterRuntime(
        _stubs(2, per_query_s=0.0, skew=0.0), max_batch_size=1,
        max_wait_s=0.0, resilience=ResilienceConfig(hedge_after_s=1e-3),
    )
    return runtime, np.ones((3, N_COLS)), np.zeros(3)


def _crash_recover():
    plan = FaultPlan(
        crashes=(ReplicaCrash(replica=1, at_s=2e-3, recover_s=6e-3),),
        slow=(SlowWindow(replica=2, start_s=0.0, end_s=4e-3, factor=3.0),),
    )
    runtime = ClusterRuntime(
        _stubs(3), router="least-outstanding", max_batch_size=4,
        max_wait_s=1e-3, fault_plan=plan,
        resilience=ResilienceConfig(max_retries=3, hedge_after_s=3e-3, seed=1),
    )
    return runtime, *_stream(30, 5_000.0, seed=19)


def _fleet_down():
    # Replica 0 dies for good, replica 1 for a window: arrivals inside the
    # window find no replica (typed reject), and retries wait for the one
    # scheduled recovery.
    plan = FaultPlan(crashes=(
        ReplicaCrash(replica=0, at_s=1e-3, recover_s=math.inf),
        ReplicaCrash(replica=1, at_s=2.5e-3, recover_s=5e-3),
    ))
    runtime = ClusterRuntime(
        _stubs(2), max_batch_size=2, max_wait_s=5e-4, fault_plan=plan,
        resilience=ResilienceConfig(max_retries=3, seed=2),
    )
    return runtime, *_stream(24, 4_000.0, seed=23)


def _strike_out():
    # Three failed batches in a row take replica 0 down with no recovery;
    # a one-retry budget leaves some requests typed-failed.
    plan = FaultPlan(engine_faults=tuple(
        EngineFault(replica=0, batch_index=i) for i in range(3)
    ) + (EngineFault(replica=1, batch_index=0),))
    runtime = ClusterRuntime(
        _stubs(2), router="round-robin", max_batch_size=2, max_wait_s=0.0,
        fault_plan=plan, resilience=ResilienceConfig(max_retries=1, seed=4),
    )
    return runtime, *_stream(20, 6_000.0, seed=29)


SCENARIOS = {
    "round_robin": _router("round-robin"),
    "least_outstanding": _router("least-outstanding"),
    "power_of_two": _router("power-of-two"),
    "cache": _cache,
    "admission": _admission,
    "deadline": _deadline,
    "retries": _retries,
    "hedge_twin": _hedge_twin,
    "crash_recover": _crash_recover,
    "fleet_down": _fleet_down,
    "strike_out": _strike_out,
}


def _line(row) -> str:
    return json.dumps(row, sort_keys=True, separators=(",", ":"))


def render(name: str) -> str:
    """The canonical JSON-lines trace of one scenario."""
    runtime, queries, arrivals = SCENARIOS[name]()
    results, report = runtime.run(queries, arrivals, top_k=1)
    lines = [
        _line([t.request_id, t.arrival_s, t.status, t.replica, t.dispatch_s,
               t.completion_s, t.latency_s])
        for t in report.trace
    ]
    lines += [
        _line([int(r), b.dispatch_s, b.service_s, list(b.indices)])
        for b, r in zip(report.batches, report.batch_replica)
    ]
    lines.append(_line([
        None if res is None
        else [res.indices.tolist(), res.values.tolist()]
        for res in results
    ]))
    lines.append(_line(report.to_dict()))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_decisions_match_the_golden_trace(name):
    expected = (GOLDEN / f"{name}.jsonl").read_text(encoding="utf-8")
    assert render(name) == expected


def test_corpus_covers_every_outcome():
    statuses = set()
    for name in SCENARIOS:
        for line in (GOLDEN / f"{name}.jsonl").read_text().splitlines():
            row = json.loads(line)
            if isinstance(row, list) and len(row) == 7:
                statuses.add(row[2])
    assert statuses == {"served", "cache-hit", "rejected", "failed"}


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for scenario in sorted(SCENARIOS):
        (GOLDEN / f"{scenario}.jsonl").write_text(
            render(scenario), encoding="utf-8"
        )
        print(f"wrote {GOLDEN / scenario}.jsonl")
