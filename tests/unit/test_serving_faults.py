"""Unit tests for the fault-injection layer: plans, knobs, seeded backoff."""

import json
import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.serving.faults import (
    EngineFault,
    FaultPlan,
    ReplicaCrash,
    ResilienceConfig,
    SlowWindow,
)


class TestEventValidation:
    def test_crash_window_must_be_ordered(self):
        with pytest.raises(ConfigurationError):
            ReplicaCrash(replica=0, at_s=2.0, recover_s=2.0)
        with pytest.raises(ConfigurationError):
            ReplicaCrash(replica=0, at_s=-1.0, recover_s=1.0)

    def test_infinite_recovery_is_legal(self):
        crash = ReplicaCrash(replica=0, at_s=1.0, recover_s=math.inf)
        assert not np.isfinite(crash.recover_s)

    def test_slow_window_must_be_ordered_with_positive_factor(self):
        with pytest.raises(ConfigurationError):
            SlowWindow(replica=0, start_s=1.0, end_s=1.0, factor=2.0)
        with pytest.raises(ConfigurationError):
            SlowWindow(replica=0, start_s=0.0, end_s=1.0, factor=0.0)

    def test_engine_fault_batch_index_nonnegative(self):
        with pytest.raises(ConfigurationError):
            EngineFault(replica=0, batch_index=-1)

    def test_overlapping_crashes_on_one_replica_rejected(self):
        with pytest.raises(ConfigurationError, match="overlapping"):
            FaultPlan(
                crashes=(
                    ReplicaCrash(replica=1, at_s=0.0, recover_s=2.0),
                    ReplicaCrash(replica=1, at_s=1.0, recover_s=3.0),
                )
            )

    def test_overlapping_crashes_on_distinct_replicas_allowed(self):
        plan = FaultPlan(
            crashes=(
                ReplicaCrash(replica=0, at_s=0.0, recover_s=2.0),
                ReplicaCrash(replica=1, at_s=1.0, recover_s=3.0),
            )
        )
        assert len(plan.crashes) == 2


class TestPlanQueries:
    def test_is_empty(self):
        assert FaultPlan().is_empty
        assert FaultPlan(seed=3).is_empty
        assert not FaultPlan(
            slow=(SlowWindow(replica=0, start_s=0.0, end_s=1.0, factor=2.0),)
        ).is_empty

    def test_transitions_skip_infinite_recovery(self):
        plan = FaultPlan(
            crashes=(
                ReplicaCrash(replica=0, at_s=1.0, recover_s=2.0),
                ReplicaCrash(replica=1, at_s=3.0, recover_s=math.inf),
            )
        )
        events = sorted(plan.transitions())
        assert events == [(1.0, "crash", 0), (2.0, "recover", 0),
                          (3.0, "crash", 1)]

    def test_crash_in_is_strictly_after_dispatch(self):
        plan = FaultPlan(
            crashes=(ReplicaCrash(replica=0, at_s=5.0, recover_s=9.0),)
        )
        # A batch dispatched exactly at the crash instant was never started
        # on the dead replica; one completing exactly at it is lost.
        assert plan.crash_in(0, after_s=5.0, until_s=10.0) is None
        assert plan.crash_in(0, after_s=4.0, until_s=5.0) == 5.0
        assert plan.crash_in(0, after_s=0.0, until_s=4.9) is None
        assert plan.crash_in(1, after_s=0.0, until_s=10.0) is None

    def test_recover_after_maps_instant_to_window_end(self):
        plan = FaultPlan(
            crashes=(ReplicaCrash(replica=0, at_s=5.0, recover_s=9.0),)
        )
        assert plan.recover_after(0, 5.0) == 9.0
        assert plan.recover_after(0, 8.9) == 9.0
        # Outside any window the replica is already up.
        assert plan.recover_after(0, 9.0) == 9.0
        assert plan.recover_after(1, 5.0) == 5.0

    def test_service_factor_keyed_to_dispatch_instant(self):
        plan = FaultPlan(
            slow=(
                SlowWindow(replica=0, start_s=1.0, end_s=2.0, factor=3.0),
                SlowWindow(replica=0, start_s=1.5, end_s=2.5, factor=2.0),
            )
        )
        assert plan.service_factor(0, 0.5) == 1.0
        assert plan.service_factor(0, 1.0) == 3.0
        assert plan.service_factor(0, 1.75) == 6.0  # windows stack
        assert plan.service_factor(0, 2.0) == 2.0  # end is exclusive
        assert plan.service_factor(1, 1.5) == 1.0

    def test_fails_batch_matches_replica_and_sequence(self):
        plan = FaultPlan(engine_faults=(EngineFault(replica=1, batch_index=2),))
        assert plan.fails_batch(1, 2)
        assert not plan.fails_batch(1, 3)
        assert not plan.fails_batch(0, 2)


class TestSerialisation:
    def test_json_round_trip_is_exact(self):
        plan = FaultPlan(
            crashes=(ReplicaCrash(replica=0, at_s=1.0, recover_s=2.5),),
            slow=(SlowWindow(replica=1, start_s=0.5, end_s=1.5, factor=4.0),),
            engine_faults=(EngineFault(replica=0, batch_index=3),),
            seed=7,
        )
        assert FaultPlan.from_json(plan.to_json()) == plan
        # to_dict is plain JSON data (what chaos_report.json embeds).
        json.dumps(plan.to_dict())

    def test_old_plan_json_with_removed_keys_loads(self):
        # Older builds wrote ``worker_kills``/``torn_writes``; they
        # scheduled nothing, so a plan holding them loads without them.
        plan = FaultPlan(
            crashes=(ReplicaCrash(replica=0, at_s=1.0, recover_s=2.5),),
            seed=7,
        )
        old = {**plan.to_dict(), "worker_kills": [2], "torn_writes": [0.25]}
        assert FaultPlan.from_json(json.dumps(old)) == plan
        assert set(plan.to_dict()) == {"seed", "crashes", "slow", "engine_faults"}

    def test_malformed_json_is_typed(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.from_json("{not json")
        with pytest.raises(ConfigurationError):
            FaultPlan.from_dict({"crashes": [{"bogus": 1}]})
        with pytest.raises(ConfigurationError):
            FaultPlan.from_dict([1, 2, 3])


class TestGenerate:
    def test_deterministic_in_seed(self):
        a = FaultPlan.generate(seed=5, n_replicas=3, horizon_s=10.0)
        b = FaultPlan.generate(seed=5, n_replicas=3, horizon_s=10.0)
        c = FaultPlan.generate(seed=6, n_replicas=3, horizon_s=10.0)
        assert a == b
        assert a != c

    def test_single_replica_gets_no_crashes(self):
        plan = FaultPlan.generate(
            seed=0, n_replicas=1, horizon_s=10.0, n_crashes=4
        )
        assert plan.crashes == ()
        assert plan.slow  # slow windows carry no availability constraint

    def test_crash_windows_never_overlap_fleet_wide(self):
        # At most one replica down at any instant: the generated windows
        # must be disjoint across the whole fleet, not just per replica.
        for seed in range(8):
            plan = FaultPlan.generate(
                seed=seed, n_replicas=4, horizon_s=20.0, n_crashes=5
            )
            windows = sorted(
                (c.at_s, c.recover_s) for c in plan.crashes
            )
            for (_, end_a), (start_b, _) in zip(windows, windows[1:]):
                assert start_b >= end_a

    def test_generate_validates_inputs(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.generate(seed=0, n_replicas=0, horizon_s=1.0)
        with pytest.raises(ConfigurationError):
            FaultPlan.generate(seed=0, n_replicas=2, horizon_s=0.0)


class TestResilienceConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ResilienceConfig(max_retries=-1)
        with pytest.raises(ConfigurationError):
            ResilienceConfig(backoff_base_s=-1e-3)
        with pytest.raises(ConfigurationError):
            ResilienceConfig(hedge_after_s=0.0)
        assert ResilienceConfig(max_retries=0).max_retries == 0

    def test_backoff_is_a_pure_seeded_function(self):
        config = ResilienceConfig(seed=3)
        again = ResilienceConfig(seed=3)
        assert config.backoff_s(17, 2) == again.backoff_s(17, 2)
        assert config.backoff_s(17, 2) != ResilienceConfig(seed=4).backoff_s(
            17, 2
        )

    def test_backoff_grows_exponentially_within_jitter_bounds(self):
        config = ResilienceConfig(
            backoff_base_s=1e-3, backoff_jitter=0.5, seed=0
        )
        for rid in (0, 9, 123):
            for attempt in (1, 2, 3, 4):
                lo = 1e-3 * 2.0 ** (attempt - 1)
                delay = config.backoff_s(rid, attempt)
                assert lo <= delay <= lo * 1.5

    def test_zero_jitter_is_deterministic_doubling(self):
        config = ResilienceConfig(
            backoff_base_s=2e-3, backoff_jitter=0.0, seed=0
        )
        assert config.backoff_s(5, 1) == pytest.approx(2e-3)
        assert config.backoff_s(5, 3) == pytest.approx(8e-3)

    def test_dict_round_trip(self):
        config = ResilienceConfig(max_retries=4, hedge_after_s=0.25, seed=9)
        assert ResilienceConfig.from_dict(config.to_dict()) == config
        with pytest.raises(ConfigurationError):
            ResilienceConfig.from_dict({"bogus": 1})
