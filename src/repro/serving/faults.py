"""Seeded, replayable fault injection for the serving tier.

The repo's signature discipline — everything deterministic, replayable,
bit-identity-locked — extends to *failures*: a :class:`FaultPlan` is a pure
data object scheduling replica crashes/recoveries, slow-replica windows and
engine exceptions, all keyed to the **virtual clock** (and per-replica batch
sequence numbers) the decision core already runs on.  Both drivers — the discrete-event simulator
(:class:`~repro.serving.cluster.ClusterRuntime`) and the live daemon
(:class:`~repro.serving.live.LiveServer`) — hand the same plan to the same
:class:`~repro.serving.policy.ClusterPolicy`, so failover, retry and hedge
decisions under a plan replay exactly like routing and batching decisions
do without one.

:class:`ResilienceConfig` carries the recovery knobs: bounded retries with
seeded exponential backoff + jitter (the delay is a pure function of
``(seed, request id, attempt)``, never of wall time), and optional request
hedging after a fixed waiting-time budget.

Plans serialise to/from JSON so a chaos benchmark run can persist the exact
schedule it replayed (``benchmarks/bench_chaos.py`` writes it into
``chaos_report.json``).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "HEALTHY",
    "SUSPECTED",
    "DOWN",
    "RECOVERING",
    "SUSPECT_STRIKES",
    "ReplicaCrash",
    "SlowWindow",
    "EngineFault",
    "ResilienceConfig",
    "FaultPlan",
]

#: Replica health states (the per-replica state machine in the policy):
#: ``healthy`` serves normally; ``suspected`` has recent strikes (engine
#: failures) but still receives traffic; ``down`` is excluded from routing
#: and dispatch; ``recovering`` just came back and is promoted to
#: ``healthy`` on its first successful batch.
HEALTHY = "healthy"
SUSPECTED = "suspected"
DOWN = "down"
RECOVERING = "recovering"

#: Consecutive engine-batch failures that demote a replica from
#: ``suspected`` straight to ``down`` (a crash demotes immediately).
SUSPECT_STRIKES = 3

#: SeedSequence namespaces keeping plan generation and backoff jitter
#: streams independent of every other seeded component in the library.
_PLAN_NS = 0x7A0C5
_BACKOFF_NS = 0xBACC0FF


@dataclass(frozen=True)
class ReplicaCrash:
    """One replica is dead during ``[at_s, recover_s)`` (virtual time).

    Its queue is drained and requeued at ``at_s``; a batch in flight across
    ``at_s`` is lost and its members requeued.  ``recover_s = inf`` means
    the replica never comes back.
    """

    replica: int
    at_s: float
    recover_s: float

    def __post_init__(self):
        if self.at_s < 0.0 or not self.recover_s > self.at_s:
            raise ConfigurationError(
                f"crash window must satisfy 0 <= at_s < recover_s, got "
                f"[{self.at_s}, {self.recover_s})"
            )


@dataclass(frozen=True)
class SlowWindow:
    """Batches *dispatched* in ``[start_s, end_s)`` run ``factor``× slower."""

    replica: int
    start_s: float
    end_s: float
    factor: float

    def __post_init__(self):
        if not self.end_s > self.start_s:
            raise ConfigurationError(
                f"slow window must satisfy start_s < end_s, got "
                f"[{self.start_s}, {self.end_s})"
            )
        if not self.factor > 0.0:
            raise ConfigurationError(
                f"slow factor must be > 0, got {self.factor}"
            )


@dataclass(frozen=True)
class EngineFault:
    """The ``batch_index``-th batch dispatched on ``replica`` fails.

    Modelled as an engine exception detected at the batch's (virtual)
    completion instant: no results are delivered, the members are requeued
    with backoff, and the replica takes a health strike.
    """

    replica: int
    batch_index: int

    def __post_init__(self):
        if self.batch_index < 0:
            raise ConfigurationError(
                f"batch_index must be >= 0, got {self.batch_index}"
            )


@dataclass(frozen=True)
class ResilienceConfig:
    """Recovery knobs of the serving tier (all decisions seeded).

    ``max_retries`` bounds re-dispatch attempts per request after a batch
    failure; a request exhausting the budget gets a typed ``failed``
    rejection, never a hang.  The retry delay is exponential with seeded
    jitter: ``backoff_base_s * 2**(attempt-1) * (1 + backoff_jitter * u)``
    with ``u`` drawn deterministically from ``(seed, request id,
    attempt)``.  ``hedge_after_s`` (optional) duplicates a request that has
    been queued that long onto the least-loaded other replica; the first
    completion wins and the loser is discarded (exactly-once delivery).
    """

    max_retries: int = 2
    backoff_base_s: float = 1e-3
    backoff_jitter: float = 0.5
    hedge_after_s: "float | None" = None
    seed: int = 0

    def __post_init__(self):
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base_s < 0.0 or self.backoff_jitter < 0.0:
            raise ConfigurationError(
                "backoff_base_s and backoff_jitter must be >= 0"
            )
        if self.hedge_after_s is not None and not self.hedge_after_s > 0.0:
            raise ConfigurationError(
                f"hedge_after_s must be > 0, got {self.hedge_after_s}"
            )

    def backoff_s(self, request_id: int, attempt: int) -> float:
        """The seeded retry delay before ``attempt`` (1-based) re-dispatch.

        A pure function of ``(seed, request_id, attempt)`` — the simulator
        and the live daemon derive the identical delay, which is what keeps
        retried runs decision-locked.
        """
        seq = np.random.SeedSequence(
            [_BACKOFF_NS, int(self.seed), int(request_id), int(attempt)]
        )
        u = float(np.random.default_rng(seq).random())
        return float(
            self.backoff_base_s
            * (2.0 ** max(0, attempt - 1))
            * (1.0 + self.backoff_jitter * u)
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ResilienceConfig":
        try:
            return cls(**payload)
        except TypeError as exc:
            raise ConfigurationError(
                f"malformed resilience config: {exc}"
            ) from exc


@dataclass(frozen=True)
class FaultPlan:
    """A replayable schedule of injected failures, keyed to virtual time.

    ``crashes``/``slow``/``engine_faults`` drive the serving tier (consumed
    by :class:`~repro.serving.policy.ClusterPolicy`).  A plan JSON from an
    older build may still hold ``worker_kills``/``torn_writes`` keys; they
    scheduled nothing and :meth:`from_dict` ignores them.
    """

    crashes: "tuple[ReplicaCrash, ...]" = ()
    slow: "tuple[SlowWindow, ...]" = ()
    engine_faults: "tuple[EngineFault, ...]" = ()
    seed: int = 0

    def __post_init__(self):
        # Normalise: tolerate lists from callers/JSON.
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "slow", tuple(self.slow))
        object.__setattr__(self, "engine_faults", tuple(self.engine_faults))
        by_replica: "dict[int, list[ReplicaCrash]]" = {}
        for crash in self.crashes:
            by_replica.setdefault(crash.replica, []).append(crash)
        for replica, crashes in by_replica.items():
            crashes.sort(key=lambda c: c.at_s)
            for a, b in zip(crashes, crashes[1:]):
                if b.at_s < a.recover_s:
                    raise ConfigurationError(
                        f"replica {replica} has overlapping crash windows "
                        f"[{a.at_s}, {a.recover_s}) and [{b.at_s}, "
                        f"{b.recover_s})"
                    )

    @property
    def is_empty(self) -> bool:
        """True when the plan injects nothing."""
        return not (self.crashes or self.slow or self.engine_faults)

    # ------------------------------------------------------------------ #
    # Queries the policy asks at decision time
    # ------------------------------------------------------------------ #
    def transitions(self) -> "list[tuple[float, str, int]]":
        """Every ``(time, 'crash'|'recover', replica)``, unsorted.

        The policy preloads these into its event heap; infinite recoveries
        (``recover_s = inf``) produce no recover transition.
        """
        events: "list[tuple[float, str, int]]" = []
        for crash in self.crashes:
            events.append((float(crash.at_s), "crash", int(crash.replica)))
            if np.isfinite(crash.recover_s):
                events.append(
                    (float(crash.recover_s), "recover", int(crash.replica))
                )
        return events

    def crash_in(
        self, replica: int, after_s: float, until_s: float
    ) -> "float | None":
        """Earliest crash instant on ``replica`` in ``(after_s, until_s]``.

        This is how a batch in flight dies: dispatched at ``after_s`` with
        modelled completion ``until_s``, it is lost at the first crash
        strictly after dispatch and at or before completion.
        """
        hits = [
            c.at_s
            for c in self.crashes
            if c.replica == replica and after_s < c.at_s <= until_s
        ]
        return min(hits) if hits else None

    def recover_after(self, replica: int, crash_s: float) -> float:
        """The recovery instant of the crash window covering ``crash_s``."""
        for crash in self.crashes:
            if crash.replica == replica and crash.at_s <= crash_s < crash.recover_s:
                return float(crash.recover_s)
        return float(crash_s)

    def service_factor(self, replica: int, dispatch_s: float) -> float:
        """Latency multiplier for a batch dispatched at ``dispatch_s``."""
        factor = 1.0
        for window in self.slow:
            if (
                window.replica == replica
                and window.start_s <= dispatch_s < window.end_s
            ):
                factor *= window.factor
        return factor

    def fails_batch(self, replica: int, batch_index: int) -> bool:
        """Does the plan inject an engine exception into this batch?"""
        return any(
            f.replica == replica and f.batch_index == batch_index
            for f in self.engine_faults
        )

    # ------------------------------------------------------------------ #
    # Serialisation (chaos reports persist the exact schedule they ran)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        return {
            "seed": int(self.seed),
            "crashes": [asdict(c) for c in self.crashes],
            "slow": [asdict(w) for w in self.slow],
            "engine_faults": [asdict(f) for f in self.engine_faults],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"a fault plan is a JSON object, got {type(payload).__name__}"
            )
        try:
            return cls(
                seed=int(payload.get("seed", 0)),
                crashes=tuple(
                    ReplicaCrash(**c) for c in payload.get("crashes", [])
                ),
                slow=tuple(
                    SlowWindow(**w) for w in payload.get("slow", [])
                ),
                engine_faults=tuple(
                    EngineFault(**f) for f in payload.get("engine_faults", [])
                ),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed fault plan: {exc}") from exc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"fault plan is not valid JSON: {exc}"
            ) from exc
        return cls.from_dict(payload)

    # ------------------------------------------------------------------ #
    # Seeded generation
    # ------------------------------------------------------------------ #
    @classmethod
    def generate(
        cls,
        seed: int,
        n_replicas: int,
        horizon_s: float,
        n_crashes: int = 1,
        n_slow: int = 1,
        n_engine_faults: int = 1,
        mean_downtime_s: "float | None" = None,
        slow_factor: float = 4.0,
    ) -> "FaultPlan":
        """A seeded plan that always leaves >= 1 replica alive.

        Crash windows are laid out non-overlapping *in time across the
        whole fleet*, so at most one replica is ever down at once; with a
        single replica no crashes are generated at all (there would be no
        survivor to fail over to).  Slow windows and engine faults carry no
        availability constraint and land anywhere.
        """
        if n_replicas < 1:
            raise ConfigurationError(
                f"n_replicas must be >= 1, got {n_replicas}"
            )
        if not horizon_s > 0.0:
            raise ConfigurationError(
                f"horizon_s must be > 0, got {horizon_s}"
            )
        rng = np.random.default_rng(
            np.random.SeedSequence([_PLAN_NS, int(seed)])
        )
        if mean_downtime_s is None:
            mean_downtime_s = horizon_s / max(1, 4 * n_crashes)
        crashes: "list[ReplicaCrash]" = []
        if n_replicas >= 2 and n_crashes > 0:
            starts = np.sort(rng.uniform(0.0, horizon_s, size=n_crashes))
            for i, start in enumerate(starts):
                ceiling = (
                    starts[i + 1] if i + 1 < len(starts) else horizon_s * 2.0
                )
                duration = min(
                    float(rng.exponential(mean_downtime_s))
                    + mean_downtime_s * 0.1,
                    max(ceiling - start - 1e-9, 1e-6),
                )
                crashes.append(
                    ReplicaCrash(
                        replica=int(rng.integers(0, n_replicas)),
                        at_s=float(start),
                        recover_s=float(start + duration),
                    )
                )
        slow: "list[SlowWindow]" = []
        for _ in range(n_slow):
            start = float(rng.uniform(0.0, horizon_s))
            slow.append(
                SlowWindow(
                    replica=int(rng.integers(0, n_replicas)),
                    start_s=start,
                    end_s=start + float(rng.uniform(0.05, 0.5) * horizon_s),
                    factor=float(slow_factor),
                )
            )
        engine_faults = tuple(
            EngineFault(
                replica=int(rng.integers(0, n_replicas)),
                batch_index=int(rng.integers(0, 4)),
            )
            for _ in range(n_engine_faults)
        )
        # Dedupe engine faults targeting the same batch (a set in plan form).
        engine_faults = tuple(dict.fromkeys(engine_faults))
        return cls(
            crashes=tuple(crashes),
            slow=tuple(slow),
            engine_faults=engine_faults,
            seed=int(seed),
        )
