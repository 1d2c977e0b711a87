"""Shared configuration for the experiment runners."""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_positive_int

__all__ = ["ExperimentConfig"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs controlling experiment scale vs fidelity.

    Attributes
    ----------
    seed:
        Root seed for all randomness (workloads, queries, Monte Carlo).
    monte_carlo_trials:
        Trials for Table I estimates (paper: 1000).
    queries:
        Random query vectors per matrix for accuracy runs (paper: 30).
    functional_rows:
        Row count at which accuracy experiments materialise matrices.
        The paper runs at N up to 1.5x10^7 on hardware; the functional
        simulation defaults to a laptop-scale N with the same distributions
        (partition-occupancy effects at full N are covered analytically by
        Table I, which runs at true scale).
    """

    seed: int = 2021
    monte_carlo_trials: int = 1000
    queries: int = 10
    functional_rows: int = 120_000

    def __post_init__(self) -> None:
        check_positive_int(self.seed, "seed")
        check_positive_int(self.monte_carlo_trials, "monte_carlo_trials")
        check_positive_int(self.queries, "queries")
        check_positive_int(self.functional_rows, "functional_rows")

    @classmethod
    def quick(cls) -> "ExperimentConfig":
        """A reduced configuration for tests and benchmark smoke runs."""
        return cls(monte_carlo_trials=300, queries=3, functional_rows=20_000)

    @classmethod
    def paper(cls) -> "ExperimentConfig":
        """The paper's evaluation scale where feasible (30 queries)."""
        return cls(monte_carlo_trials=1000, queries=30, functional_rows=300_000)
