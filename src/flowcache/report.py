"""Run reports: one decision row per sampler step plus aggregate counters.

Cost is accounted in token-step units, here and nowhere else. A (T, H, W, C)
latent, and its trial grid at the pooled extents, holds T*H*W tokens
(token_count). A row costs the trial grid's tokens if it ran a trial, plus
the latent's times the fraction of the net it evaluated: 1, the pivotal
share of the blocks on a partial block step, or 0 on a skip (step_cost).
RunReport.from_rows sums the rows into a run's counts and costs. Wall time
is recorded for reporting only and is never asserted on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import StateError

DECISION_WARMUP = "warmup-full"
DECISION_FULL = "full"
DECISION_SKIP = "skip"


def token_count(shape: tuple[int, int, int, int]) -> float:
    """Tokens of a (T, H, W, C) latent or trial grid: T*H*W (channels are features, not tokens)."""
    return float(shape[0] * shape[1] * shape[2])


def step_cost(latent_tokens: float, trial_tokens: float, trialed: bool, fraction: float) -> float:
    """A step row's cost units: trial_tokens if the row ran a trial, plus fraction of latent_tokens."""
    return (trial_tokens if trialed else 0.0) + latent_tokens * fraction


@dataclass(frozen=True, slots=True)
class StepRecord:
    """Decision row for a single sampler step; slotted, so a run's rows hold no per-row dict."""

    step: int
    t: float
    decision: str
    trial_delta: Optional[float]
    err_before: Optional[float]
    err_after: Optional[float]
    cost_units: float
    pivotal_size: Optional[int] = None
    block_partial: Optional[bool] = None


@dataclass
class RunReport:
    """Aggregate record of one sampling run.

    full_eval_count covers post-warmup full decisions only; warmup rows are
    tagged separately, so full_eval_count + skip_count equals the post-warmup
    step count and adding warmup_full_count recovers the schedule length.
    """

    steps: list[StepRecord] = field(default_factory=list)
    full_eval_count: int = 0
    skip_count: int = 0
    warmup_full_count: int = 0
    trial_eval_count: int = 0
    cost_units: float = 0.0
    baseline_cost_units: float = 0.0
    trial_cost_units: float = 0.0
    wall_time: float = 0.0
    open_loop: bool = False
    latent_shape: tuple[int, int, int, int] = (0, 0, 0, 0)
    n_steps: int = 0
    threshold: Optional[float] = None
    warmup_max_delta: Optional[float] = None

    @classmethod
    def from_rows(cls, rows: list[StepRecord], latent_shape: tuple[int, int, int, int],
                  trial_tokens: float = 0.0, wall_time: float = 0.0) -> RunReport:
        """A run's report from its rows on a latent_shape latent, each trial at trial_tokens, the baseline all full."""
        decisions = [r.decision for r in rows]
        trial_count = sum(r.trial_delta is not None for r in rows)
        return cls(
            steps=rows,
            full_eval_count=decisions.count(DECISION_FULL),
            skip_count=decisions.count(DECISION_SKIP),
            warmup_full_count=decisions.count(DECISION_WARMUP),
            trial_eval_count=trial_count,
            cost_units=float(sum(r.cost_units for r in rows)),
            baseline_cost_units=token_count(latent_shape) * len(rows),
            trial_cost_units=trial_tokens * trial_count,
            wall_time=wall_time,
            latent_shape=latent_shape,
            n_steps=len(rows),
            warmup_max_delta=max((r.trial_delta for r in rows[1:] if r.decision == DECISION_WARMUP), default=None),
        )

    def validate(self) -> None:
        """The counts against the rows; raises StateError. On from_rows' reports only an unknown decision fails."""
        if len(self.steps) != self.n_steps:
            raise StateError(f"report has {len(self.steps)} step rows for {self.n_steps} steps")
        if self.full_eval_count + self.skip_count + self.warmup_full_count != self.n_steps:
            raise StateError(f"full, skip and warmup counts do not add up to {self.n_steps} steps")
        decisions = [r.decision for r in self.steps]
        for name, decision, count in (("full", DECISION_FULL, self.full_eval_count),
                                      ("skip", DECISION_SKIP, self.skip_count),
                                      ("warmup", DECISION_WARMUP, self.warmup_full_count)):
            if decisions.count(decision) != count:
                raise StateError(f"report counts {count} {name} steps but its rows hold {decisions.count(decision)}")
