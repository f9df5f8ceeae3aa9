"""Run reports: one decision row per sampler step plus aggregate counters.

Cost is accounted in token-step units: a full evaluation on a (T, H, W, C)
latent costs T*H*W, a trial evaluation costs the downsampled token count, and
a partial-block evaluation costs T*H*W times the fraction of blocks computed
exactly. Wall time is recorded for reporting only and is never asserted on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import StateError

DECISION_WARMUP = "warmup-full"
DECISION_FULL = "full"
DECISION_SKIP = "skip"


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

    def validate(self) -> None:
        """Internal consistency checks; raises StateError on violation."""
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
