"""Deterministic Euler sampling of a probability-flow ODE from t = 1 down to t = 0.

Time runs from 1 (pure noise) to 0 (data). A schedule with n steps holds n + 1
strictly decreasing values; the predictor is evaluated at the first n of them,
so the terminal value (0 by default) is never an evaluation point.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Protocol, runtime_checkable

import numpy as np

from .errors import ConfigError, DimensionError, ScheduleError
from .report import DECISION_FULL, DECISION_SKIP, DECISION_WARMUP, RunReport, StepRecord
from .tensor import Tensor4, axpy, require_finite

SCHEDULE_KINDS = ("uniform", "shifted")

#: Observer callback: (step index, t, latent entering the step, prediction used).
StepObserver = Callable[[int, float, np.ndarray, np.ndarray], None]

#: Step policy: (step index, t, latent entering the step) -> (prediction to use, decision row).
StepPolicy = Callable[[int, float, np.ndarray], tuple[np.ndarray, StepRecord]]


@runtime_checkable
class Predictor(Protocol):
    """Deterministic, shape-preserving velocity model on bare (T, H, W, C) float64 arrays.

    evaluate reads x and never writes or freezes it. The samplers pass each
    full-resolution prediction through require_finite, its finiteness check.
    """

    def evaluate(self, x: np.ndarray, t: float) -> np.ndarray: ...


@runtime_checkable
class BlockPredictor(Predictor, Protocol):
    """Predictor decomposed into sequential residual blocks."""

    @property
    def num_blocks(self) -> int: ...

    def apply_block(self, index: int, features: np.ndarray, t: float) -> np.ndarray: ...


@dataclass(frozen=True)
class TimestepSchedule:
    """Strictly decreasing timestep values, first entry 1.0, traversal order."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) < 2:
            raise ScheduleError(f"schedule needs at least 2 values, got {len(vals)}")
        for i in range(1, len(vals)):
            if not vals[i] < vals[i - 1]:
                raise ScheduleError(f"schedule values must strictly decrease: values[{i - 1}]={vals[i - 1]} vs values[{i}]={vals[i]}")
        if vals[0] != 1.0:
            raise ScheduleError(f"schedule must start at 1.0, got {vals[0]}")
        if vals[-1] < 0.0 or vals[-1] >= 1.0:
            raise ScheduleError(f"terminal value must lie in [0, 1), got {vals[-1]}")

    @property
    def n_steps(self) -> int:
        return len(self.values) - 1

    def pairs(self) -> list[tuple[int, float, float]]:
        """(step index, t, t_next) for each traversal step."""
        v = self.values
        return [(k, v[k], v[k + 1]) for k in range(len(v) - 1)]


def make_schedule(n: int, kind: str = "uniform", shift: float = 1.0, terminal: float = 0.0) -> TimestepSchedule:
    """Build an n-step schedule.

    uniform: t_i = i / n traversed from i = n down to 0. shifted: the uniform
    grid u is warped through shift*u / (1 + (shift - 1)*u), which leaves the
    endpoints fixed and is the identity at shift = 1. A nonzero terminal maps
    the warped grid linearly onto [terminal, 1]. The first value is exactly
    1.0, not the warp of u = 1, which rounds off 1.0 for some shifts < 1.
    """
    if not isinstance(n, int) or n < 2:
        raise ConfigError(f"schedule step count must be an integer >= 2, got {n!r}")
    if kind not in SCHEDULE_KINDS:
        raise ConfigError(f"unknown schedule kind {kind!r}, expected one of {SCHEDULE_KINDS}")
    if shift <= 0:
        raise ConfigError(f"schedule shift must be > 0, got {shift}")
    if terminal < 0.0 or terminal >= 1.0:
        raise ConfigError(f"schedule terminal must lie in [0, 1), got {terminal}")
    values = [1.0]
    for i in range(n - 1, -1, -1):
        u = i / n
        if kind == "shifted":
            u = shift * u / (1.0 + (shift - 1.0) * u)
        values.append(terminal + (1.0 - terminal) * u if terminal != 0.0 else u)
    return TimestepSchedule(tuple(values))


def euler_step(z: np.ndarray, f: np.ndarray, t_cur: float, t_next: float) -> np.ndarray:
    """One explicit Euler update z + (t_next - t_cur) * f by axpy, through require_finite; needs t_next < t_cur."""
    if not t_next < t_cur:
        raise ScheduleError(f"euler step requires t_next < t_cur, got {t_next} >= {t_cur}")
    return require_finite(axpy(z, t_next - t_cur, f))


def run_steps(
    policy: StepPolicy,
    z_init: Tensor4,
    schedule: TimestepSchedule,
    observer: Optional[StepObserver] = None,
) -> tuple[Tensor4, RunReport]:
    """The Euler step loop: the policy picks each step's prediction, the loop advances z.

    The loop, its policy and its observer work on bare arrays: only z_init and
    the terminal are Tensor4s. euler_step checks every latent; the policy
    checks its prediction too, so no observer ever holds a non-finite one.
    Report counts and cost units come from the policy's rows. The loop knows
    nothing of the predictor or the cache, so its callers set the fields that
    do: sample_baseline open_loop, sample_cached trial_cost_units.
    """
    start = time.perf_counter()
    rows: list[StepRecord] = []
    z = z_init.data
    for k, t, t_next in schedule.pairs():
        f, row = policy(k, t, z)
        if f.shape != z.shape:
            raise DimensionError(f"predictor returned shape {f.shape} for input shape {z.shape}")
        if observer is not None:
            observer(k, t, z, f)
        z = euler_step(z, f, t, t_next)
        rows.append(row)
    decisions = [r.decision for r in rows]
    n = schedule.n_steps
    report = RunReport(
        steps=rows,
        full_eval_count=decisions.count(DECISION_FULL),
        skip_count=decisions.count(DECISION_SKIP),
        warmup_full_count=decisions.count(DECISION_WARMUP),
        trial_eval_count=sum(r.trial_delta is not None for r in rows),
        cost_units=float(sum(r.cost_units for r in rows)),
        baseline_cost_units=float(z_init.cells) * n,
        wall_time=time.perf_counter() - start,
        latent_shape=z_init.shape,
        n_steps=n,
    )
    report.validate()
    return Tensor4(z), report


def sample_baseline(
    pred: Predictor,
    z_init: Tensor4,
    schedule: TimestepSchedule,
    observer: Optional[StepObserver] = None,
) -> tuple[Tensor4, RunReport]:
    """Run the sampler with a full evaluation at every step (no caching)."""
    full_cells = float(z_init.cells)

    def always_full(k: int, t: float, z: np.ndarray) -> tuple[np.ndarray, StepRecord]:
        return require_finite(pred.evaluate(z, t)), StepRecord(step=k, t=t, decision=DECISION_FULL, trial_delta=None,
                                                               err_before=None, err_after=None, cost_units=full_cells)

    z, report = run_steps(always_full, z_init, schedule, observer)
    report.open_loop = bool(getattr(pred, "open_loop", False))
    return z, report
