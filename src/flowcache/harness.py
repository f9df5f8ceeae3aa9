"""Diagnostics that measure where and when cached predictions are safe to reuse.

Every experiment here runs against a no-cache reference trajectory from the
same seed, so reported errors isolate the intervention being studied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .engine import StepCacheConfig, block_importance, recorded_increments, trial_lowfreq_diff
from .errors import ConfigError, DimensionError, DomainError, StateError
from .predictors import toy_block_forward
from .report import RunReport
from .sampler import Predictor, TimestepSchedule, euler_step, sample_baseline
from .spectral import FrequencyMask, default_mask, highfreq_diff, lowfreq_diff, splice_bands
from .tensor import DownsampleFactors, Tensor4, axpy, l2_norm, mse

VARIANT_FULL = "full-prediction"
VARIANT_LOW = "lf-only"
VARIANT_HIGH = "hf-only"
INFLUENCE_VARIANTS = (VARIANT_FULL, VARIANT_LOW, VARIANT_HIGH)

#: PSNR reported when the error is exactly zero.
PSNR_CAP_DB = 200.0


@dataclass(frozen=True)
class InfluenceProfile:
    """Terminal-state MSE caused by substituting one step's prediction."""

    variant: str
    step_indices: tuple[int, ...]
    t_values: tuple[float, ...]
    mses: tuple[float, ...]

    def __post_init__(self):
        if self.variant not in INFLUENCE_VARIANTS:
            raise ConfigError(f"unknown influence variant {self.variant!r}, expected one of {INFLUENCE_VARIANTS}")
        if not (len(self.step_indices) == len(self.t_values) == len(self.mses)):
            raise DimensionError("influence profile columns must have equal length")
        if any(v < 0 for v in self.mses):
            raise DomainError("influence entries must be >= 0")


@dataclass(frozen=True)
class Trajectory:
    """Latents entering each step and the predictions evaluated there."""

    schedule: TimestepSchedule
    latents: tuple[Tensor4, ...]
    predictions: tuple[Tensor4, ...]
    terminal: Tensor4


def run_trajectory(pred: Predictor, z_init: Tensor4, schedule: TimestepSchedule) -> Trajectory:
    """No-cache run that records the latent and prediction at every step."""
    latents: list[Tensor4] = []
    predictions: list[Tensor4] = []

    def observer(step: int, t: float, z: Tensor4, f: Tensor4) -> None:
        latents.append(z)
        predictions.append(f)

    terminal, _ = sample_baseline(pred, z_init, schedule, observer=observer)
    return Trajectory(schedule, tuple(latents), tuple(predictions), terminal)


def single_step_skip_influence(
    pred: Predictor,
    z_init: Tensor4,
    schedule: TimestepSchedule,
    variant: str = VARIANT_FULL,
    mask: Optional[FrequencyMask] = None,
) -> InfluenceProfile:
    """Terminal MSE from substituting the previous step's prediction at one step.

    For each step k >= 1 the sampler is rerun with the step-k prediction
    replaced, then continued normally. full-prediction substitutes the entire
    previous prediction; lf-only splices only its low band onto the fresh high
    band; hf-only is the converse. Step 0 has no predecessor and is excluded.
    """
    if variant not in INFLUENCE_VARIANTS:
        raise ConfigError(f"unknown influence variant {variant!r}, expected one of {INFLUENCE_VARIANTS}")
    traj = run_trajectory(pred, z_init, schedule)
    if mask is None:
        mask = default_mask(z_init.height, z_init.width)
    values = schedule.values
    n = schedule.n_steps
    indices = []
    t_values = []
    mses = []
    for k in range(1, n):
        fresh = traj.predictions[k]
        stale = traj.predictions[k - 1]
        if variant == VARIANT_FULL:
            substituted = stale
        elif variant == VARIANT_LOW:
            substituted = splice_bands(stale, fresh, mask)
        else:
            substituted = splice_bands(fresh, stale, mask)
        z = euler_step(traj.latents[k], substituted, values[k], values[k + 1])
        for j in range(k + 1, n):
            f = pred.evaluate(z, values[j])
            z = euler_step(z, f, values[j], values[j + 1])
        indices.append(k)
        t_values.append(values[k])
        mses.append(mse(z, traj.terminal))
    return InfluenceProfile(variant, tuple(indices), tuple(t_values), tuple(mses))


@dataclass(frozen=True)
class AdjacentDiffProfile:
    """Raw, low-band, and high-band norms of prediction changes between steps."""

    step_indices: tuple[int, ...]
    t_values: tuple[float, ...]
    raw: tuple[float, ...]
    low: tuple[float, ...]
    high: tuple[float, ...]


def adjacent_diff_profile(
    pred: Predictor,
    z_init: Tensor4,
    schedule: TimestepSchedule,
    mask: Optional[FrequencyMask] = None,
) -> AdjacentDiffProfile:
    """Norms of F_k - F_{k-1} along a no-cache trajectory, split by band.

    The unitary transform makes the bands partition energy: raw^2 equals
    low^2 + high^2 up to rounding.
    """
    traj = run_trajectory(pred, z_init, schedule)
    if mask is None:
        mask = default_mask(z_init.height, z_init.width)
    indices, t_values, raw, low, high = [], [], [], [], []
    for k in range(1, schedule.n_steps):
        a, b = traj.predictions[k], traj.predictions[k - 1]
        indices.append(k)
        t_values.append(schedule.values[k])
        raw.append(l2_norm(axpy(a, -1.0, b)))
        low.append(lowfreq_diff(a, b, mask))
        high.append(highfreq_diff(a, b, mask))
    return AdjacentDiffProfile(tuple(indices), tuple(t_values), tuple(raw), tuple(low), tuple(high))


@dataclass(frozen=True)
class ResolutionSensitivity:
    """Trial-drift sequences per downsampling factor and their agreement with full resolution."""

    factors: tuple[DownsampleFactors, ...]
    step_indices: tuple[int, ...]
    reference: tuple[float, ...]
    series: tuple[tuple[float, ...], ...]
    pearson_by_factor: tuple[float, ...]
    spearman_by_factor: tuple[float, ...]


DEFAULT_RESOLUTION_FACTORS = (
    DownsampleFactors(1, 2, 2),
    DownsampleFactors(1, 4, 4),
    DownsampleFactors(1, 8, 8),
    DownsampleFactors(2, 4, 4),
    DownsampleFactors(4, 4, 4),
)


def resolution_sensitivity(
    pred: Predictor,
    z_init: Tensor4,
    schedule: TimestepSchedule,
    factors: Sequence[DownsampleFactors] = DEFAULT_RESOLUTION_FACTORS,
    mask_scale: float = 0.2,
) -> ResolutionSensitivity:
    """How well downsampled trial drift tracks the full-resolution drift.

    Along one shared no-cache trajectory, each factor set produces the per-step
    drift a trial evaluation at that resolution would have measured; the
    reference is the same statistic at full resolution. Factors (1, 1, 1)
    reproduce the reference exactly.
    """
    traj = run_trajectory(pred, z_init, schedule)
    indices = tuple(range(1, schedule.n_steps))
    full = StepCacheConfig(downsample=DownsampleFactors(1, 1, 1), mask_scale=mask_scale)
    reference = tuple(recorded_increments(traj.predictions, full))
    series = []
    pearsons = []
    spearmans = []
    for f in factors:
        cfg = StepCacheConfig(downsample=f, mask_scale=mask_scale)
        seq = [trial_lowfreq_diff(pred, traj.latents[k], schedule.values[k], traj.predictions[k - 1], cfg)
               for k in indices]
        series.append(tuple(seq))
        pearsons.append(pearson(seq, reference))
        spearmans.append(spearman(seq, reference))
    return ResolutionSensitivity(
        factors=tuple(factors),
        step_indices=indices,
        reference=reference,
        series=tuple(series),
        pearson_by_factor=tuple(pearsons),
        spearman_by_factor=tuple(spearmans),
    )


@dataclass(frozen=True)
class BlockProfile:
    """Per-block delta norms captured at selected steps of a no-cache trajectory."""

    probe_steps: tuple[int, ...]
    t_values: tuple[float, ...]
    importances: tuple[tuple[float, ...], ...]


def block_profile(net, z_init: Tensor4, schedule: TimestepSchedule, probe_steps: Sequence[int]) -> BlockProfile:
    """Block importances at each probe step along the plain trajectory."""
    probes = sorted(set(int(p) for p in probe_steps))
    n = schedule.n_steps
    for p in probes:
        if not 0 <= p < n:
            raise DomainError(f"probe step {p} outside [0, {n})")
    traj = run_trajectory(net, z_init, schedule)
    t_values = []
    importances = []
    for p in probes:
        _, intermediates = toy_block_forward(net, traj.latents[p], schedule.values[p], capture=True)
        if intermediates is None:
            raise StateError("block forward returned no intermediates despite capture=True")
        t_values.append(schedule.values[p])
        importances.append(tuple(block_importance(intermediates, traj.latents[p])))
    return BlockProfile(tuple(probes), tuple(t_values), tuple(importances))


@dataclass(frozen=True)
class CostSummary:
    """Token-step cost roll-up of one run."""

    cost_units: float
    baseline_cost_units: float
    speedup_units: float
    skip_fraction: float
    trial_overhead_fraction: float

    def breakeven_consistent(self) -> bool:
        """Skips beyond the trial overhead must never slow the run down.

        With the fractions defined against the same baseline denominator the
        break-even factor is 1: skip_fraction > trial_overhead_fraction
        implies speedup_units >= 1.
        """
        if self.skip_fraction > self.trial_overhead_fraction:
            return self.speedup_units >= 1.0
        return True


def cost_accounting(report: RunReport) -> CostSummary:
    """Speedup and overhead fractions from a run report's cost counters."""
    if report.n_steps <= 0 or report.cost_units <= 0 or report.baseline_cost_units <= 0:
        raise DomainError("report carries no accountable cost")
    return CostSummary(
        cost_units=report.cost_units,
        baseline_cost_units=report.baseline_cost_units,
        speedup_units=report.baseline_cost_units / report.cost_units,
        skip_fraction=report.skip_count / report.n_steps,
        trial_overhead_fraction=report.trial_cost_units / report.baseline_cost_units,
    )


def psnr(a: Tensor4, b: Tensor4, peak: float = 1.0) -> float:
    """10 log10(peak^2 / mse); identical inputs return the documented cap."""
    if peak <= 0:
        raise DomainError(f"peak must be > 0, got {peak}")
    err = mse(a, b)
    if err == 0.0:
        return PSNR_CAP_DB
    return float(10.0 * np.log10(peak * peak / err))


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation; identical sequences give exactly 1.0."""
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise DimensionError(f"correlation needs equal-length 1-D sequences, got {xa.shape} vs {ya.shape}")
    if xa.size < 2:
        raise DomainError("correlation needs at least two points")
    dx = xa - xa.mean()
    dy = ya - ya.mean()
    sxx = float(np.sum(dx * dx))
    syy = float(np.sum(dy * dy))
    if sxx == 0.0 or syy == 0.0:
        raise DomainError("correlation undefined for a constant sequence")
    r = float(np.sum(dx * dy)) / float(np.sqrt(sxx * syy))
    return min(1.0, max(-1.0, r))


def _fractional_ranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.float64)
    ranks[order] = np.arange(1, values.size + 1, dtype=np.float64)
    # average ranks within tied groups
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        if j > i:
            ranks[order[i : j + 1]] = 0.5 * (i + 1 + j + 1)
        i = j + 1
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman rank correlation: Pearson on fractional ranks, ties averaged."""
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise DimensionError(f"correlation needs equal-length 1-D sequences, got {xa.shape} vs {ya.shape}")
    return pearson(_fractional_ranks(xa), _fractional_ranks(ya))
