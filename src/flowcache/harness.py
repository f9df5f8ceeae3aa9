"""Diagnostics that measure where and when cached predictions are safe to reuse.

Every experiment here runs against a no-cache reference trajectory from the
same seed, so reported errors isolate the intervention being studied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .engine import (DEFAULT_RADIUS_SCALE, BlockCacheConfig, BlockCacheState, StepCacheConfig, block_cached_forward,
                     low_band, recorded_increments, trial_lowfreq_diff, trial_mask)
from .errors import ConfigError, DimensionError, DomainError
from .report import RunReport
from .sampler import Predictor, TimestepSchedule, sample_baseline
from .spectral import highfreq_diff, lowfreq_diff, splice_bands
from .tensor import DownsampleFactors, Tensor4, avg_downsample, axpy, l2_norm, mse

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


def _full_resolution(mask_scale: float) -> StepCacheConfig:
    """Step-cache config of an unpooled trial: its trial_mask is the latent plane's own low band."""
    return StepCacheConfig(downsample=DownsampleFactors(1, 1, 1), mask_scale=mask_scale)


class _Substituted:
    """Predictor that returns fixed predictions at some timesteps and evaluates pred at the others."""

    def __init__(self, pred: Predictor, fixed: dict[float, Tensor4]):
        self.pred = pred
        self.fixed = fixed

    def evaluate(self, z: Tensor4, t: float) -> Tensor4:
        f = self.fixed.get(t)
        return self.pred.evaluate(z, t) if f is None else f


def single_step_skip_influence(
    pred: Predictor,
    z_init: Tensor4,
    schedule: TimestepSchedule,
    variant: str = VARIANT_FULL,
    mask_scale: float = DEFAULT_RADIUS_SCALE,
) -> InfluenceProfile:
    """Terminal MSE from substituting the previous step's prediction at one step.

    For each step k >= 1 the sampler is rerun with the step-k prediction
    replaced, then continued normally; steps before k replay the recorded
    predictions, so the latent entering step k is bitwise the recorded one.
    full-prediction substitutes the entire previous prediction; lf-only
    splices only its low band onto the fresh high band; hf-only is the
    converse. The band is the full-resolution trial mask's at mask_scale.
    Step 0 has no predecessor and is excluded.
    """
    if variant not in INFLUENCE_VARIANTS:
        raise ConfigError(f"unknown influence variant {variant!r}, expected one of {INFLUENCE_VARIANTS}")
    traj = run_trajectory(pred, z_init, schedule)
    mask = trial_mask(z_init.shape, _full_resolution(mask_scale))
    values = schedule.values
    indices = []
    t_values = []
    mses = []
    for k in range(1, schedule.n_steps):
        fresh = traj.predictions[k]
        stale = traj.predictions[k - 1]
        if variant == VARIANT_FULL:
            substituted = stale
        elif variant == VARIANT_LOW:
            substituted = splice_bands(stale, fresh, mask)
        else:
            substituted = splice_bands(fresh, stale, mask)
        fixed = dict(zip(values[:k], traj.predictions[:k]))
        fixed[values[k]] = substituted
        z, _ = sample_baseline(_Substituted(pred, fixed), z_init, schedule)
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
    mask_scale: float = DEFAULT_RADIUS_SCALE,
) -> AdjacentDiffProfile:
    """Norms of F_k - F_{k-1} along a no-cache trajectory, split by the full-resolution trial mask's band at mask_scale.

    The unitary transform makes the bands partition energy: raw^2 equals
    low^2 + high^2 up to rounding.
    """
    traj = run_trajectory(pred, z_init, schedule)
    mask = trial_mask(z_init.shape, _full_resolution(mask_scale))
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
    mask_scale: float = DEFAULT_RADIUS_SCALE,
) -> ResolutionSensitivity:
    """How well downsampled trial drift tracks the full-resolution drift.

    Along one shared no-cache trajectory, each factor set produces the per-step
    drift a trial evaluation at that resolution would have measured; the
    reference is the same statistic at full resolution. Factors (1, 1, 1)
    reproduce the reference exactly.
    """
    traj = run_trajectory(pred, z_init, schedule)
    indices = tuple(range(1, schedule.n_steps))
    reference = tuple(recorded_increments(traj.predictions, _full_resolution(mask_scale)))
    series = []
    pearsons = []
    spearmans = []
    for f in factors:
        cfg = StepCacheConfig(downsample=f, mask_scale=mask_scale)
        mask = trial_mask(z_init.shape, cfg)
        seq = [trial_lowfreq_diff(pred, avg_downsample(traj.latents[k], f), schedule.values[k],
                                  low_band(traj.predictions[k - 1], cfg, mask), mask) for k in indices]
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
    """Block importances at each probe step of the plain trajectory: the norms a fresh block-cache refresh ranks."""
    probes = sorted(set(int(p) for p in probe_steps))
    n = schedule.n_steps
    for p in probes:
        if not 0 <= p < n:
            raise DomainError(f"probe step {p} outside [0, {n})")
    if net.num_blocks == 0:
        raise DomainError("block profile needs a net with at least one block")
    traj = run_trajectory(net, z_init, schedule)
    importances = []
    for p in probes:
        state = BlockCacheState()
        block_cached_forward(net, traj.latents[p], schedule.values[p], BlockCacheConfig(), state)
        importances.append(state.norms)
    return BlockProfile(tuple(probes), tuple(schedule.values[p] for p in probes), tuple(importances))


@dataclass(frozen=True)
class CostSummary:
    """Token-step cost roll-up of one run."""

    cost_units: float
    baseline_cost_units: float
    speedup_units: float
    skip_fraction: float
    trial_overhead_fraction: float


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
    """1-based ranks; a tied group of c values ending at rank r shares the average rank r - (c - 1) / 2."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman rank correlation: Pearson on fractional ranks, ties averaged."""
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise DimensionError(f"correlation needs equal-length 1-D sequences, got {xa.shape} vs {ya.shape}")
    return pearson(_fractional_ranks(xa), _fractional_ranks(ya))
