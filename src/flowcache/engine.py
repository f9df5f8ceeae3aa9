"""Adaptive caching for the Euler sampler, as a step policy and its drift statistic.

The sampler's one step loop (sampler.run_steps) asks a policy for each
step's prediction. StepCachePolicy is the step cache: a cheap trial
evaluation on a block-mean-downsampled latent measures how far the
low-frequency band of the prediction has drifted from the one the previous
step used (trial_lowfreq_diff, the package's only drift statistic; its
open-loop form over recorded predictions is recorded_increments). Drift
accumulates, and the cached prediction is reused while the running total
stays under a threshold calibrated during warmup. The block cache is the
policy's full-evaluation path for block-decomposed predictors: blocks whose
output deltas were small at the last fully computed step are replayed from
their cached deltas for a bounded number of subsequent full steps.

The low band is a function of the latent shape and the StepCacheConfig,
stated here once: trial_mask is the mask of the pooled trial plane, with
radius mask_scale * min(H, W) of that plane. The drift between two arrays
on that grid is spectral.lowfreq_diff, the package's one band-difference
rule, which trial_lowfreq_diff and recorded_increments both call: the norm
of the low band of their difference. The band is linear, so a trial cuts
one band, never the cached prediction's, with the mask's two small DFT
matrices on the trial grid the cost model charges for. The policy carries
the trial latent on that grid: pooling and the Euler update are both
linear, so it pools z_0 once and then advances the pooled latent with the
sampler's own update rule, axpy, and the pooled prediction each step used.
So every full-resolution tensor is pooled at most once: z_0, and each new
prediction when the next trial first reads it. circular_mask memoises the
mask and its DFT tables, so they are built once per process.

The policy, like the sampler, works on bare arrays. Every update (trial
latent, residual, block delta, replayed delta) is an axpy call that returns
a new array, so the engine writes no array in place. Every prediction the
policy hands the sampler, fresh or reused, has passed require_finite once.

The latent itself is always advanced by a real Euler update; only the
prediction feeding that update is ever reused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DimensionError, DomainError, StateError
from .report import DECISION_FULL, DECISION_SKIP, DECISION_WARMUP, RunReport, StepRecord
# euler_step is unused here; it stays bound so the benchmark tracer's engine hook resolves.
from .sampler import BlockPredictor, Predictor, StepObserver, TimestepSchedule, euler_step, run_steps
from .spectral import FrequencyMask, circular_mask, lowfreq_diff, spectrum_norm
from .tensor import DownsampleFactors, Tensor4, avg_downsample, axpy, pooled_shape, require_finite

REUSE_PREDICTION = "prediction"
REUSE_RESIDUAL = "residual"
REUSE_STRATEGIES = (REUSE_PREDICTION, REUSE_RESIDUAL)

#: Default low-band radius as a fraction of the trial plane's min(H, W).
DEFAULT_RADIUS_SCALE = 0.2


@dataclass(frozen=True)
class StepCacheConfig:
    """Step-level cache policy.

    alpha scales the warmup maximum into the decision threshold; warmup_steps
    counts initial steps that always run full inference while the calibration
    statistic is collected (at least 2, since step 0 has no drift to measure);
    downsample gives the trial-evaluation pooling factors; reuse picks what a
    skipped step feeds the Euler update; mask_scale sets the low-band radius
    as a fraction of the downsampled min(H, W).
    """

    alpha: float = 0.5
    warmup_steps: int = 5
    downsample: DownsampleFactors = DownsampleFactors(2, 4, 4)
    reuse: str = REUSE_PREDICTION
    mask_scale: float = DEFAULT_RADIUS_SCALE

    def __post_init__(self):
        if not self.alpha > 0:
            raise ConfigError(f"alpha must be > 0, got {self.alpha}")
        if not isinstance(self.warmup_steps, int) or self.warmup_steps < 2:
            raise ConfigError(f"warmup_steps must be an integer >= 2, got {self.warmup_steps!r}")
        if self.reuse not in REUSE_STRATEGIES:
            raise ConfigError(f"unknown reuse strategy {self.reuse!r}, expected one of {REUSE_STRATEGIES}")
        if not self.mask_scale > 0:
            raise ConfigError(f"mask_scale must be > 0, got {self.mask_scale}")


def trial_mask(shape: tuple[int, int, int, int], cfg: StepCacheConfig) -> FrequencyMask:
    """Low-band mask of the trial plane: latents of this shape pooled by cfg.downsample.

    The radius is cfg.mask_scale * min(H, W) of the pooled plane, no flooring.
    """
    _, height, width, _ = pooled_shape(shape, cfg.downsample)
    return circular_mask(height, width, cfg.mask_scale * min(height, width))


@dataclass
class CacheState:
    """Mutable step-cache state threaded through a sampling run.

    cached_prediction is the prediction the previous step used; the trial's
    drift is measured from pooled_prediction, its array pooled to the trial
    grid once a trial needs it. trial_latent is the latent entering the
    current step on the trial grid, a new array each step. cached_residual
    is the prediction minus the latent of the last full evaluation, kept
    only under residual reuse, the one strategy that reads it (None
    otherwise).
    """

    cached_prediction: Optional[np.ndarray] = None
    cached_residual: Optional[np.ndarray] = None
    pooled_prediction: Optional[np.ndarray] = None
    trial_latent: Optional[np.ndarray] = None
    error: float = 0.0
    threshold: Optional[float] = None


def relative_threshold(warmup_deltas: Sequence[float], alpha: float) -> float:
    """Threshold = max observed warmup drift times alpha."""
    deltas = list(warmup_deltas)
    if not deltas:
        raise ConfigError("cannot calibrate a threshold from an empty warmup sequence")
    if not alpha > 0:
        raise ConfigError(f"alpha must be > 0, got {alpha}")
    for d in deltas:
        if d < 0:
            raise DomainError(f"warmup drift values must be >= 0, got {d}")
    return max(deltas) * alpha


def trial_lowfreq_diff(
    pred: Predictor,
    latent: np.ndarray,
    t: float,
    pooled_prediction: np.ndarray,
    mask: FrequencyMask,
) -> float:
    """Low-band drift between a trial evaluation at latent and the cached prediction.

    Both operands live on the trial grid and are only read: latent is the
    step's latent pooled to it, and pooled_prediction the cached prediction
    pooled to it. The drift is lowfreq_diff(velocity, pooled_prediction,
    mask) on the trial mask, one band cut per trial.

    The velocity goes through require_finite only when the drift is not
    finite: a circular band keeps the DC bin, which every cell reaches with
    weight 1/sqrt(H W), and the pooled prediction is finite, so a non-finite
    velocity cell always makes the drift non-finite, and the trial raises
    DomainError exactly when its velocity holds a non-finite value.
    """
    velocity = pred.evaluate(latent, t)
    if velocity.shape != latent.shape:
        raise DimensionError(f"trial evaluation returned shape {velocity.shape} for input shape {latent.shape}")
    drift = lowfreq_diff(velocity, pooled_prediction, mask)
    if not math.isfinite(drift):
        require_finite(velocity)
    return drift


def accumulate_decide(state: CacheState, delta: float) -> str:
    """Add one drift increment and decide skip (total < threshold) or full.

    The caller owns the reset discipline: after acting on a "full" decision it
    must recompute the cache and zero state.error.
    """
    if state.threshold is None:
        raise StateError("threshold is not calibrated yet; decisions are unavailable during warmup")
    if delta < 0:
        raise DomainError(f"drift increment must be >= 0, got {delta}")
    state.error += delta
    return DECISION_SKIP if state.error < state.threshold else DECISION_FULL


def replay_decisions(increments: Sequence[float], threshold: float) -> list[str]:
    """Run the accumulate/reset policy open-loop over a fixed increment sequence."""
    state = CacheState(threshold=float(threshold))
    out = []
    for delta in increments:
        decision = accumulate_decide(state, delta)
        if decision == DECISION_FULL:
            state.error = 0.0
        out.append(decision)
    return out


@dataclass(frozen=True)
class BlockCacheConfig:
    """Block-level cache policy: fraction of blocks replayed and reuse window length."""

    cache_rate: float = 0.40
    interval: int = 3

    def __post_init__(self):
        if not 0.0 <= self.cache_rate <= 1.0:
            raise ConfigError(f"cache_rate must lie in [0, 1], got {self.cache_rate}")
        if not isinstance(self.interval, int) or self.interval < 0:
            raise ConfigError(f"interval must be an integer >= 0, got {self.interval!r}")


@dataclass
class BlockCacheState:
    """Cached per-block deltas, their norms, the pivotal index set, and the partial-step age.

    deltas has one slot per block; only the replayed blocks' slots hold a
    delta. norms are the block importances: the last refresh's ||F_j - F_{j-1}||,
    F_0 the input. age counts partial steps since that refresh, at most
    interval, so a call was partial exactly when age > 0 after it.
    """

    deltas: Optional[list[Optional[np.ndarray]]] = None
    norms: Optional[tuple[float, ...]] = None
    pivotal: Optional[tuple[int, ...]] = None
    age: int = 0


def select_pivotal(importances: Sequence[float], cache_rate: float) -> tuple[int, ...]:
    """Indices of the blocks kept exact: the top (1 - cache_rate) fraction by norm.

    The replayed count is round(cache_rate * M) with half-to-even rounding;
    ties in importance keep the lower block index exact.
    """
    if not 0.0 <= cache_rate <= 1.0:
        raise ConfigError(f"cache_rate must lie in [0, 1], got {cache_rate}")
    norms = list(importances)
    m = len(norms)
    if m == 0:
        raise DomainError("need at least one block importance")
    keep = m - round(cache_rate * m)
    order = sorted(range(m), key=lambda j: (-norms[j], j))
    return tuple(sorted(order[:keep]))


def block_cached_forward(
    net: BlockPredictor,
    z: np.ndarray,
    t: float,
    cfg: BlockCacheConfig,
    state: BlockCacheState,
) -> np.ndarray:
    """Evaluate a block-decomposed predictor, replaying cached deltas when allowed.

    A full-block step drops the cached deltas, runs every block, records
    the new delta norms on state.norms and keeps only the deltas of the
    replayed blocks, the r = round(cache_rate * M) lowest by (norm, -index).
    It drops every other delta as soon as r lower ones have been seen, so a
    refresh holds at most r + 1 deltas at once and never the old set next to
    the new one. The dropped blocks are the pivotal set (select_pivotal's).
    While age < interval, subsequent calls compute only pivotal blocks
    exactly and add the cached delta for the rest. With interval 0 or
    cache_rate 0 every call reproduces the plain forward pass. z is only
    read. Deltas are axpy(nxt, -1.0, features) and replays axpy(features,
    1.0, delta), so a refresh's output is bitwise the plain forward's. A
    delta's norm is spectrum_norm's sqrt(vdot(d, d)), one BLAS pass with no
    squared temporary; it equals l2_norm's to rounding, not bit for bit.
    """
    m = net.num_blocks
    if m == 0:
        return z
    if state.deltas is not None and len(state.deltas) != m:
        raise StateError(f"cached {len(state.deltas)} block deltas but the predictor has {m} blocks")
    features = z
    if state.deltas is None or state.age >= cfg.interval:
        state.deltas = None
        replay_count = round(cfg.cache_rate * m)
        kept: dict[int, np.ndarray] = {}
        norms: list[float] = []
        for j in range(m):
            nxt = net.apply_block(j, features, t)
            kept[j] = axpy(nxt, -1.0, features)
            norms.append(spectrum_norm(kept[j]))
            if len(kept) > replay_count:
                del kept[max(kept, key=lambda i: (norms[i], -i))]
            features = nxt
        state.norms = tuple(norms)
        state.pivotal = tuple(j for j in range(m) if j not in kept)
        state.deltas = [kept.get(j) for j in range(m)]
        state.age = 0
        return features
    pivotal = set(state.pivotal)
    for j in range(m):
        if j in pivotal:
            features = net.apply_block(j, features, t)
        else:
            features = axpy(features, 1.0, state.deltas[j])
    state.age += 1
    return features


class StepCachePolicy:
    """Step policy of the cached sampler: trial, decide, then reuse or evaluate.

    Every step after the first runs a trial evaluation and measures its drift
    from the prediction the previous step used. Steps inside the warmup window
    always evaluate and collect that drift; the first step after warmup
    calibrates the threshold from it. Later steps accumulate the drift and
    reuse the cached prediction (or latent + cached residual) while the total
    stays under the threshold; otherwise a full evaluation refreshes the cache
    and resets the accumulator. Full evaluations go through the block cache
    when block_cfg is given. shape is the latent's; it fixes the trial mask.

    The trial latent is carried, not pooled: it advances by the Euler update
    run_steps applies, so the policy must be called for steps 0, 1, 2, ...
    of one run, in order, and raises StateError otherwise. Each prediction it
    returns has passed require_finite: the Euler step would catch a non-finite
    one too, but only after an observer or a direct caller held it.
    """

    def __init__(self, pred: Predictor, cfg: StepCacheConfig, block_cfg: Optional[BlockCacheConfig],
                 shape: tuple[int, int, int, int]):
        self.pred = pred
        self.cfg = cfg
        self.block_cfg = block_cfg
        self.mask = trial_mask(shape, cfg)
        cells = shape[0] * shape[1] * shape[2]
        self.full_cells = float(cells)
        self.trial_cells = float(cells // cfg.downsample.volume)
        self.state = CacheState()
        self.block_state = BlockCacheState()
        self.warmup_deltas: list[float] = []
        self.last_step = (-1, 0.0)

    def __call__(self, k: int, t: float, z: np.ndarray) -> tuple[np.ndarray, StepRecord]:
        state = self.state
        last_k, last_t = self.last_step
        if k != last_k + 1:
            raise StateError(f"step {k} called after step {last_k}; the carried trial latent needs steps in order")
        self.last_step = (k, t)
        delta: Optional[float] = None
        cost = 0.0
        decision = DECISION_WARMUP
        if k == 0:
            state.trial_latent = avg_downsample(z, self.cfg.downsample)
        else:
            if state.pooled_prediction is None:
                state.pooled_prediction = avg_downsample(state.cached_prediction, self.cfg.downsample)
            state.trial_latent = axpy(state.trial_latent, t - last_t, state.pooled_prediction)
            delta = trial_lowfreq_diff(self.pred, state.trial_latent, t, state.pooled_prediction, self.mask)
            cost += self.trial_cells
            if k < self.cfg.warmup_steps:
                self.warmup_deltas.append(delta)
                state.error += delta
            else:
                if state.threshold is None:
                    state.threshold = relative_threshold(self.warmup_deltas, self.cfg.alpha)
                decision = accumulate_decide(state, delta)
        err_before = state.error
        pivotal_size: Optional[int] = None
        partial: Optional[bool] = None
        if decision == DECISION_SKIP:
            f = state.cached_prediction if self.cfg.reuse == REUSE_PREDICTION else require_finite(axpy(z, 1.0, state.cached_residual))
        else:
            f, eval_cost, pivotal_size, partial = self._evaluate(z, t)
            cost += eval_cost
            state.error = 0.0
            if self.cfg.reuse == REUSE_RESIDUAL:
                state.cached_residual = axpy(f, -1.0, z)
        if f is not state.cached_prediction:
            state.cached_prediction = f
            state.pooled_prediction = None
        return f, StepRecord(step=k, t=t, decision=decision, trial_delta=delta, err_before=err_before,
                             err_after=state.error, cost_units=cost, pivotal_size=pivotal_size, block_partial=partial)

    def _evaluate(self, z: np.ndarray, t: float) -> tuple[np.ndarray, float, Optional[int], Optional[bool]]:
        """Full evaluation, through the block cache when configured: (prediction, cost, pivotal size, partial)."""
        if self.block_cfg is None:
            return require_finite(self.pred.evaluate(z, t)), self.full_cells, None, None
        f = require_finite(block_cached_forward(self.pred, z, t, self.block_cfg, self.block_state))
        pivotal = self.block_state.pivotal
        if self.block_state.age > 0:
            return f, self.full_cells * (len(pivotal) / self.pred.num_blocks), len(pivotal), True
        return f, self.full_cells, None if pivotal is None else len(pivotal), False


def sample_cached(
    pred: Predictor,
    z_init: Tensor4,
    schedule: TimestepSchedule,
    cfg: StepCacheConfig,
    block_cfg: Optional[BlockCacheConfig] = None,
    observer: Optional[StepObserver] = None,
) -> tuple[Tensor4, RunReport]:
    """Run the Euler sampler with step-level (and optionally block-level) caching.

    The step loop is the baseline sampler's; only the policy differs, so
    configurations that never skip and never replay block deltas reproduce
    the baseline sampler bitwise.

    The step loop runs with numpy's invalid-value warnings off: a non-finite
    trial velocity or block output meets inf - inf in a band cut or a block
    delta before it reaches require_finite, and that check's DomainError is
    what the caller sees.
    """
    if block_cfg is not None and not isinstance(pred, BlockPredictor):
        raise ConfigError("block-level caching requires a block-decomposed predictor")
    policy = StepCachePolicy(pred, cfg, block_cfg, z_init.shape)
    with np.errstate(invalid="ignore"):
        z, report = run_steps(policy, z_init, schedule, observer)
    report.trial_cost_units = policy.trial_cells * report.trial_eval_count
    report.threshold = policy.state.threshold
    report.warmup_max_delta = max(policy.warmup_deltas) if policy.warmup_deltas else None
    return z, report


def recorded_increments(predictions: Sequence[np.ndarray], cfg: StepCacheConfig) -> list[float]:
    """Per-step low-band drift between adjacent recorded predictions.

    Open-loop stand-in for the live trial sequence: each recorded prediction
    is pooled to the downsampled grid once, and each increment is
    lowfreq_diff of one pooled prediction and the previous one, on the trial
    mask of the first prediction's shape: the statistic trial_lowfreq_diff
    measures, by the same call. No predictor is evaluated, so the resulting
    increment sequence is fixed and replay_decisions over it is exactly
    monotone in the threshold.
    """
    if not predictions:
        return []
    mask = trial_mask(predictions[0].shape, cfg)
    pooled = [avg_downsample(p, cfg.downsample) for p in predictions]
    return [lowfreq_diff(pooled[i], pooled[i - 1], mask) for i in range(1, len(pooled))]
