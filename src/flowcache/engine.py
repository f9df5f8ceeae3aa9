"""Adaptive caching for the Euler sampler, as a step policy and its drift statistic.

The sampler's one step loop (sampler.run_steps) asks a policy for each
step's prediction. StepCachePolicy is the step cache: a cheap trial
evaluation on a block-mean-downsampled latent measures how far the
low-frequency band of the prediction has drifted from the one the previous
step used (trial_lowfreq_diff, the package's only drift statistic; its
open-loop form over recorded predictions is recorded_increments). Drift
accumulates, and a skip reuses the cache while the running total stays under
a threshold calibrated in warmup (calibrate, which the open-loop analysis
shares; accumulate_decide, a pure rule on floats). What a skip feeds the
update is one row of REUSE_RULES. The block cache is the policy's
full-evaluation path for block-decomposed predictors: blocks whose output
deltas were small at the last fully computed step are replayed from their
cached deltas for a bounded number of subsequent full steps.

The low band is a function of the latent shape and the StepCacheConfig,
stated here once: trial_mask is the mask of the pooled trial plane, with
radius mask_scale * min(H, W) of that plane. The drift between two arrays
on that grid is spectral.lowfreq_diff, the package's one band-difference
rule, which trial_lowfreq_diff and recorded_increments both call: the norm
of the low band of their difference. The band is linear, so a trial cuts
one band, never the cached prediction's, on the trial grid: one real matrix
product with the mask's dense band table on a small trial plane, or its
separable row and column DFTs on a larger one (spectral states the cap).
The policy carries the trial latent on that grid: pooling and the Euler
update are both linear, so it pools z_0 once and then advances the pooled
latent with the sampler's own update rule, axpy, and the pooled prediction
each step used.
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
from .report import DECISION_FULL, DECISION_SKIP, DECISION_WARMUP, RunReport, StepRecord, step_cost, token_count
# euler_step is unused here; it stays bound so the benchmark tracer's engine hook resolves.
from .sampler import BlockPredictor, Predictor, StepObserver, TimestepSchedule, euler_step, run_steps
from .spectral import FrequencyMask, circular_mask, lowfreq_diff, spectrum_norm
from .tensor import DownsampleFactors, Tensor4, avg_downsample, axpy, pooled_shape, require_finite

#: Reuse rules: a full step at latent z keeps keep(f, z) of its prediction f; a skip at z feeds feed(kept, z).
REUSE_RULES = {
    "prediction": (lambda f, z: f, lambda kept, z: kept),
    "residual": (lambda f, z: axpy(f, -1.0, z), lambda kept, z: require_finite(axpy(z, 1.0, kept))),
}

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
    reuse: str = "prediction"
    mask_scale: float = DEFAULT_RADIUS_SCALE

    def __post_init__(self):
        if not self.alpha > 0:
            raise ConfigError(f"alpha must be > 0, got {self.alpha}")
        if not isinstance(self.warmup_steps, int) or self.warmup_steps < 2:
            raise ConfigError(f"warmup_steps must be an integer >= 2, got {self.warmup_steps!r}")
        if self.reuse not in REUSE_RULES:
            raise ConfigError(f"unknown reuse strategy {self.reuse!r}, expected one of {tuple(REUSE_RULES)}")
        if not self.mask_scale > 0:
            raise ConfigError(f"mask_scale must be > 0, got {self.mask_scale}")


def trial_mask(shape: tuple[int, int, int, int], cfg: StepCacheConfig) -> FrequencyMask:
    """Low-band mask of the trial plane: latents of this shape pooled by cfg.downsample.

    The radius is cfg.mask_scale * min(H, W) of the pooled plane, no flooring.
    """
    _, height, width, _ = pooled_shape(shape, cfg.downsample)
    return circular_mask(height, width, cfg.mask_scale * min(height, width))


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


def calibrate(drifts: Sequence[float], warmup_steps: int, alpha: float) -> tuple[float, Sequence[float]]:
    """Split a run's drifts (step 0 has none) at the warmup: (relative_threshold of the first warmup_steps - 1, the rest)."""
    return relative_threshold(drifts[:warmup_steps - 1], alpha), drifts[warmup_steps - 1:]


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


def accumulate_decide(error: float, delta: float, threshold: Optional[float]) -> tuple[str, float]:
    """Add one drift increment to the running total error: (skip if the new total < threshold else full, new total).

    The rule is pure. The caller owns the reset discipline: after acting on a
    "full" decision it must recompute the cache and restart the total at 0.0.
    """
    if threshold is None:
        raise StateError("threshold is not calibrated yet; decisions are unavailable during warmup")
    if delta < 0:
        raise DomainError(f"drift increment must be >= 0, got {delta}")
    error += delta
    return DECISION_SKIP if error < threshold else DECISION_FULL, error


def replay_decisions(increments: Sequence[float], threshold: float) -> list[str]:
    """Run the accumulate/reset policy open-loop over a fixed increment sequence."""
    error = 0.0
    out = []
    for delta in increments:
        decision, error = accumulate_decide(error, delta, threshold)
        if decision == DECISION_FULL:
            error = 0.0
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
    """Cached per-block deltas, their norms, and the partial-step age.

    deltas has one slot per block; only the replayed blocks' slots hold a
    delta, and the empty ones are the pivotal set. norms are the block
    importances: the last refresh's ||F_j - F_{j-1}||, F_0 the input. age
    counts partial steps since that refresh, at most interval, so a call was
    partial exactly when age > 0 after it.
    """

    deltas: Optional[list[Optional[np.ndarray]]] = None
    norms: Optional[tuple[float, ...]] = None
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
    the new one. The empty slots are the pivotal set (select_pivotal's).
    While age < interval, subsequent calls compute those blocks exactly and
    add the cached delta for the rest. With interval 0 or cache_rate 0 every
    call reproduces the plain forward pass. z is only read. Deltas are axpy(nxt, -1.0, features) and replays axpy(features,
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
        state.deltas = [kept.get(j) for j in range(m)]
        state.age = 0
        return features
    for j, delta in enumerate(state.deltas):
        features = net.apply_block(j, features, t) if delta is None else axpy(features, 1.0, delta)
    state.age += 1
    return features


class StepCachePolicy:
    """Step policy of the cached sampler: trial, decide, then reuse or evaluate.

    Every step after the first runs a trial and measures its drift from the
    prediction the previous step used. Warmup steps always evaluate; the
    first step after warmup calibrates the threshold from the run's drifts.
    Later steps accumulate the drift and skip while the total stays under the
    threshold; otherwise a full evaluation refreshes the cache and resets the
    accumulator. A skip feeds what the cfg.reuse row of REUSE_RULES makes of
    kept. Full evaluations go through the block cache when block_cfg is
    given. shape is the latent's; it fixes the trial mask and token counts.

    The policy holds the run's cache state: cached_prediction, the one the
    previous step used, and pooled_prediction, that array pooled to the trial
    grid once a trial needs it; trial_latent, the latent entering the step on
    the trial grid; kept, what the reuse rule kept of the last full
    prediction (under prediction reuse that array itself); drifts, the run's
    drifts; error, the accumulated drift, and threshold, None until set.

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
        self.latent_tokens = token_count(shape)
        self.trial_tokens = token_count(pooled_shape(shape, cfg.downsample))
        self.keep, self.feed = REUSE_RULES[cfg.reuse]
        self.cached_prediction: Optional[np.ndarray] = None
        self.kept: Optional[np.ndarray] = None
        self.pooled_prediction: Optional[np.ndarray] = None
        self.trial_latent: Optional[np.ndarray] = None
        self.drifts: list[float] = []
        self.error = 0.0
        self.threshold: Optional[float] = None
        self.block_state = BlockCacheState()
        self.last_step = (-1, 0.0)

    def __call__(self, k: int, t: float, z: np.ndarray) -> tuple[np.ndarray, StepRecord]:
        last_k, last_t = self.last_step
        if k != last_k + 1:
            raise StateError(f"step {k} called after step {last_k}; the carried trial latent needs steps in order")
        self.last_step = (k, t)
        delta: Optional[float] = None
        decision = DECISION_WARMUP
        if k == 0:
            self.trial_latent = avg_downsample(z, self.cfg.downsample)
        else:
            if self.pooled_prediction is None:
                self.pooled_prediction = avg_downsample(self.cached_prediction, self.cfg.downsample)
            self.trial_latent = axpy(self.trial_latent, t - last_t, self.pooled_prediction)
            delta = trial_lowfreq_diff(self.pred, self.trial_latent, t, self.pooled_prediction, self.mask)
            self.drifts.append(delta)
            if k < self.cfg.warmup_steps:
                self.error += delta
            else:
                if self.threshold is None:
                    self.threshold, _ = calibrate(self.drifts, self.cfg.warmup_steps, self.cfg.alpha)
                decision, self.error = accumulate_decide(self.error, delta, self.threshold)
        err_before = self.error
        fraction, pivotal_size, partial = 0.0, None, None
        if decision == DECISION_SKIP:
            f = self.feed(self.kept, z)
        else:
            f, fraction, pivotal_size, partial = self._evaluate(z, t)
            self.error = 0.0
            self.kept = self.keep(f, z)
        if f is not self.cached_prediction:
            self.cached_prediction = f
            self.pooled_prediction = None
        cost = step_cost(self.latent_tokens, self.trial_tokens, delta is not None, fraction)
        return f, StepRecord(step=k, t=t, decision=decision, trial_delta=delta, err_before=err_before,
                             err_after=self.error, cost_units=cost, pivotal_size=pivotal_size, block_partial=partial)

    def _evaluate(self, z: np.ndarray, t: float) -> tuple[np.ndarray, float, Optional[int], Optional[bool]]:
        """Full evaluation, through the block cache when configured: (f, fraction of the net, pivotal size, partial)."""
        if self.block_cfg is None:
            return require_finite(self.pred.evaluate(z, t)), 1.0, None, None
        f = require_finite(block_cached_forward(self.pred, z, t, self.block_cfg, self.block_state))
        deltas, partial = self.block_state.deltas, self.block_state.age > 0
        pivotal = None if deltas is None else sum(delta is None for delta in deltas)
        return f, pivotal / self.pred.num_blocks if partial else 1.0, pivotal, partial


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
        z, report = run_steps(policy, z_init, schedule, observer, policy.trial_tokens)
    report.threshold = policy.threshold
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
