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

The latent itself is always advanced by a real Euler update; only the
prediction feeding that update is ever reused.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import ConfigError, DimensionError, DomainError, StateError
from .report import DECISION_FULL, DECISION_SKIP, DECISION_WARMUP, RunReport, StepRecord
# euler_step is unused here; it stays bound so the benchmark tracer's engine.euler_step hook resolves.
from .sampler import BlockPredictor, Predictor, StepObserver, TimestepSchedule, euler_step, run_steps
from .spectral import DEFAULT_RADIUS_SCALE, circular_mask, lowfreq_diff
from .tensor import DownsampleFactors, Tensor4, avg_downsample, axpy, l2_norm

REUSE_PREDICTION = "prediction"
REUSE_RESIDUAL = "residual"
REUSE_STRATEGIES = (REUSE_PREDICTION, REUSE_RESIDUAL)


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


@dataclass
class CacheState:
    """Mutable step-cache state threaded through a sampling run.

    cached_prediction is the prediction the previous step used; the residual
    is the one of the last full evaluation.
    """

    cached_prediction: Optional[Tensor4] = None
    cached_residual: Optional[Tensor4] = None
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
    z: Tensor4,
    t: float,
    cached_prediction: Tensor4,
    cfg: StepCacheConfig,
) -> float:
    """Low-band drift between a downsampled trial evaluation and the cached prediction.

    Both operands live on the downsampled grid: the latent is pooled before
    the trial evaluation and the cached full-resolution prediction is pooled
    for comparison. The mask is sized to the downsampled plane.
    """
    z_small = avg_downsample(z, cfg.downsample)
    trial = pred.evaluate(z_small, t)
    if trial.shape != z_small.shape:
        raise DimensionError(f"trial evaluation returned shape {trial.shape} for input shape {z_small.shape}")
    cached_small = avg_downsample(cached_prediction, cfg.downsample)
    mask = circular_mask(z_small.height, z_small.width, cfg.mask_scale * min(z_small.height, z_small.width))
    return lowfreq_diff(trial, cached_small, mask)


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
    """Cached per-block deltas, the pivotal index set, and the partial-step age.

    age counts partial steps since the last fully computed step; it is 0 right
    after a full-block step and never exceeds the configured interval.
    """

    deltas: Optional[list[Tensor4]] = None
    pivotal: Optional[tuple[int, ...]] = None
    age: int = 0
    last_partial: bool = False


def block_importance(intermediates: Sequence[Tensor4], block_input: Tensor4) -> list[float]:
    """Per-block delta norms ||F_j - F_{j-1}|| with F_0 the block input."""
    outs = list(intermediates)
    if not outs:
        raise DomainError("need at least one intermediate")
    previous = block_input
    norms = []
    for f in outs:
        if f.shape != previous.shape:
            raise DimensionError(f"intermediate shape {f.shape} does not match {previous.shape}")
        norms.append(l2_norm(axpy(f, -1.0, previous)))
        previous = f
    return norms


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
    z: Tensor4,
    t: float,
    cfg: BlockCacheConfig,
    state: BlockCacheState,
) -> Tensor4:
    """Evaluate a block-decomposed predictor, replaying cached deltas when allowed.

    A full-block step runs every block, refreshes the cached deltas, and
    reselects the pivotal set. While age < interval, subsequent calls compute
    only pivotal blocks exactly and add the cached delta for the rest. With
    interval 0 or cache_rate 0 every call reproduces the plain forward pass.
    """
    m = net.num_blocks
    if m == 0:
        state.last_partial = False
        return z
    if state.deltas is not None and len(state.deltas) != m:
        raise StateError(f"cached {len(state.deltas)} block deltas but the predictor has {m} blocks")
    refresh = state.deltas is None or state.age >= cfg.interval
    features = z
    if refresh:
        deltas: list[Tensor4] = []
        for j in range(m):
            nxt = net.apply_block(j, features, t)
            deltas.append(axpy(nxt, -1.0, features))
            features = nxt
        state.deltas = deltas
        state.pivotal = select_pivotal([l2_norm(d) for d in deltas], cfg.cache_rate)
        state.age = 0
        state.last_partial = False
        return features
    pivotal = set(state.pivotal)
    for j in range(m):
        if j in pivotal:
            features = net.apply_block(j, features, t)
        else:
            features = axpy(features, 1.0, state.deltas[j])
    state.age += 1
    state.last_partial = True
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
    when block_cfg is given.
    """

    def __init__(self, pred: Predictor, cfg: StepCacheConfig, block_cfg: Optional[BlockCacheConfig], cells: int):
        self.pred = pred
        self.cfg = cfg
        self.block_cfg = block_cfg
        self.full_cells = float(cells)
        self.trial_cells = float(cells // cfg.downsample.volume)
        self.state = CacheState()
        self.block_state = BlockCacheState()
        self.warmup_deltas: list[float] = []

    def __call__(self, k: int, t: float, z: Tensor4) -> tuple[Tensor4, StepRecord]:
        state = self.state
        delta: Optional[float] = None
        cost = 0.0
        decision = DECISION_WARMUP
        if k > 0:
            delta = trial_lowfreq_diff(self.pred, z, t, state.cached_prediction, self.cfg)
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
            f = state.cached_prediction if self.cfg.reuse == REUSE_PREDICTION else axpy(z, 1.0, state.cached_residual)
        else:
            f, eval_cost, pivotal_size, partial = self._evaluate(z, t)
            cost += eval_cost
            state.error = 0.0
            state.cached_residual = axpy(f, -1.0, z)
        state.cached_prediction = f
        return f, StepRecord(step=k, t=t, decision=decision, trial_delta=delta, err_before=err_before,
                             err_after=state.error, cost_units=cost, pivotal_size=pivotal_size, block_partial=partial)

    def _evaluate(self, z: Tensor4, t: float) -> tuple[Tensor4, float, Optional[int], Optional[bool]]:
        """Full evaluation, through the block cache when configured: (prediction, cost, pivotal size, partial)."""
        if self.block_cfg is None:
            return self.pred.evaluate(z, t), self.full_cells, None, None
        f = block_cached_forward(self.pred, z, t, self.block_cfg, self.block_state)
        pivotal = self.block_state.pivotal
        if self.block_state.last_partial:
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
    """
    if block_cfg is not None and not isinstance(pred, BlockPredictor):
        raise ConfigError("block-level caching requires a block-decomposed predictor")
    policy = StepCachePolicy(pred, cfg, block_cfg, z_init.cells)
    z, report = run_steps(policy, pred, z_init, schedule, observer, policy.trial_cells)
    report.threshold = policy.state.threshold
    report.warmup_max_delta = max(policy.warmup_deltas) if policy.warmup_deltas else None
    return z, report


def recorded_increments(predictions: Sequence[Tensor4], cfg: StepCacheConfig) -> list[float]:
    """Per-step low-band drift between adjacent recorded predictions.

    Open-loop stand-in for the live trial sequence: each pair of consecutive
    predictions is pooled to the downsampled grid and compared under the
    low-frequency mask. No predictor is evaluated, so the resulting increment
    sequence is fixed and replay_decisions over it is exactly monotone in the
    threshold.
    """
    preds = list(predictions)
    if len(preds) < 2:
        return []
    small = [avg_downsample(p, cfg.downsample) for p in preds]
    first = small[0]
    mask = circular_mask(first.height, first.width, cfg.mask_scale * min(first.height, first.width))
    return [lowfreq_diff(small[i], small[i - 1], mask) for i in range(1, len(small))]
