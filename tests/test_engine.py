"""Step cache and block cache: decision policy, degeneracies, and invariants."""

import numpy as np
import pytest

from flowcache.engine import (
    REUSE_PREDICTION,
    REUSE_RESIDUAL,
    BlockCacheConfig,
    BlockCacheState,
    CacheState,
    StepCacheConfig,
    accumulate_decide,
    block_cached_forward,
    block_importance,
    recorded_increments,
    relative_threshold,
    replay_decisions,
    sample_cached,
    select_pivotal,
    trial_lowfreq_diff,
)
from flowcache.errors import ConfigError, DimensionError, DomainError, StateError
from flowcache.predictors import (
    ConstantDeltaNet,
    MixturePredictor,
    ToyBlockNet,
    structured_mixture,
    toy_block_forward,
)
from flowcache.report import DECISION_FULL, DECISION_SKIP, DECISION_WARMUP
from flowcache.sampler import make_schedule, sample_baseline
from flowcache.tensor import DownsampleFactors, Tensor4, seeded_normal

SHAPE = (4, 16, 16, 2)


def make_pred(seed=0):
    return MixturePredictor(structured_mixture(SHAPE, seed=seed))


def reference_decisions(increments, threshold):
    """Independent simulator of the accumulate/reset policy, kept deliberately dumb."""
    total = 0.0
    out = []
    for delta in increments:
        total += delta
        if total < threshold:
            out.append("skip")
        else:
            out.append("full")
            total = 0.0
    return out


def test_relative_threshold_example():
    assert relative_threshold([2.0, 1.0, 3.0], 0.5) == 1.5


def test_relative_threshold_rejects_empty_and_bad_values():
    with pytest.raises(ConfigError):
        relative_threshold([], 0.5)
    with pytest.raises(ConfigError):
        relative_threshold([1.0], 0.0)
    with pytest.raises(DomainError):
        relative_threshold([1.0, -0.1], 0.5)


def test_constant_increments_alternate():
    """Increments 0.5 against threshold 1.0 alternate skip, full, skip, full."""
    decisions = replay_decisions([0.5] * 6, 1.0)
    assert decisions == ["skip", "full"] * 3


def test_decide_requires_calibration():
    state = CacheState()
    with pytest.raises(StateError):
        accumulate_decide(state, 0.1)


def test_decide_rejects_negative_delta():
    state = CacheState(threshold=1.0)
    with pytest.raises(DomainError):
        accumulate_decide(state, -0.5)


def test_replay_matches_reference_simulator():
    rng = np.random.default_rng(12)
    for _ in range(25):
        increments = rng.exponential(1.0, size=50).tolist()
        threshold = float(rng.uniform(0.1, 5.0))
        assert replay_decisions(increments, threshold) == reference_decisions(increments, threshold)


def test_replay_full_count_monotone_in_threshold():
    rng = np.random.default_rng(13)
    increments = rng.exponential(1.0, size=50).tolist()
    counts = [replay_decisions(increments, thr).count("full")
              for thr in (0.05, 0.2, 0.5, 1.0, 2.0, 5.0, 20.0)]
    assert counts == sorted(counts, reverse=True)


def test_step_cache_config_validation():
    with pytest.raises(ConfigError):
        StepCacheConfig(alpha=0.0)
    with pytest.raises(ConfigError):
        StepCacheConfig(warmup_steps=0)
    with pytest.raises(ConfigError):
        StepCacheConfig(warmup_steps=1)
    with pytest.raises(ConfigError):
        StepCacheConfig(reuse="splice")
    with pytest.raises(ConfigError):
        StepCacheConfig(mask_scale=0.0)


def test_select_pivotal_examples():
    assert select_pivotal([5.0, 1.0, 4.0, 2.0], 0.5) == (0, 2)
    assert select_pivotal([3.0, 3.0, 1.0], 1.0 / 3.0) == (0, 1)


def test_select_pivotal_rounds_half_to_even():
    assert select_pivotal([4.0, 3.0], 0.25) == (0, 1)
    assert select_pivotal([6.0, 5.0, 4.0, 3.0, 2.0, 1.0], 0.25) == (0, 1, 2, 3)


def test_select_pivotal_bounds():
    with pytest.raises(ConfigError):
        select_pivotal([1.0], 1.5)
    with pytest.raises(DomainError):
        select_pivotal([], 0.5)


def test_block_importance_norms():
    shape = (1, 2, 2, 1)
    start = Tensor4.zeros(shape)
    mids = [Tensor4.full(shape, 1.0), Tensor4.full(shape, 1.0), Tensor4.full(shape, 4.0)]
    norms = block_importance(mids, start)
    assert norms[0] == pytest.approx(2.0)
    assert norms[1] == 0.0
    assert norms[2] == pytest.approx(6.0)


def test_block_cache_rate_zero_is_bitwise_plain():
    net = ToyBlockNet(6, channels=2, seed=5)
    cfg = BlockCacheConfig(cache_rate=0.0, interval=3)
    state = BlockCacheState()
    z = seeded_normal((2, 4, 4, 2), seed=6)
    for t in (1.0, 0.8, 0.6, 0.4):
        cached = block_cached_forward(net, z, t, cfg, state)
        plain, _ = toy_block_forward(net, z, t)
        assert np.array_equal(cached.data, plain.data)


def test_block_interval_zero_is_bitwise_plain():
    net = ToyBlockNet(5, channels=2, seed=7)
    cfg = BlockCacheConfig(cache_rate=0.4, interval=0)
    state = BlockCacheState()
    z = seeded_normal((2, 4, 4, 2), seed=8)
    for t in (1.0, 0.7, 0.4):
        cached = block_cached_forward(net, z, t, cfg, state)
        plain, _ = toy_block_forward(net, z, t)
        assert np.array_equal(cached.data, plain.data)
        assert not state.last_partial


def _dyadic(shape, seed):
    """Tensor of small dyadic rationals so every sum below is exact in float64."""
    rng = np.random.default_rng(seed)
    return Tensor4(rng.integers(-512, 512, size=shape).astype(np.float64) / 64.0)


def test_constant_delta_net_partial_is_exact():
    """Input-independent deltas replay bitwise exactly at any cache rate.

    The values are dyadic rationals with a narrow exponent range, so the
    cached delta (x + d) - x recovers d without rounding and the replayed
    forward is the true forward bit for bit.
    """
    shape = (1, 2, 2, 2)
    deltas = [_dyadic(shape, 30 + j) for j in range(4)]
    net = ConstantDeltaNet(deltas)
    z0 = _dyadic(shape, 10)
    z1 = _dyadic(shape, 11)
    for rate in (0.25, 0.5, 0.75, 1.0):
        state = BlockCacheState()
        cfg = BlockCacheConfig(cache_rate=rate, interval=5)
        first = block_cached_forward(net, z0, 1.0, cfg, state)
        assert np.array_equal(first.data, net.evaluate(z0, 1.0).data)
        second = block_cached_forward(net, z1, 0.9, cfg, state)
        assert state.last_partial or rate == 0.0
        assert np.array_equal(second.data, net.evaluate(z1, 0.9).data)


def test_pivotal_size_invariant_on_partial_steps():
    net = ToyBlockNet(8, channels=2, seed=12)
    cfg = BlockCacheConfig(cache_rate=0.4, interval=2)
    state = BlockCacheState()
    z = seeded_normal((1, 4, 4, 2), seed=13)
    block_cached_forward(net, z, 1.0, cfg, state)
    expected_keep = 8 - round(0.4 * 8)
    for t in (0.9, 0.8):
        block_cached_forward(net, z, t, cfg, state)
        assert state.last_partial
        assert len(state.pivotal) == expected_keep
        assert len(state.pivotal) + (8 - len(state.pivotal)) == net.num_blocks
    block_cached_forward(net, z, 0.7, cfg, state)
    assert not state.last_partial


def test_block_state_shape_guard():
    net = ToyBlockNet(3, channels=2, seed=1)
    state = BlockCacheState(deltas=[Tensor4.zeros((1, 2, 2, 2))] * 4)
    with pytest.raises(StateError):
        block_cached_forward(net, Tensor4.zeros((1, 2, 2, 2)), 1.0, BlockCacheConfig(), state)


def run_pair(alpha, seed=0, n=30, reuse=REUSE_PREDICTION, warmup=5):
    pred = make_pred(seed)
    sched = make_schedule(n)
    z0 = seeded_normal(SHAPE, seed=seed + 100)
    baseline, _ = sample_baseline(pred, z0, sched)
    cfg = StepCacheConfig(alpha=alpha, warmup_steps=warmup, reuse=reuse)
    cached, report = sample_cached(pred, z0, sched, cfg)
    return baseline, cached, report


def test_tiny_alpha_never_skips_and_matches_baseline_bitwise():
    baseline, cached, report = run_pair(alpha=1e-12)
    assert report.skip_count == 0
    assert np.array_equal(cached.data, baseline.data)


def test_full_warmup_matches_baseline_bitwise():
    baseline, cached, report = run_pair(alpha=0.5, n=20, warmup=20)
    assert report.skip_count == 0
    assert report.warmup_full_count == 20
    assert np.array_equal(cached.data, baseline.data)


def test_default_config_skips_and_reports_consistently():
    _, _, report = run_pair(alpha=0.5)
    assert report.skip_count > 0
    assert report.trial_eval_count == report.n_steps - 1
    assert report.warmup_full_count == 5
    skip_rows = [r for r in report.steps if r.decision == DECISION_SKIP]
    assert len(skip_rows) == report.skip_count
    assert report.cost_units < report.baseline_cost_units


def test_warmup_one_cannot_calibrate():
    """A single warmup step observes no drift, so the threshold is undefined."""
    pred = make_pred(3)
    z0 = seeded_normal(SHAPE, seed=4)
    with pytest.raises(ConfigError):
        sample_cached(pred, z0, make_schedule(10), StepCacheConfig(alpha=0.5, warmup_steps=1))


def test_reset_discipline_in_decision_log():
    """E-before following a full decision equals that step's own drift increment."""
    _, _, report = run_pair(alpha=0.35, seed=2)
    rows = report.steps
    for prev, row in zip(rows, rows[1:]):
        if prev.decision == DECISION_FULL and row.decision != DECISION_WARMUP:
            assert row.err_before == pytest.approx(row.trial_delta, rel=1e-12)


def test_skip_burst_bound():
    """Accumulated drift stays under the threshold on skips and reaches it on the ending full."""
    _, _, report = run_pair(alpha=0.5, seed=5)
    threshold = report.threshold
    assert threshold is not None
    for row in report.steps:
        if row.decision == DECISION_SKIP:
            assert row.err_before < threshold
        elif row.decision == DECISION_FULL:
            assert row.err_before >= threshold


def test_reuse_strategies_agree_when_nothing_skips():
    b_pred, c_pred, r_pred = run_pair(alpha=1e-12, reuse=REUSE_PREDICTION)
    b_res, c_res, r_res = run_pair(alpha=1e-12, reuse=REUSE_RESIDUAL)
    assert r_pred.skip_count == r_res.skip_count == 0
    assert np.array_equal(c_pred.data, c_res.data)
    assert np.array_equal(c_pred.data, b_pred.data)


def test_residual_reuse_differs_from_prediction_reuse_on_skips():
    _, pred_out, pred_report = run_pair(alpha=0.9, reuse=REUSE_PREDICTION, seed=6)
    _, res_out, res_report = run_pair(alpha=0.9, reuse=REUSE_RESIDUAL, seed=6)
    assert pred_report.skip_count > 0
    assert not np.array_equal(pred_out.data, res_out.data)


def test_trial_cost_accounting():
    _, _, report = run_pair(alpha=0.5, seed=7)
    cells = SHAPE[0] * SHAPE[1] * SHAPE[2]
    trial_cells = cells // 32
    assert report.baseline_cost_units == report.n_steps * cells
    assert report.trial_cost_units == report.trial_eval_count * trial_cells
    expected = (report.full_eval_count + report.warmup_full_count) * cells + report.trial_cost_units
    assert report.cost_units == pytest.approx(expected)


def test_downsample_divisibility_guard():
    pred = make_pred(0)
    z0 = seeded_normal((3, 16, 16, 2), seed=1)
    cfg = StepCacheConfig(downsample=DownsampleFactors(2, 4, 4))
    with pytest.raises(DimensionError):
        sample_cached(pred, z0, make_schedule(10), cfg)


def test_trial_lowfreq_diff_zero_when_prediction_repeats():
    """If the trial equals the pooled cached prediction the drift is zero."""

    class Constant:
        def evaluate(self, z, t):
            return Tensor4.full(z.shape, 1.25)

    cfg = StepCacheConfig()
    z = seeded_normal(SHAPE, seed=3)
    cached = Tensor4.full(SHAPE, 1.25)
    assert trial_lowfreq_diff(Constant(), z, 0.5, cached, cfg) == pytest.approx(0.0, abs=1e-12)


def test_block_cache_requires_block_predictor():
    pred = make_pred(1)
    z0 = seeded_normal(SHAPE, seed=2)
    with pytest.raises(ConfigError):
        sample_cached(pred, z0, make_schedule(10), StepCacheConfig(), BlockCacheConfig())


def test_combined_step_and_block_cache_runs_and_saves():
    net = ToyBlockNet(6, channels=2, seed=21)
    z0 = seeded_normal((2, 8, 8, 2), seed=22)
    sched = make_schedule(30)
    cfg = StepCacheConfig(alpha=0.5, downsample=DownsampleFactors(2, 4, 4))
    cached, report = sample_cached(net, z0, sched, cfg, BlockCacheConfig(cache_rate=0.4, interval=3))
    assert report.cost_units < report.baseline_cost_units
    partial_rows = [r for r in report.steps if r.block_partial]
    for row in partial_rows:
        assert row.pivotal_size == 6 - round(0.4 * 6)


def test_recorded_increments_match_live_adjacent_drift():
    """Open-loop increments from recorded predictions equal pooled adjacent diffs."""
    pred = make_pred(4)
    sched = make_schedule(12)
    z0 = seeded_normal(SHAPE, seed=5)
    preds = []
    sample_baseline(pred, z0, sched, observer=lambda k, t, z, f: preds.append(f))
    cfg = StepCacheConfig()
    incs = recorded_increments(preds, cfg)
    assert len(incs) == 11
    assert all(v >= 0 for v in incs)
    assert recorded_increments(preds[:1], cfg) == []
