"""Step cache and block cache: decision policy, degeneracies, and invariants."""

import dataclasses
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowcache import engine, predictors, spectral
from flowcache.engine import (
    DEFAULT_RADIUS_SCALE,
    REUSE_RULES,
    BlockCacheConfig,
    BlockCacheState,
    StepCacheConfig,
    StepCachePolicy,
    accumulate_decide,
    block_cached_forward,
    calibrate,
    recorded_increments,
    relative_threshold,
    replay_decisions,
    sample_cached,
    select_pivotal,
    trial_lowfreq_diff,
    trial_mask,
)
from flowcache.errors import ConfigError, DimensionError, DomainError, StateError
from flowcache.predictors import (
    MixturePredictor,
    ToyBlockNet,
    structured_mixture,
    toy_block_forward,
)
from flowcache.report import DECISION_FULL, DECISION_SKIP, DECISION_WARMUP, StepRecord
from flowcache.sampler import make_schedule, run_steps, sample_baseline
from flowcache.spectral import circular_mask, spectrum_norm
from flowcache.tensor import DownsampleFactors, Tensor4, avg_downsample, axpy, seeded_normal

from nets import ConstantDeltaNet

SHAPE = (4, 16, 16, 2)


def make_pred(seed=0):
    return structured_mixture(SHAPE, seed=seed)


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


def test_calibrate_splits_a_runs_drifts_after_the_warmup_steps_drifts():
    """Step 0 measures no drift, so warmup_steps = 3 calibrates on the first two drifts and returns the rest."""
    assert calibrate([1.0, 4.0, 9.0, 2.0], 3, 0.5) == (2.0, [9.0, 2.0])
    assert calibrate([1.0], 5, 0.5) == (0.5, [])
    with pytest.raises(ConfigError):
        calibrate([], 2, 0.5)


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
    with pytest.raises(StateError):
        accumulate_decide(0.0, 0.1, None)


def test_replay_reports_an_uncalibrated_threshold_as_the_live_rule_does():
    with pytest.raises(StateError, match="not calibrated"):
        replay_decisions([0.1, 0.2], None)
    assert replay_decisions([], None) == []


def test_decide_rejects_negative_delta():
    with pytest.raises(DomainError):
        accumulate_decide(0.0, -0.5, 1.0)


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


def empty_slots(state):
    """Indices of the blocks whose delta slot is empty: the pivotal set a partial step computes exactly."""
    return tuple(j for j, d in enumerate(state.deltas) if d is None)


def test_block_refresh_norms_hand_example():
    """Features 0 -> 1 -> 1 -> 4 on four cells: the refresh ranks blocks by norms 2, 0, 6."""
    shape = (1, 2, 2, 1)
    net = ConstantDeltaNet([Tensor4(np.full(shape, 1.0)), Tensor4(np.zeros(shape)), Tensor4(np.full(shape, 3.0))])
    state = BlockCacheState()
    out = block_cached_forward(net, np.zeros(shape), 1.0, BlockCacheConfig(), state)
    assert np.all(out == 4.0)
    assert state.norms == (2.0, 0.0, 6.0)
    assert empty_slots(state) == (0, 2)


def test_block_cache_rate_zero_is_bitwise_plain():
    net = ToyBlockNet(6, channels=2, seed=5)
    cfg = BlockCacheConfig(cache_rate=0.0, interval=3)
    state = BlockCacheState()
    z = seeded_normal((2, 4, 4, 2), seed=6).data
    for t in (1.0, 0.8, 0.6, 0.4):
        cached = block_cached_forward(net, z, t, cfg, state)
        plain = toy_block_forward(net, z, t)
        assert np.array_equal(cached, plain)


def test_block_interval_zero_is_bitwise_plain():
    net = ToyBlockNet(5, channels=2, seed=7)
    cfg = BlockCacheConfig(cache_rate=0.4, interval=0)
    state = BlockCacheState()
    z = seeded_normal((2, 4, 4, 2), seed=8).data
    for t in (1.0, 0.7, 0.4):
        cached = block_cached_forward(net, z, t, cfg, state)
        plain = toy_block_forward(net, z, t)
        assert np.array_equal(cached, plain)
        assert state.age == 0


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
    z0 = _dyadic(shape, 10).data
    z1 = _dyadic(shape, 11).data
    for rate in (0.25, 0.5, 0.75, 1.0):
        state = BlockCacheState()
        cfg = BlockCacheConfig(cache_rate=rate, interval=5)
        first = block_cached_forward(net, z0, 1.0, cfg, state)
        assert np.array_equal(first, net.evaluate(z0, 1.0))
        second = block_cached_forward(net, z1, 0.9, cfg, state)
        assert state.age > 0 or rate == 0.0
        assert np.array_equal(second, net.evaluate(z1, 0.9))


def test_pivotal_size_invariant_on_partial_steps():
    net = ToyBlockNet(8, channels=2, seed=12)
    cfg = BlockCacheConfig(cache_rate=0.4, interval=2)
    state = BlockCacheState()
    z = seeded_normal((1, 4, 4, 2), seed=13).data
    block_cached_forward(net, z, 1.0, cfg, state)
    expected_keep = 8 - round(0.4 * 8)
    for t in (0.9, 0.8):
        block_cached_forward(net, z, t, cfg, state)
        assert state.age > 0
        assert len(empty_slots(state)) == expected_keep
    block_cached_forward(net, z, 0.7, cfg, state)
    assert state.age == 0


def test_block_state_shape_guard():
    net = ToyBlockNet(3, channels=2, seed=1)
    state = BlockCacheState(deltas=[np.zeros((1, 2, 2, 2))] * 4)
    with pytest.raises(StateError):
        block_cached_forward(net, np.zeros((1, 2, 2, 2)), 1.0, BlockCacheConfig(), state)


@pytest.mark.parametrize("rate", [0.0, 0.2, 0.4, 0.5, 0.8, 1.0])
def test_refresh_keeps_only_the_replayed_deltas(rate):
    net = ToyBlockNet(7, channels=2, seed=14)
    state = BlockCacheState()
    cfg = BlockCacheConfig(cache_rate=rate, interval=1)
    z = seeded_normal((1, 4, 4, 2), seed=15).data
    for t in (1.0, 0.9, 0.8):
        block_cached_forward(net, z, t, cfg, state)
        kept = [j for j, d in enumerate(state.deltas) if d is not None]
        assert len(state.deltas) == 7
        assert len(kept) == round(rate * 7)
        assert empty_slots(state) == select_pivotal(state.norms, rate)


class DeltaSpy:
    """Block predictor that records, per apply_block call, whether the cache held deltas."""

    def __init__(self, net, state):
        self.net, self.state = net, state
        self.seen = []

    @property
    def num_blocks(self):
        return self.net.num_blocks

    def apply_block(self, index, features, t):
        self.seen.append((t, self.state.deltas is None))
        return self.net.apply_block(index, features, t)

    def evaluate(self, z, t):
        return self.net.evaluate(z, t)


def test_refresh_drops_the_old_deltas_before_running_the_blocks():
    state = BlockCacheState()
    spy = DeltaSpy(ToyBlockNet(5, channels=2, seed=16), state)
    cfg = BlockCacheConfig(cache_rate=0.4, interval=1)
    z = seeded_normal((1, 4, 4, 2), seed=17).data
    for t in (1.0, 0.9, 0.8):
        block_cached_forward(spy, z, t, cfg, state)
    refresh_calls = [dropped for t, dropped in spy.seen if t != 0.9]
    partial_calls = [dropped for t, dropped in spy.seen if t == 0.9]
    assert len(refresh_calls) == 10 and all(refresh_calls)
    assert partial_calls and not any(partial_calls)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=8),
       st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
@example([2], 0.0)
@example([2], 1.0)
@example([1, 1, 1, 1], 0.5)
def test_streaming_refresh_keeps_what_select_pivotal_replays_and_at_most_r_deltas(levels, rate):
    """Tied norms, rates 0 and 1 and a single block: the refresh drops each delta it will not replay at once.

    Every block adds a constant small integer, so its delta is exact and equal
    levels tie. Before each block runs, no more than r = round(rate * M)
    deltas are alive, and the pivotal set, norms, kept deltas and output are
    those of a plain forward ranked by select_pivotal.
    """
    shape = (1, 2, 2, 1)
    deltas = []
    alive_before_block = []

    def alive():
        return sum(ref() is not None for ref in deltas)

    class BlockOutput(np.ndarray):
        """A block's output; its difference with the block input is a block delta, which a weak reference tracks."""

        def __sub__(self, other):
            delta = np.asarray(self) - np.asarray(other)
            deltas.append(weakref.ref(delta))
            return delta

    class Spy(ConstantDeltaNet):
        def apply_block(self, index, features, t):
            alive_before_block.append(alive())
            return super().apply_block(index, features, t).view(BlockOutput)

    net = Spy([Tensor4(np.full(shape, float(v))) for v in levels])
    z = np.zeros(shape)
    state = BlockCacheState()
    out = block_cached_forward(net, z, 1.0, BlockCacheConfig(cache_rate=rate, interval=2), state)
    features = [z]
    for j in range(len(levels)):
        features.append(ConstantDeltaNet.apply_block(net, j, features[-1], 1.0))
    true_deltas = [features[j + 1] - features[j] for j in range(len(levels))]
    replayed = round(rate * len(levels))
    assert out.tobytes() == features[-1].tobytes()
    assert state.norms == tuple(2.0 * v for v in levels)
    assert empty_slots(state) == select_pivotal(state.norms, rate)
    for j, d in enumerate(state.deltas):
        assert d is None or d.tobytes() == true_deltas[j].tobytes()
    assert max(alive_before_block) <= replayed
    assert len(deltas) == len(levels) and alive() == replayed


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**32 - 1),
       st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
def test_refresh_norms_and_pivotal_set_match_the_plain_forwards_deltas(blocks, channels, seed, rate):
    """A refresh's block importances are sqrt(sum(d * d)) of the plain forward's deltas, to rounding."""
    net = ToyBlockNet(blocks, channels=channels, seed=seed)
    z = np.random.default_rng(seed).standard_normal((2, 4, 4, channels))
    state = BlockCacheState()
    out = block_cached_forward(net, z, 0.7, BlockCacheConfig(cache_rate=rate, interval=2), state)
    features = [z]
    for j in range(blocks):
        features.append(net.apply_block(j, features[-1], 0.7))
    deltas = [features[j + 1] - features[j] for j in range(blocks)]
    norms = [float(np.sqrt(np.sum(d * d))) for d in deltas]
    assert out.tobytes() == features[-1].tobytes()
    assert state.norms == pytest.approx(norms, rel=1e-12, abs=0.0)
    assert empty_slots(state) == select_pivotal(norms, rate)


def test_refresh_from_a_populated_cache_peaks_no_higher_than_the_first():
    """A refresh never holds the old delta set next to the new one (traced numpy allocations)."""
    net = ToyBlockNet(6, channels=8, seed=3)
    z = seeded_normal((2, 16, 16, 8), seed=4).data
    cfg = BlockCacheConfig(cache_rate=0.4, interval=1)
    state = BlockCacheState()

    def refresh_peak(t):
        tracemalloc.reset_peak()
        block_cached_forward(net, z, t, cfg, state)
        assert state.age == 0
        return tracemalloc.get_traced_memory()[1]

    tracemalloc.start()
    try:
        first = refresh_peak(1.0)
        block_cached_forward(net, z, 0.9, cfg, state)
        again = refresh_peak(0.8)
    finally:
        tracemalloc.stop()
    assert again <= first + 0.5 * z.nbytes


def run_pair(alpha, seed=0, n=30, reuse="prediction", warmup=5):
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
    b_pred, c_pred, r_pred = run_pair(alpha=1e-12, reuse="prediction")
    b_res, c_res, r_res = run_pair(alpha=1e-12, reuse="residual")
    assert r_pred.skip_count == r_res.skip_count == 0
    assert np.array_equal(c_pred.data, c_res.data)
    assert np.array_equal(c_pred.data, b_pred.data)


def test_residual_reuse_differs_from_prediction_reuse_on_skips():
    _, pred_out, pred_report = run_pair(alpha=0.9, reuse="prediction", seed=6)
    _, res_out, res_report = run_pair(alpha=0.9, reuse="residual", seed=6)
    assert pred_report.skip_count > 0
    assert not np.array_equal(pred_out.data, res_out.data)


@pytest.mark.parametrize("reuse", list(REUSE_RULES))
def test_only_residual_reuse_keeps_a_residual(reuse):
    z0 = seeded_normal(SHAPE, seed=106)
    policy = StepCachePolicy(make_pred(6), StepCacheConfig(alpha=0.9, reuse=reuse), None, z0.shape)
    _, report = run_steps(policy, z0, make_schedule(30))
    assert report.skip_count > 0
    assert (policy.kept is policy.cached_prediction) == (reuse == "prediction")


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
        def evaluate(self, x, t):
            return np.full(x.shape, 1.25)

    cfg = StepCacheConfig()
    mask = trial_mask(SHAPE, cfg)
    z = seeded_normal(SHAPE, seed=3)
    cached = np.full(SHAPE, 1.25)
    z_small = avg_downsample(z.data, cfg.downsample)
    pooled = avg_downsample(cached, cfg.downsample)
    assert trial_lowfreq_diff(Constant(), z_small, 0.5, pooled, mask) == pytest.approx(0.0, abs=1e-12)


def test_trial_mask_radius_rule_examples():
    """The radius is mask_scale * min(H, W) of the plane cfg.downsample pools the latent to."""
    full = DownsampleFactors(1, 1, 1)
    assert trial_mask((1, 20, 20, 1), StepCacheConfig(downsample=full)).radius == pytest.approx(4.0)
    assert trial_mask((1, 10, 30, 1), StepCacheConfig(downsample=full)).radius == pytest.approx(2.0)
    pooled = trial_mask((2, 40, 80, 1), StepCacheConfig(mask_scale=0.35))
    assert (pooled.height, pooled.width) == (10, 20)
    assert pooled.radius == pytest.approx(3.5)
    assert StepCacheConfig().mask_scale == DEFAULT_RADIUS_SCALE == 0.2
    with pytest.raises(DimensionError):
        trial_mask((2, 18, 16, 1), StepCacheConfig())


def test_block_cache_requires_block_predictor():
    pred = make_pred(1)
    z0 = seeded_normal(SHAPE, seed=2)
    with pytest.raises(ConfigError):
        sample_cached(pred, z0, make_schedule(10), StepCacheConfig(), BlockCacheConfig())


class ChannelDroppingTrial:
    """A mixture that drops the last channel of every velocity on the trial grid."""

    def __init__(self, pred):
        self.pred = pred

    def evaluate(self, x, t):
        v = self.pred.evaluate(x, t)
        return v if x.shape == SHAPE else v[..., :-1]


def test_a_trial_velocity_of_the_wrong_shape_is_a_dimension_error():
    message = r"trial evaluation returned shape \(2, 4, 4, 1\) for input shape \(2, 4, 4, 2\)"
    with pytest.raises(DimensionError, match=message):
        sample_cached(ChannelDroppingTrial(make_pred(1)), seeded_normal(SHAPE, seed=2), make_schedule(10),
                      StepCacheConfig())


def test_a_zero_block_net_under_the_block_cache_is_the_plain_cached_run():
    """block_cached_forward returns the input of a 0-block net at once: no refresh, no pivotal set."""
    net, z0, sched = ToyBlockNet(0, channels=2, seed=1), seeded_normal(SHAPE, seed=4), make_schedule(30)
    cfg = StepCacheConfig(alpha=0.9, warmup_steps=3)
    plain, plain_report = sample_cached(net, z0, sched, cfg)
    blocked, report = sample_cached(net, z0, sched, cfg, BlockCacheConfig())
    assert blocked.tobytes() == plain.tobytes()
    assert [r.decision for r in report.steps] == [r.decision for r in plain_report.steps]
    assert all(r.pivotal_size is None for r in report.steps)


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


def test_recorded_increments_cut_every_band_on_one_mask(monkeypatch):
    """One circular_mask call per call, and each band is cut from one pooled prediction minus the previous one."""
    preds = [seeded_normal(SHAPE, seed=s).data for s in range(3)]
    cfg = StepCacheConfig()
    pooled = [avg_downsample(p, cfg.downsample) for p in preds]
    masks, bands = [], []
    original_mask, original_band = engine.circular_mask, spectral._band_cut

    def counted_mask(*args):
        masks.append(original_mask(*args))
        return masks[-1]

    def spied_band(x, mask, *args):
        bands.append((x, mask, original_band(x, mask, *args)))
        return bands[-1][2]

    monkeypatch.setattr(engine, "circular_mask", counted_mask)
    monkeypatch.setattr(spectral, "_band_cut", spied_band)
    incs = recorded_increments(preds, cfg)
    assert recorded_increments([], cfg) == []
    assert len(masks) == 1
    assert len(bands) == 2
    assert all(mask is masks[0] for _, mask, _ in bands)
    for i, (x, _, _) in zip((1, 2), bands):
        assert x.tobytes() == (pooled[i] - pooled[i - 1]).tobytes()
    assert incs == [spectrum_norm(band) for _, _, band in bands]


def test_recorded_increments_reject_predictions_whose_frame_counts_differ():
    """A 1-frame band would broadcast against a 2-frame one; the drift refuses it."""
    cfg = StepCacheConfig(downsample=DownsampleFactors(1, 4, 4))
    preds = [seeded_normal((2, 16, 16, 2), seed=1).data, seeded_normal((1, 16, 16, 2), seed=2).data]
    with pytest.raises(DimensionError, match="does not match"):
        recorded_increments(preds, cfg)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(0.0, 10.0), max_size=60), st.lists(st.floats(0.0, 20.0), min_size=2, max_size=6))
def test_replay_decisions_match_the_simulator_and_full_counts_never_rise_with_the_threshold(increments, thresholds):
    """Exact, not statistical: increments are >= 0 and rounded addition is monotone."""
    counts = []
    for threshold in sorted(thresholds):
        decisions = replay_decisions(increments, threshold)
        assert decisions == reference_decisions(increments, threshold)
        counts.append(decisions.count(DECISION_FULL))
    assert counts == sorted(counts, reverse=True)


def six_axis_pool(x, f):
    """The earlier pooling formula: numpy's mean over the three block axes at once."""
    if f.as_tuple() == (1, 1, 1):
        return x
    t, h, w, c = x.shape
    return x.reshape(t // f.frames, f.frames, h // f.height, f.height, w // f.width, f.width, c).mean(axis=(1, 3, 5))


class FreshMeansMixture:
    """The mixture velocity with every component mean materialized afresh on each call (no memo)."""

    def __init__(self, spec):
        self.spec = spec

    def evaluate(self, x, t):
        spec = self.spec
        return MixturePredictor(spec.shape, spec.weights, spec.variances, spec.means).evaluate(x, t)


class PerTrialPolicy:
    """Oracle step policy that rebuilds everything at every trial.

    Each trial pools the cached prediction again with the six-axis mean,
    rebuilds the mask, transforms both whole operands and subtracts the
    spectra before cutting the low band.
    """

    def __init__(self, pred, cfg, block_cfg, cells):
        self.pred, self.cfg, self.block_cfg = pred, cfg, block_cfg
        self.full_cells = float(cells)
        self.trial_cells = float(cells // cfg.downsample.volume)
        self.cached_prediction = self.cached_residual = self.threshold = None
        self.error = 0.0
        self.block_state = BlockCacheState()
        self.warmup_deltas = []

    def __call__(self, k, t, z):
        cfg = self.cfg
        delta, cost, decision = None, 0.0, DECISION_WARMUP
        if k > 0:
            z_small = six_axis_pool(z, cfg.downsample)
            trial = self.pred.evaluate(z_small, t)
            _, height, width, _ = z_small.shape
            mask = circular_mask(height, width, cfg.mask_scale * min(height, width))
            cached_small = six_axis_pool(self.cached_prediction, cfg.downsample)
            d = np.fft.fft2(trial, axes=(1, 2), norm="ortho") - np.fft.fft2(cached_small, axes=(1, 2), norm="ortho")
            low = d[:, mask.membership, :]
            delta = float(np.sqrt(np.sum(low.real ** 2 + low.imag ** 2)))
            cost += self.trial_cells
            if k < cfg.warmup_steps:
                self.warmup_deltas.append(delta)
                self.error += delta
            else:
                if self.threshold is None:
                    self.threshold = relative_threshold(self.warmup_deltas, cfg.alpha)
                decision, self.error = accumulate_decide(self.error, delta, self.threshold)
        err_before = self.error
        pivotal_size = partial = None
        if decision == DECISION_SKIP:
            f = self.cached_prediction if cfg.reuse == "prediction" else z + self.cached_residual
        else:
            if self.block_cfg is None:
                f, eval_cost = self.pred.evaluate(z, t), self.full_cells
            else:
                f = block_cached_forward(self.pred, z, t, self.block_cfg, self.block_state)
                pivotal_size = len(select_pivotal(self.block_state.norms, self.block_cfg.cache_rate))
                partial = self.block_state.age > 0
                eval_cost = self.full_cells * (pivotal_size / self.pred.num_blocks if partial else 1.0)
            cost += eval_cost
            self.error = 0.0
            self.cached_residual = f - z
        self.cached_prediction = f
        return f, StepRecord(step=k, t=t, decision=decision, trial_delta=delta, err_before=err_before,
                             err_after=self.error, cost_units=cost, pivotal_size=pivotal_size, block_partial=partial)


def is_drift(name, row):
    """Whether a StepRecord field carries a drift value, which agrees to rounding only.

    The sampler cuts the low band with DFT matrices and the oracle with fft2.
    err_after carries drift only on a skip; after a full step it is exactly 0.0.
    """
    return name in ("trial_delta", "err_before") or (name == "err_after" and row.decision == DECISION_SKIP)


def assert_steps_match(steps, ref_steps):
    """Decisions, costs and block fields bitwise; drift values to 1e-12 relative."""
    assert len(steps) == len(ref_steps)
    for got, want in zip(steps, ref_steps):
        for f in dataclasses.fields(StepRecord):
            a, b = getattr(got, f.name), getattr(want, f.name)
            if is_drift(f.name, want) and b is not None:
                assert a == pytest.approx(b, rel=1e-12), (got.step, f.name)
            else:
                assert a == b, (got.step, f.name)


def per_trial_run(monkeypatch, pred, z0, sched, cfg, block_cfg=None):
    with monkeypatch.context() as m:
        m.setattr(predictors, "avg_downsample", six_axis_pool)
        policy = PerTrialPolicy(pred, cfg, block_cfg, z0.cells)
        z, report = run_steps(policy, z0, sched)
    report.trial_cost_units = policy.trial_cells * report.trial_eval_count
    return z, report, policy.threshold, max(policy.warmup_deltas)


@pytest.mark.parametrize("reuse", list(REUSE_RULES))
@pytest.mark.parametrize("shape", [(4, 16, 16, 2), (4, 32, 32, 3)])
def test_cached_mixture_run_matches_the_per_trial_oracle_bitwise(monkeypatch, shape, reuse):
    spec = structured_mixture(shape, seed=6)
    z0 = seeded_normal(shape, seed=7)
    sched = make_schedule(30)
    cfg = StepCacheConfig(alpha=0.5, warmup_steps=3, reuse=reuse)
    z, report = sample_cached(spec, z0, sched, cfg)
    z_ref, ref, threshold, warmup_max = per_trial_run(monkeypatch, FreshMeansMixture(spec), z0, sched, cfg)
    assert report.skip_count > 0
    assert z.tobytes() == z_ref.tobytes()
    assert_steps_match(report.steps, ref.steps)
    assert report.threshold == pytest.approx(threshold, rel=1e-12)
    assert report.threshold == calibrate([r.trial_delta for r in report.steps[1:]], cfg.warmup_steps, cfg.alpha)[0]
    assert report.warmup_max_delta == pytest.approx(warmup_max, rel=1e-12)


def test_cached_block_run_matches_the_per_trial_oracle_bitwise(monkeypatch):
    net = ToyBlockNet(6, channels=4, seed=8)
    z0 = seeded_normal((4, 16, 16, 4), seed=9)
    sched = make_schedule(30)
    cfg = StepCacheConfig(alpha=0.9, warmup_steps=3)
    block_cfg = BlockCacheConfig(cache_rate=0.4, interval=2)
    z, report = sample_cached(net, z0, sched, cfg, block_cfg)
    z_ref, ref, threshold, warmup_max = per_trial_run(monkeypatch, net, z0, sched, cfg, block_cfg)
    assert report.skip_count > 0 and any(r.block_partial for r in report.steps)
    assert z.tobytes() == z_ref.tobytes()
    assert_steps_match(report.steps, ref.steps)
    assert report.threshold == pytest.approx(threshold, rel=1e-12)
    assert report.threshold == calibrate([r.trial_delta for r in report.steps[1:]], cfg.warmup_steps, cfg.alpha)[0]
    assert report.warmup_max_delta == pytest.approx(warmup_max, rel=1e-12)


def test_cached_run_with_an_unpooled_trial_on_a_64_plane_completes():
    """cache.downsample = 1x1x1 cuts the low band of the full 64x64 plane at every trial."""
    shape = (1, 64, 64, 2)
    cfg = StepCacheConfig(alpha=0.5, warmup_steps=2, downsample=DownsampleFactors(1, 1, 1))
    z, report = sample_cached(structured_mixture(shape, seed=1), seeded_normal(shape, seed=2),
                              make_schedule(6), cfg)
    assert z.shape == shape
    assert report.trial_eval_count == 5
    assert all(r.trial_delta > 0 for r in report.steps[1:])


def test_trial_pools_the_latent_once_and_the_cached_prediction_once_per_refresh(monkeypatch):
    """z_0 is pooled once per run, then carried; each prediction a trial reads is pooled once."""
    calls = {"avg_downsample": 0, "circular_mask": 0}

    def counted(name):
        original = getattr(engine, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(engine, name, counted(name))
    _, report = sample_cached(make_pred(2), seeded_normal(SHAPE, seed=3), make_schedule(40),
                              StepCacheConfig(alpha=0.9, warmup_steps=3))
    decisions = [r.decision for r in report.steps]
    refreshes = sum(decisions[k - 1] != DECISION_SKIP for k in range(1, len(decisions)))
    assert report.trial_eval_count == len(decisions) - 1
    assert refreshes < report.trial_eval_count
    assert calls == {"avg_downsample": 1 + refreshes, "circular_mask": 1}


def fft2_band_drift(current, previous, mask_scale):
    """Oracle drift: fft2 of current - previous cut to the disk of radius mask_scale * min(H, W), built here."""
    _, h, w, _ = current.shape
    fu, fv = np.fft.fftfreq(h) * h, np.fft.fftfreq(w) * w
    band = np.hypot(fu[:, None], fv[None, :]) <= mask_scale * min(h, w)
    low = np.fft.fft2(current - previous, axes=(1, 2), norm="ortho")[:, band, :]
    return float(np.sqrt(np.sum(low.real ** 2 + low.imag ** 2)))


class FixedVelocity:
    """Predictor whose velocity is one stored array, whatever the latent."""

    def __init__(self, velocity):
        self.velocity = velocity

    def evaluate(self, x, t):
        return self.velocity


@st.composite
def drift_cases(draw):
    factors = DownsampleFactors(draw(st.sampled_from((1, 2))), draw(st.sampled_from((1, 2, 4))),
                                draw(st.sampled_from((1, 2, 4))))
    shape = (factors.frames * draw(st.integers(1, 2)), factors.height * draw(st.integers(1, 4)),
             factors.width * draw(st.integers(1, 4)), draw(st.integers(1, 3)))
    return shape, factors, draw(st.floats(0.05, 1.0)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(drift_cases())
@example(((1, 16, 16, 1), DownsampleFactors(1, 4, 4), 0.2, 0))
@example(((2, 8, 8, 2), DownsampleFactors(1, 1, 1), 1.0, 1))
@example(((1, 64, 65, 1), DownsampleFactors(1, 1, 1), 0.01, 2))
@example(((2, 16, 16, 3), DownsampleFactors(1, 1, 1), 1.0, 3))
def test_trial_drift_and_recorded_increments_are_the_fft2_band_of_the_pooled_difference(case):
    """Both drifts are the norm of fft2's low band of (current - previous) on the trial grid, to 1e-12 relative.

    The examples cover both band cuts at both band edges. With the mask's dense band table: 16x16 pooled to a
    4x4 plane with radius 0.8, a band of the DC bin alone, and every bin of an 8x8 plane, a table exactly at its
    cap. With the separable cut: the DC bin alone on a 64x65 plane and every bin of a 16x16 plane.
    """
    shape, factors, mask_scale, seed = case
    cfg = StepCacheConfig(downsample=factors, mask_scale=mask_scale)
    mask = trial_mask(shape, cfg)
    preds = [seeded_normal(shape, seed=seed + i).data for i in range(3)]
    pooled = [six_axis_pool(p, factors) for p in preds]
    latent = six_axis_pool(seeded_normal(shape, seed=seed + 3).data, factors)
    drift = trial_lowfreq_diff(FixedVelocity(pooled[1]), latent, 0.5, pooled[0], mask)
    assert drift == pytest.approx(fft2_band_drift(pooled[1], pooled[0], mask_scale), rel=1e-12)
    incs = recorded_increments(preds, cfg)
    assert len(incs) == 2
    for i, inc in zip((1, 2), incs):
        assert inc == pytest.approx(fft2_band_drift(pooled[i], pooled[i - 1], mask_scale), rel=1e-12)


def test_a_cached_run_cuts_one_band_per_trial_and_none_on_a_full_step(monkeypatch):
    """The cached prediction's band is never cut: each trial cuts the band of its difference, once."""
    events = []
    original_trial, original_band = engine.trial_lowfreq_diff, spectral._band_cut

    def trial(*args):
        events.append("trial")
        drift = original_trial(*args)
        events.append("end")
        return drift

    def band(x, mask, *args):
        events.append("cut")
        return original_band(x, mask, *args)

    monkeypatch.setattr(engine, "trial_lowfreq_diff", trial)
    monkeypatch.setattr(spectral, "_band_cut", band)
    _, report = sample_cached(make_pred(2), seeded_normal(SHAPE, seed=3), make_schedule(50), StepCacheConfig())
    decisions = [r.decision for r in report.steps]
    assert DECISION_SKIP in decisions and DECISION_FULL in decisions
    assert report.trial_eval_count == 49
    assert events == ["trial", "cut", "end"] * 49


def test_every_drift_is_one_lowfreq_diff_call_on_the_pooled_difference_operands(monkeypatch):
    """The engine computes no drift of its own: each trial calls lowfreq_diff once, by the name the tracer hooks.

    Its operands are the trial velocity and the pooled cached prediction, on the trial mask, and its value is
    the trial's drift; recorded_increments over n predictions calls it n - 1 times.
    """
    pred, trials, diffs = make_pred(2), [], []
    original_trial, original_diff = engine.trial_lowfreq_diff, engine.lowfreq_diff

    def trial(p, latent, t, pooled_prediction, mask):
        trials.append((latent.copy(), t, pooled_prediction, mask))
        return original_trial(p, latent, t, pooled_prediction, mask)

    def diff(a, b, mask):
        diffs.append((a, b, mask, original_diff(a, b, mask)))
        return diffs[-1][3]

    monkeypatch.setattr(engine, "trial_lowfreq_diff", trial)
    monkeypatch.setattr(engine, "lowfreq_diff", diff)
    _, report = sample_cached(pred, seeded_normal(SHAPE, seed=3), make_schedule(50), StepCacheConfig())
    assert report.trial_eval_count == 49
    assert len(trials) == len(diffs) == 49
    deltas = [r.trial_delta for r in report.steps[1:]]
    for (latent, t, pooled_prediction, mask), (a, b, diff_mask, drift), delta in zip(trials, diffs, deltas):
        assert b is pooled_prediction and diff_mask is mask
        assert a.tobytes() == pred.evaluate(latent, t).tobytes()
        assert drift == delta
    diffs.clear()
    preds = [seeded_normal(SHAPE, seed=s).data for s in range(5)]
    assert recorded_increments(preds, StepCacheConfig()) == [d for *_, d in diffs]
    assert len(diffs) == 4


def test_a_trial_velocity_that_is_the_trial_latent_is_never_written(monkeypatch):
    """A 0-block net returns its input: the unpooled trial's velocity is the carried trial latent itself.

    Subtracting the cached prediction in place would write into the latent; it must still equal each latent,
    and every drift must equal the per-trial oracle's.
    """
    net, z0, sched = ToyBlockNet(0, channels=2, seed=1), seeded_normal(SHAPE, seed=4), make_schedule(30)
    cfg = StepCacheConfig(alpha=0.9, warmup_steps=3, downsample=DownsampleFactors(1, 1, 1), mask_scale=1.0)
    policy = StepCachePolicy(net, cfg, None, z0.shape)
    velocities, pairs = [], []
    original = net.evaluate
    monkeypatch.setattr(net, "evaluate", lambda x, t: velocities.append(original(x, t)) or velocities[-1])
    _, report = run_steps(policy, z0, sched,
                          lambda k, t, z, f: pairs.append((z.tobytes(), policy.trial_latent.tobytes())))
    monkeypatch.undo()
    assert report.skip_count > 0
    assert any(v is policy.trial_latent for v in velocities)
    assert all(z == carried for z, carried in pairs)
    _, ref, _, _ = per_trial_run(monkeypatch, net, z0, sched, cfg)
    assert_steps_match(report.steps, ref.steps)


def spy_axpy(monkeypatch):
    """Record every engine.axpy call as (a, scale, b, result), through the name the tracer wraps."""
    calls, original = [], engine.axpy

    def spied(a, scale, b):
        calls.append((a, scale, b, original(a, scale, b)))
        return calls[-1][3]

    monkeypatch.setattr(engine, "axpy", spied)
    return calls


def test_every_trial_update_is_one_axpy_call_with_the_step_and_the_pooled_prediction(monkeypatch):
    """A 50-step cached mixture run advances its trial latent by exactly 49 engine.axpy calls.

    Call k - 1 takes the trial latent the previous call returned (z_0 pooled for the first), the step
    t_k - t_{k-1} and the pooled prediction step k - 1 used; its result is the latent step k's trial evaluates.
    """
    calls = spy_axpy(monkeypatch)
    pred, z0, sched, cfg = make_pred(2), seeded_normal(SHAPE, seed=3), make_schedule(50), StepCacheConfig()
    used, evaluated = [], []
    original = MixturePredictor.evaluate
    monkeypatch.setattr(MixturePredictor, "evaluate", lambda self, x, t: evaluated.append(x) or original(self, x, t))
    _, report = sample_cached(pred, z0, sched, cfg, observer=lambda k, t, z, f: used.append(f))
    assert report.skip_count > 0 and report.trial_eval_count == 49
    assert len(calls) == 49
    trial_latents = [x for x in evaluated if x.shape != SHAPE]
    assert calls[0][0].tobytes() == avg_downsample(z0.data, cfg.downsample).tobytes()
    for k, (a, scale, b, result) in enumerate(calls, start=1):
        assert k == 1 or a is calls[k - 2][3]
        assert scale == sched.values[k] - sched.values[k - 1]
        assert b.tobytes() == avg_downsample(used[k - 1], cfg.downsample).tobytes()
        assert result is trial_latents[k - 1]


def test_every_block_delta_and_replay_is_one_axpy_call(monkeypatch):
    """A block-cached toy run sends each refresh delta and each replayed delta through engine.axpy.

    A refresh makes one axpy(next, -1, features) per block; a partial step makes one axpy(features, 1, delta)
    per replayed block, with a delta a refresh's axpy returned. The other calls are the 49 trial updates.
    """
    calls = spy_axpy(monkeypatch)
    net, z0 = ToyBlockNet(6, channels=4, seed=8), seeded_normal((4, 16, 16, 4), seed=9)
    _, report = sample_cached(net, z0, make_schedule(50), StepCacheConfig(alpha=0.9, warmup_steps=3),
                              BlockCacheConfig(cache_rate=0.4, interval=2))
    rows = [r for r in report.steps if r.decision != DECISION_SKIP]
    refreshes = sum(not r.block_partial for r in rows)
    replays = sum(net.num_blocks - r.pivotal_size for r in rows if r.block_partial)
    assert report.skip_count > 0 and refreshes > 0 and replays > 0
    trial = [c for c in calls if c[0].shape != z0.shape]
    deltas = [c for c in calls if c[0].shape == z0.shape and c[1] == -1.0]
    replayed = [c for c in calls if c[0].shape == z0.shape and c[1] == 1.0]
    assert (len(trial), len(deltas), len(replayed)) == (49, net.num_blocks * refreshes, replays)
    assert len(calls) == 49 + net.num_blocks * refreshes + replays
    delta_ids = {id(result) for *_, result in deltas}
    assert all(id(b) in delta_ids for _, _, b, _ in replayed)


class ReadOnlyVelocity:
    """A mixture whose every velocity comes back read-only, as a trace record's does."""

    def __init__(self, pred):
        self.pred = pred

    def evaluate(self, x, t):
        v = self.pred.evaluate(x, t)
        v.flags.writeable = False
        return v


@pytest.mark.parametrize("downsample", [DownsampleFactors(1, 1, 1), DownsampleFactors(2, 4, 4)])
@pytest.mark.parametrize("reuse", list(REUSE_RULES))
@pytest.mark.parametrize("kind", ["read-only", "identity"])
def test_a_cached_run_writes_no_array_it_has_handed_out_or_received(kind, reuse, downsample):
    """Every array a predictor received or returned, and every state array, stays bitwise as it was first seen.

    A read-only velocity cannot be written at all; ToyBlockNet(0, ...) returns its input, so its velocity is
    the trial latent itself, and an update in place would change it after the drift was taken.
    """
    pred = ReadOnlyVelocity(make_pred(8)) if kind == "read-only" else ToyBlockNet(0, channels=2, seed=1)
    cfg = StepCacheConfig(alpha=0.9, warmup_steps=3, reuse=reuse, downsample=downsample, mask_scale=1.0)
    seen = []
    original = pred.evaluate

    def watched(x, t):
        v = original(x, t)
        seen.extend((a, a.tobytes()) for a in (x, v))
        return v

    pred.evaluate = watched
    policy = StepCachePolicy(pred, cfg, None, SHAPE)

    def observe(k, t, z, f):
        arrays = (policy.trial_latent, policy.pooled_prediction, policy.kept, z, f)
        seen.extend((a, a.tobytes()) for a in arrays if a is not None)

    _, report = run_steps(policy, seeded_normal(SHAPE, seed=4), make_schedule(30), observe)
    assert report.skip_count > 0
    assert all(a.tobytes() == first for a, first in seen)


@pytest.mark.parametrize("run", ["baseline", "prediction", "residual", "block"])
def test_observers_get_read_only_arrays_from_both_samplers(run):
    """Every latent and prediction a step hands its observer, fresh, reused or block-cached, is a read-only array."""
    seen = []

    def observe(k, t, z, f):
        seen.extend((z, f))

    z0, sched = seeded_normal(SHAPE, seed=4), make_schedule(30)
    if run == "baseline":
        sample_baseline(make_pred(8), z0, sched, observe)
    else:
        reuse = "residual" if run == "residual" else "prediction"
        pred, block_cfg = (ToyBlockNet(6, 2, seed=8), BlockCacheConfig()) if run == "block" else (make_pred(8), None)
        cfg = StepCacheConfig(alpha=0.9, warmup_steps=3, reuse=reuse)
        _, report = sample_cached(pred, z0, sched, cfg, block_cfg, observe)
        assert report.skip_count > 0
        assert block_cfg is None or any(r.block_partial for r in report.steps)
    assert len(seen) == 60
    assert all(type(a) is np.ndarray and not a.flags.writeable for a in seen)


def carried_trial_latents(pred, z0, sched, cfg, block_cfg=None):
    """(z_k, trial latent of step k) for every step of one cached run, and the run's report."""
    policy = StepCachePolicy(pred, cfg, block_cfg, z0.shape)
    pairs = []
    _, report = run_steps(policy, z0, sched, lambda k, t, z, f: pairs.append((z, policy.trial_latent)))
    return pairs, report


@pytest.mark.parametrize("reuse", list(REUSE_RULES))
@pytest.mark.parametrize("kind", ["mixture", "block"])
def test_carried_trial_latent_tracks_the_pooled_latent_over_200_steps(kind, reuse):
    cfg = StepCacheConfig(alpha=0.9, warmup_steps=3, reuse=reuse)
    if kind == "mixture":
        pred, z0, block_cfg = make_pred(8), seeded_normal(SHAPE, seed=9), None
    else:
        pred, z0 = ToyBlockNet(6, channels=4, seed=8), seeded_normal((4, 16, 16, 4), seed=9)
        block_cfg = BlockCacheConfig(cache_rate=0.4, interval=2)
    pairs, report = carried_trial_latents(pred, z0, make_schedule(200), cfg, block_cfg)
    assert len(pairs) == 200 and report.skip_count > 0
    for z, carried in pairs:
        exact = avg_downsample(z, cfg.downsample)
        assert np.max(np.abs(carried - exact)) <= 1e-13 * np.max(np.abs(exact))


@pytest.mark.parametrize("reuse", list(REUSE_RULES))
def test_unpooled_carried_trial_latent_is_the_latent_bitwise(reuse):
    cfg = StepCacheConfig(alpha=0.9, warmup_steps=3, reuse=reuse, downsample=DownsampleFactors(1, 1, 1))
    pairs, report = carried_trial_latents(make_pred(8), seeded_normal(SHAPE, seed=9), make_schedule(60), cfg)
    assert report.skip_count > 0
    for z, carried in pairs:
        assert carried.tobytes() == z.tobytes()


def test_policy_rejects_a_step_that_does_not_follow_the_previous_one():
    z0 = seeded_normal(SHAPE, seed=3).data
    policy = StepCachePolicy(make_pred(2), StepCacheConfig(), None, z0.shape)
    with pytest.raises(StateError, match="step 1"):
        policy(1, 0.9, z0)
    f, _ = policy(0, 1.0, z0)
    z1 = axpy(z0, -0.1, f)
    with pytest.raises(StateError, match="step 0"):
        policy(0, 1.0, z0)
    with pytest.raises(StateError, match="step 2"):
        policy(2, 0.8, z1)
    policy(1, 0.9, z1)


@pytest.mark.parametrize("kind", ["mixture", "block"])
def test_every_trial_calls_evaluate_at_the_trial_shape(monkeypatch, kind):
    """One entry point: a step's trial, then its full evaluation unless the block cache runs it, call evaluate."""
    if kind == "mixture":
        cls, pred, z0, block_cfg = MixturePredictor, make_pred(2), seeded_normal(SHAPE, seed=3), None
    else:
        cls, pred, z0 = ToyBlockNet, ToyBlockNet(6, channels=2, seed=8), seeded_normal(SHAPE, seed=3)
        block_cfg = BlockCacheConfig(cache_rate=0.4, interval=2)
    calls = []
    original = cls.evaluate

    def spied(self, x, t):
        calls.append(x.shape)
        return original(self, x, t)

    monkeypatch.setattr(cls, "evaluate", spied)
    _, report = sample_cached(pred, z0, make_schedule(40), StepCacheConfig(alpha=0.9, warmup_steps=3), block_cfg)
    expected = []
    for row in report.steps:
        expected += [(2, 4, 4, 2)] * (row.trial_delta is not None)
        expected += [SHAPE] * (block_cfg is None and row.decision != DECISION_SKIP)
    assert report.skip_count > 0 and report.trial_eval_count == len(report.steps) - 1
    assert calls == expected


def test_a_non_finite_trial_velocity_on_the_array_path_raises_tensor4s_error():
    """One trial-latent cell at 1e200 overflows the mixture's log-densities, so its velocity is NaN.

    A residual-reuse skip is checked the same way: a cached residual that overflowed to inf makes the
    skip's prediction non-finite, and the policy raises require_finite's error instead of returning it.
    """
    z0 = seeded_normal(SHAPE, seed=3).data
    policy = StepCachePolicy(make_pred(2), StepCacheConfig(), None, z0.shape)
    f, _ = policy(0, 1.0, z0)
    bad = policy.trial_latent.copy()
    bad[0, 0, 0, 0] = 1e200
    policy.trial_latent = bad
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DomainError, match="^tensor contains non-finite values$"):
            policy(1, 0.9, axpy(z0, -0.1, f))

    policy = StepCachePolicy(make_pred(2), StepCacheConfig(warmup_steps=2, reuse="residual"), None, z0.shape)
    z1 = axpy(z0, -0.1, policy(0, 1.0, z0)[0])
    z2 = axpy(z1, -0.1, policy(1, 0.9, z1)[0])
    policy.kept = np.full(SHAPE, np.inf)
    policy.threshold = np.inf
    with pytest.raises(DomainError, match="^tensor contains non-finite values$"):
        policy(2, 0.8, z2)


def test_a_non_finite_trial_evaluation_at_the_trial_shape_raises_tensor4s_error():
    """A predictor that returns inf at the trial shape fails in the trial.

    Cutting the band of an inf velocity computes inf - inf. The cached
    sampler silences numpy's invalid-value warning for it, so under
    -W error::RuntimeWarning the caller still sees the trial's own DomainError.
    """

    class InfAtTrialShape:
        def evaluate(self, x, t):
            return np.full(x.shape, 0.5 if x.shape == SHAPE else np.inf)

    with pytest.raises(DomainError, match="^tensor contains non-finite values$"):
        sample_cached(InfAtTrialShape(), seeded_normal(SHAPE, seed=3), make_schedule(10), StepCacheConfig())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("cached", [False, True])
def test_a_non_finite_full_evaluation_raises_at_the_wrap(bad, cached):
    """require_finite on a full-shape prediction is its finiteness check, on the block cache's output too.

    It raises before the observer sees the prediction, not only at the Euler step that would follow.
    """

    class BadAtFullShape:
        num_blocks = 2

        def apply_block(self, index, features, t):
            return features + (bad if features.shape == SHAPE else 0.5)

        def evaluate(self, x, t):
            return np.full(x.shape, bad if x.shape == SHAPE else 0.5)

    z0, sched, observed = seeded_normal(SHAPE, seed=3), make_schedule(10), []
    observe = lambda k, t, z, f: observed.append(k)
    runs = [lambda: sample_cached(BadAtFullShape(), z0, sched, StepCacheConfig(), observer=observe),
            lambda: sample_cached(BadAtFullShape(), z0, sched, StepCacheConfig(), BlockCacheConfig(), observe)]
    for run in runs if cached else [lambda: sample_baseline(BadAtFullShape(), z0, sched, observe)]:
        with pytest.raises(DomainError, match="^tensor contains non-finite values$"):
            run()
    assert observed == []


@pytest.mark.parametrize("bad_step", [0, 1])
def test_a_block_that_emits_inf_mid_stack_raises_at_the_wrap(bad_step):
    """Block 1 of 3 emits inf at full shape on a refresh (step 0) or a partial step (step 1).

    Block 0 adds the smallest constant, so it is the one replayed and block 1
    stays pivotal. The trials run at the trial shape and stay finite, so the
    error comes from require_finite on the block cache's output. On the
    refresh block 2's delta is inf - inf; the cached sampler silences numpy's
    invalid-value warning for it, so require_finite's DomainError is what the
    caller sees.
    """
    shape = (2, 8, 8, 2)
    sched = make_schedule(10)

    class InfMidStack:
        num_blocks = 3
        bad_t = None

        def apply_block(self, index, features, t):
            bad = (index, features.shape, t) == (1, shape, self.bad_t)
            return features + (np.inf if bad else (0.01, 1.0, 2.0)[index])

        def evaluate(self, x, t):
            return toy_block_forward(self, x, t)

    net, z0 = InfMidStack(), seeded_normal(shape, seed=1)
    cfg = StepCacheConfig(warmup_steps=20, downsample=DownsampleFactors(1, 4, 4))
    block_cfg = BlockCacheConfig(cache_rate=1 / 3, interval=3)
    _, report = sample_cached(net, z0, sched, cfg, block_cfg)
    assert [r.block_partial for r in report.steps[:2]] == [False, True]
    assert report.steps[1].pivotal_size == 2
    net.bad_t = sched.values[bad_step]
    with pytest.raises(DomainError, match="^tensor contains non-finite values$"):
        sample_cached(net, z0, sched, cfg, block_cfg)
