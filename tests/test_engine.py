"""Step cache and block cache: decision policy, degeneracies, and invariants."""

import dataclasses
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowcache import engine, predictors
from flowcache.engine import (
    DEFAULT_RADIUS_SCALE,
    REUSE_PREDICTION,
    REUSE_RESIDUAL,
    BlockCacheConfig,
    BlockCacheState,
    CacheState,
    StepCacheConfig,
    StepCachePolicy,
    accumulate_decide,
    block_cached_forward,
    low_band,
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
    GaussianMixtureSpec,
    MixturePredictor,
    ToyBlockNet,
    mixture_velocity,
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


def test_block_refresh_norms_hand_example():
    """Features 0 -> 1 -> 1 -> 4 on four cells: the refresh ranks blocks by norms 2, 0, 6."""
    shape = (1, 2, 2, 1)
    net = ConstantDeltaNet([Tensor4(np.full(shape, 1.0)), Tensor4(np.zeros(shape)), Tensor4(np.full(shape, 3.0))])
    state = BlockCacheState()
    out = block_cached_forward(net, Tensor4(np.zeros(shape)), 1.0, BlockCacheConfig(), state)
    assert np.all(out.data == 4.0)
    assert state.norms == (2.0, 0.0, 6.0)
    assert state.pivotal == (0, 2)


def test_block_cache_rate_zero_is_bitwise_plain():
    net = ToyBlockNet(6, channels=2, seed=5)
    cfg = BlockCacheConfig(cache_rate=0.0, interval=3)
    state = BlockCacheState()
    z = seeded_normal((2, 4, 4, 2), seed=6)
    for t in (1.0, 0.8, 0.6, 0.4):
        cached = block_cached_forward(net, z, t, cfg, state)
        plain = toy_block_forward(net, z, t)
        assert np.array_equal(cached.data, plain.data)


def test_block_interval_zero_is_bitwise_plain():
    net = ToyBlockNet(5, channels=2, seed=7)
    cfg = BlockCacheConfig(cache_rate=0.4, interval=0)
    state = BlockCacheState()
    z = seeded_normal((2, 4, 4, 2), seed=8)
    for t in (1.0, 0.7, 0.4):
        cached = block_cached_forward(net, z, t, cfg, state)
        plain = toy_block_forward(net, z, t)
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
    state = BlockCacheState(deltas=[Tensor4(np.zeros((1, 2, 2, 2)))] * 4)
    with pytest.raises(StateError):
        block_cached_forward(net, Tensor4(np.zeros((1, 2, 2, 2))), 1.0, BlockCacheConfig(), state)


@pytest.mark.parametrize("rate", [0.0, 0.2, 0.4, 0.5, 0.8, 1.0])
def test_refresh_keeps_only_the_replayed_deltas(rate):
    net = ToyBlockNet(7, channels=2, seed=14)
    state = BlockCacheState()
    cfg = BlockCacheConfig(cache_rate=rate, interval=1)
    z = seeded_normal((1, 4, 4, 2), seed=15)
    for t in (1.0, 0.9, 0.8):
        block_cached_forward(net, z, t, cfg, state)
        kept = [j for j, d in enumerate(state.deltas) if d is not None]
        assert len(state.deltas) == 7
        assert len(kept) == round(rate * 7)
        assert set(kept).isdisjoint(state.pivotal)
        assert set(kept) | set(state.pivotal) == set(range(7))


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
    z = seeded_normal((1, 4, 4, 2), seed=17)
    for t in (1.0, 0.9, 0.8):
        block_cached_forward(spy, z, t, cfg, state)
    refresh_calls = [dropped for t, dropped in spy.seen if t != 0.9]
    partial_calls = [dropped for t, dropped in spy.seen if t == 0.9]
    assert len(refresh_calls) == 10 and all(refresh_calls)
    assert partial_calls and not any(partial_calls)


class TrackedTensor(Tensor4):
    """Tensor4 that a weak set can hold, to count the block deltas still alive."""

    __slots__ = ("__weakref__",)


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
    live = weakref.WeakSet()
    alive_before_block = []

    class Spy(ConstantDeltaNet):
        def apply_block(self, index, features, t):
            alive_before_block.append(len(live))
            return super().apply_block(index, features, t)

    def tracked_axpy(x, a, y):
        out = TrackedTensor(axpy(x, a, y).data)
        live.add(out)
        return out

    net = Spy([Tensor4(np.full(shape, float(v))) for v in levels])
    z = Tensor4(np.zeros(shape))
    state = BlockCacheState()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(engine, "axpy", tracked_axpy)
        out = block_cached_forward(net, z, 1.0, BlockCacheConfig(cache_rate=rate, interval=2), state)
    features = [z]
    for j in range(len(levels)):
        features.append(ConstantDeltaNet.apply_block(net, j, features[-1], 1.0))
    true_deltas = [axpy(features[j + 1], -1.0, features[j]) for j in range(len(levels))]
    replayed = round(rate * len(levels))
    assert out.tobytes() == features[-1].tobytes()
    assert state.norms == tuple(2.0 * v for v in levels)
    assert state.pivotal == select_pivotal(state.norms, rate)
    for j, d in enumerate(state.deltas):
        assert (d is None) == (j in state.pivotal)
        assert d is None or d.tobytes() == true_deltas[j].tobytes()
    assert max(alive_before_block) <= replayed
    assert len(live) == replayed


def test_refresh_from_a_populated_cache_peaks_no_higher_than_the_first():
    """A refresh never holds the old delta set next to the new one (traced numpy allocations)."""
    net = ToyBlockNet(6, channels=8, seed=3)
    z = seeded_normal((2, 16, 16, 8), seed=4)
    cfg = BlockCacheConfig(cache_rate=0.4, interval=1)
    state = BlockCacheState()

    def refresh_peak(t):
        tracemalloc.reset_peak()
        block_cached_forward(net, z, t, cfg, state)
        assert not state.last_partial
        return tracemalloc.get_traced_memory()[1]

    tracemalloc.start()
    try:
        first = refresh_peak(1.0)
        block_cached_forward(net, z, 0.9, cfg, state)
        again = refresh_peak(0.8)
    finally:
        tracemalloc.stop()
    assert again <= first + 0.5 * z.data.nbytes


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


@pytest.mark.parametrize("reuse", [REUSE_PREDICTION, REUSE_RESIDUAL])
def test_only_residual_reuse_keeps_a_residual(reuse):
    z0 = seeded_normal(SHAPE, seed=106)
    policy = StepCachePolicy(make_pred(6), StepCacheConfig(alpha=0.9, reuse=reuse), None, z0.shape)
    _, report = run_steps(policy, policy.pred, z0, make_schedule(30), None, policy.trial_cells)
    assert report.skip_count > 0
    assert (policy.state.cached_residual is None) == (reuse == REUSE_PREDICTION)


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
            return Tensor4(np.full(z.shape, 1.25))

    cfg = StepCacheConfig()
    mask = trial_mask(SHAPE, cfg)
    z = seeded_normal(SHAPE, seed=3)
    cached = Tensor4(np.full(SHAPE, 1.25))
    z_small = avg_downsample(z, cfg.downsample)
    assert trial_lowfreq_diff(Constant(), z_small, 0.5, low_band(cached, cfg, mask), mask) == pytest.approx(0.0, abs=1e-12)


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
    """One circular_mask call per call, and each band is low_band of its own prediction."""
    preds = [seeded_normal(SHAPE, seed=s) for s in range(3)]
    cfg = StepCacheConfig()
    fresh_mask = trial_mask(SHAPE, cfg)
    masks, bands = [], []
    original_mask, original_band = engine.circular_mask, engine.low_band

    def counted_mask(*args):
        masks.append(original_mask(*args))
        return masks[-1]

    def spied_band(x, cfg, mask):
        bands.append((x, mask, original_band(x, cfg, mask)))
        return bands[-1][2]

    monkeypatch.setattr(engine, "circular_mask", counted_mask)
    monkeypatch.setattr(engine, "low_band", spied_band)
    incs = recorded_increments(preds, cfg)
    assert recorded_increments([], cfg) == []
    assert len(masks) == 1
    assert [x for x, _, _ in bands] == preds
    assert all(mask is masks[0] for _, mask, _ in bands)
    for p, (_, _, band) in zip(preds, bands):
        assert band.tobytes() == original_band(p, cfg, fresh_mask).tobytes()
    assert incs == [spectrum_norm(bands[i][2] - bands[i - 1][2]) for i in (1, 2)]


def test_recorded_increments_reject_predictions_whose_frame_counts_differ():
    """A 1-frame band would broadcast against a 2-frame one; the drift refuses it."""
    cfg = StepCacheConfig(downsample=DownsampleFactors(1, 4, 4))
    preds = [seeded_normal((2, 16, 16, 2), seed=1), seeded_normal((1, 16, 16, 2), seed=2)]
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
    blocked = x.data.reshape(t // f.frames, f.frames, h // f.height, f.height, w // f.width, f.width, c)
    return Tensor4(blocked.mean(axis=(1, 3, 5)))


class FreshMeansMixture:
    """The mixture velocity with every component mean materialized afresh on each call (no memo)."""

    def __init__(self, spec):
        self.spec = spec

    def evaluate(self, z, t):
        return mixture_velocity(GaussianMixtureSpec(self.spec.shape, self.spec.components), z, t)


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
        self.state = CacheState()
        self.block_state = BlockCacheState()
        self.warmup_deltas = []

    def __call__(self, k, t, z):
        cfg, state = self.cfg, self.state
        delta, cost, decision = None, 0.0, DECISION_WARMUP
        if k > 0:
            z_small = six_axis_pool(z, cfg.downsample)
            trial = self.pred.evaluate(z_small, t)
            mask = circular_mask(z_small.height, z_small.width, cfg.mask_scale * min(z_small.height, z_small.width))
            cached_small = six_axis_pool(state.cached_prediction, cfg.downsample)
            d = np.fft.fft2(trial.data, axes=(1, 2), norm="ortho") - np.fft.fft2(cached_small.data, axes=(1, 2), norm="ortho")
            low = d[:, mask.membership, :]
            delta = float(np.sqrt(np.sum(low.real ** 2 + low.imag ** 2)))
            cost += self.trial_cells
            if k < cfg.warmup_steps:
                self.warmup_deltas.append(delta)
                state.error += delta
            else:
                if state.threshold is None:
                    state.threshold = relative_threshold(self.warmup_deltas, cfg.alpha)
                decision = accumulate_decide(state, delta)
        err_before = state.error
        pivotal_size = partial = None
        if decision == DECISION_SKIP:
            f = state.cached_prediction if cfg.reuse == REUSE_PREDICTION else axpy(z, 1.0, state.cached_residual)
        else:
            if self.block_cfg is None:
                f, eval_cost = self.pred.evaluate(z, t), self.full_cells
            else:
                f = block_cached_forward(self.pred, z, t, self.block_cfg, self.block_state)
                pivotal_size, partial = len(self.block_state.pivotal), self.block_state.last_partial
                eval_cost = self.full_cells * (pivotal_size / self.pred.num_blocks if partial else 1.0)
            cost += eval_cost
            state.error = 0.0
            state.cached_residual = axpy(f, -1.0, z)
        state.cached_prediction = f
        return f, StepRecord(step=k, t=t, decision=decision, trial_delta=delta, err_before=err_before,
                             err_after=state.error, cost_units=cost, pivotal_size=pivotal_size, block_partial=partial)


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
        z, report = run_steps(policy, pred, z0, sched, None, policy.trial_cells)
    return z, report, policy.state.threshold, max(policy.warmup_deltas)


@pytest.mark.parametrize("reuse", [REUSE_PREDICTION, REUSE_RESIDUAL])
@pytest.mark.parametrize("shape", [(4, 16, 16, 2), (4, 32, 32, 3)])
def test_cached_mixture_run_matches_the_per_trial_oracle_bitwise(monkeypatch, shape, reuse):
    spec = structured_mixture(shape, seed=6)
    z0 = seeded_normal(shape, seed=7)
    sched = make_schedule(30)
    cfg = StepCacheConfig(alpha=0.5, warmup_steps=3, reuse=reuse)
    z, report = sample_cached(MixturePredictor(spec), z0, sched, cfg)
    z_ref, ref, threshold, warmup_max = per_trial_run(monkeypatch, FreshMeansMixture(spec), z0, sched, cfg)
    assert report.skip_count > 0
    assert z.tobytes() == z_ref.tobytes()
    assert_steps_match(report.steps, ref.steps)
    assert report.threshold == pytest.approx(threshold, rel=1e-12)
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
    assert report.warmup_max_delta == pytest.approx(warmup_max, rel=1e-12)


def test_cached_run_with_an_unpooled_trial_on_a_64_plane_completes():
    """cache.downsample = 1x1x1 cuts the low band of the full 64x64 plane at every trial."""
    shape = (1, 64, 64, 2)
    cfg = StepCacheConfig(alpha=0.5, warmup_steps=2, downsample=DownsampleFactors(1, 1, 1))
    z, report = sample_cached(MixturePredictor(structured_mixture(shape, seed=1)), seeded_normal(shape, seed=2),
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


def carried_trial_latents(pred, z0, sched, cfg, block_cfg=None):
    """(z_k, trial latent of step k) for every step of one cached run, and the run's report."""
    policy = StepCachePolicy(pred, cfg, block_cfg, z0.shape)
    pairs = []
    _, report = run_steps(policy, pred, z0, sched, lambda k, t, z, f: pairs.append((z, policy.state.trial_latent)),
                          policy.trial_cells)
    return pairs, report


@pytest.mark.parametrize("reuse", [REUSE_PREDICTION, REUSE_RESIDUAL])
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
        exact = avg_downsample(z, cfg.downsample).data
        assert np.max(np.abs(carried.data - exact)) <= 1e-13 * np.max(np.abs(exact))


@pytest.mark.parametrize("reuse", [REUSE_PREDICTION, REUSE_RESIDUAL])
def test_unpooled_carried_trial_latent_is_the_latent_bitwise(reuse):
    cfg = StepCacheConfig(alpha=0.9, warmup_steps=3, reuse=reuse, downsample=DownsampleFactors(1, 1, 1))
    pairs, report = carried_trial_latents(make_pred(8), seeded_normal(SHAPE, seed=9), make_schedule(60), cfg)
    assert report.skip_count > 0
    for z, carried in pairs:
        assert carried.tobytes() == z.tobytes()


def test_policy_rejects_a_step_that_does_not_follow_the_previous_one():
    z0 = seeded_normal(SHAPE, seed=3)
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


def test_cached_mixture_trials_take_the_array_entry_point_and_never_evaluate(monkeypatch):
    """MixturePredictor.evaluate runs only for the warmup and full rows; every trial calls evaluate_array."""
    calls = {"evaluate": [], "evaluate_array": []}

    def spied(name):
        original = getattr(MixturePredictor, name)

        def wrapper(self, z, t):
            calls[name].append(z.shape)
            return original(self, z, t)
        return wrapper

    for name in calls:
        monkeypatch.setattr(MixturePredictor, name, spied(name))
    _, report = sample_cached(make_pred(2), seeded_normal(SHAPE, seed=3), make_schedule(40),
                              StepCacheConfig(alpha=0.9, warmup_steps=3))
    assert report.skip_count > 0
    assert calls["evaluate"] == [SHAPE] * (report.warmup_full_count + report.full_eval_count)
    assert calls["evaluate_array"] == [(2, 4, 4, 2)] * report.trial_eval_count


def test_a_non_finite_trial_velocity_on_the_array_path_raises_tensor4s_error():
    """One trial-latent cell at 1e200 overflows the mixture's log-densities, so its velocity is NaN."""
    z0 = seeded_normal(SHAPE, seed=3)
    policy = StepCachePolicy(make_pred(2), StepCacheConfig(), None, z0.shape)
    f, _ = policy(0, 1.0, z0)
    policy.state.trial_buffer[0, 0, 0, 0] = 1e200
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DomainError, match="^tensor contains non-finite values$"):
            policy(1, 0.9, axpy(z0, -0.1, f))


def test_a_non_finite_trial_evaluation_on_the_fallback_path_raises_tensor4s_error():
    """A predictor without evaluate_array that returns inf at the trial shape fails as it always has."""

    class InfAtTrialShape:
        def evaluate(self, z, t):
            return Tensor4(np.full(z.shape, 0.5 if z.shape == SHAPE else np.inf))

    with pytest.raises(DomainError, match="^tensor contains non-finite values$"):
        sample_cached(InfAtTrialShape(), seeded_normal(SHAPE, seed=3), make_schedule(10), StepCacheConfig())
