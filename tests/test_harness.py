"""Tests for the diagnostic harness: influence, drift profiles, cost, correlations."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowcache import harness
from flowcache.engine import StepCacheConfig, sample_cached
from flowcache.errors import DimensionError, DomainError
from flowcache.harness import (
    DEFAULT_RESOLUTION_FACTORS,
    PSNR_CAP_DB,
    _fractional_ranks,
    adjacent_diff_profile,
    block_profile,
    cost_accounting,
    pearson,
    psnr,
    resolution_sensitivity,
    run_trajectory,
    single_step_skip_influence,
    spearman,
)
from flowcache.predictors import ToyBlockNet, structured_mixture
from flowcache.report import DECISION_FULL, DECISION_SKIP, DECISION_WARMUP, RunReport, StepRecord
from flowcache.sampler import euler_step, make_schedule
from flowcache.tensor import DownsampleFactors, Tensor4, mse, seeded_normal

from nets import ConstantDeltaNet

SHAPE = (4, 8, 8, 2)


def make_predictor(seed=11):
    return structured_mixture(SHAPE, seed=seed)


class FixedPredictor:
    """Returns the same array at every step, so adjacent predictions never move."""

    def __init__(self, value: Tensor4):
        self._value = value.data

    def evaluate(self, x: np.ndarray, t: float) -> np.ndarray:
        if x.shape != self._value.shape:
            raise DimensionError(f"latent shape {x.shape} does not match {self._value.shape}")
        return self._value


# ---------------------------------------------------------------- correlations


def test_spearman_hand_example():
    assert spearman([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]) == pytest.approx(0.5, abs=1e-15)


def test_spearman_monotone_is_one():
    x = [0.1, 0.5, 2.0, 7.0, 9.5]
    assert spearman(x, x) == 1.0
    assert spearman(x, [v * 3.0 + 1.0 for v in x]) == 1.0


def test_spearman_reversal_is_minus_one():
    x = [1.0, 2.0, 3.0, 4.0]
    assert spearman(x, list(reversed(x))) == -1.0


def test_spearman_averages_tied_ranks():
    # ranks of x are [1.5, 1.5, 3]; Pearson against [1, 2, 3] is sqrt(3)/2
    r = spearman([4.0, 4.0, 9.0], [1.0, 2.0, 3.0])
    assert r == pytest.approx(np.sqrt(3.0) / 2.0, rel=1e-12)


def test_spearman_hand_example_with_ties_in_both_sequences():
    # ranks of x are [4, 1, 4, 2, 4] (three-way tie at 3, 4, 5); of y [2.5, 2.5, 5, 1, 4].
    # Centered: [1, -2, 1, -1, 1] and [-0.5, -0.5, 2, -2, 1], so r = 5.5 / sqrt(8 * 9.5) = 2.75 / sqrt(19)
    x, y = [3.0, 1.0, 3.0, 2.0, 3.0], [2.0, 2.0, 5.0, 1.0, 4.0]
    assert spearman(x, y) == pytest.approx(2.75 / np.sqrt(19.0), rel=1e-12)
    assert spearman(y, x) == pytest.approx(2.75 / np.sqrt(19.0), rel=1e-12)


def tie_averaging_loop(values):
    """Reference ranks: a stable sort, then each tied run gets the mean of its 1-based positions."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.float64)
    ranks[order] = np.arange(1, values.size + 1, dtype=np.float64)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + 1 + j + 1)
        i = j + 1
    return ranks


@given(st.lists(st.integers(-4, 4).map(float) | st.floats(allow_nan=False), min_size=1, max_size=40))
def test_fractional_ranks_match_the_tie_averaging_loop_bitwise(values):
    values = np.asarray(values, dtype=np.float64)
    assert _fractional_ranks(values).tobytes() == tie_averaging_loop(values).tobytes()


def test_pearson_identical_sequences_exactly_one():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(40).tolist()
    assert pearson(x, x) == 1.0


def test_pearson_linear_sign():
    x = [1.0, 2.0, 4.0, 8.0]
    y = [-2.0 * v + 3.0 for v in x]
    assert pearson(x, y) == -1.0


def test_correlation_guards():
    with pytest.raises(DimensionError):
        pearson([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(DimensionError):
        spearman([1.0, 2.0, 3.0], [1.0, 2.0])
    with pytest.raises(DomainError):
        pearson([1.0], [2.0])
    with pytest.raises(DomainError):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


# ------------------------------------------------------------------------ psnr


def test_psnr_identical_returns_cap():
    a = seeded_normal(SHAPE, 3)
    assert psnr(a, a) == PSNR_CAP_DB
    assert PSNR_CAP_DB == 200.0


def test_psnr_zero_db_when_mse_equals_peak_squared():
    a = Tensor4(np.zeros(SHAPE))
    b = Tensor4(np.full(SHAPE, 1.0))
    assert psnr(a, b) == pytest.approx(0.0, abs=1e-12)


def test_psnr_twenty_db_case():
    a = Tensor4(np.zeros(SHAPE))
    b = Tensor4(np.full(SHAPE, 0.1))
    assert psnr(a, b) == pytest.approx(20.0, rel=1e-12)


def test_psnr_guards():
    with pytest.raises(DimensionError):
        psnr(seeded_normal(SHAPE, 0), seeded_normal((4, 8, 8, 1), 0))


# ------------------------------------------------------------------ trajectory


def test_run_trajectory_records_every_step():
    pred = make_predictor()
    z0 = seeded_normal(SHAPE, 7)
    sched = make_schedule(12)
    traj = run_trajectory(pred, z0, sched)
    assert len(traj.latents) == 12
    assert len(traj.predictions) == 12
    assert traj.latents[0] is z0.data
    assert traj.predictor is pred
    # the terminal state is one Euler step past the last recorded pair
    z_last = euler_step(traj.latents[-1], traj.predictions[-1], sched.values[-2], sched.values[-1])
    assert np.array_equal(z_last, traj.terminal.data)


# ------------------------------------------------------------------- influence


def test_influence_excludes_first_step():
    pred = make_predictor()
    prof = single_step_skip_influence(run_trajectory(pred, seeded_normal(SHAPE, 1), make_schedule(8)))
    assert prof.step_indices == tuple(range(1, 8))
    assert prof.t_values == make_schedule(8).values[1:8]
    assert len(prof.full) == len(prof.low) == len(prof.high) == 7


def test_influence_zero_when_predictions_never_change():
    pred = FixedPredictor(seeded_normal(SHAPE, 9))
    z0 = seeded_normal(SHAPE, 2)
    traj = run_trajectory(pred, z0, make_schedule(6))
    prof = single_step_skip_influence(traj)
    assert all(v == 0.0 for v in prof.full)
    # band splicing round-trips the transform, so identical sources leave only
    # rounding noise (squared, hence ~1e-32) rather than exact zeros
    assert all(v < 1e-24 for v in prof.low + prof.high)


def test_influence_positive_for_moving_predictor():
    pred = make_predictor()
    prof = single_step_skip_influence(run_trajectory(pred, seeded_normal(SHAPE, 3), make_schedule(10)))
    assert all(v > 0.0 for v in prof.full)


def test_influence_hf_only_below_full_variant():
    pred = make_predictor(seed=4)
    traj = run_trajectory(pred, seeded_normal(SHAPE, 4), make_schedule(12))
    prof = single_step_skip_influence(traj)
    hits = sum(1 for h, f in zip(prof.high, prof.full) if h <= f + 1e-15)
    assert hits >= int(0.8 * len(prof.full))


# --------------------------------------------------------------- adjacent diff


def test_adjacent_diff_zero_for_fixed_predictor():
    pred = FixedPredictor(seeded_normal(SHAPE, 6))
    prof = adjacent_diff_profile(run_trajectory(pred, seeded_normal(SHAPE, 5), make_schedule(7)))
    assert all(v == 0.0 for v in prof.raw)
    assert all(v == 0.0 for v in prof.low)
    assert all(v == 0.0 for v in prof.high)


def test_adjacent_diff_band_energies_partition():
    pred = make_predictor(seed=8)
    prof = adjacent_diff_profile(run_trajectory(pred, seeded_normal(SHAPE, 8), make_schedule(10)))
    assert prof.step_indices == tuple(range(1, 10))
    for raw, low, high in zip(prof.raw, prof.low, prof.high):
        assert raw * raw == pytest.approx(low * low + high * high, rel=1e-9)


def test_adjacent_diff_t_values_follow_schedule():
    pred = make_predictor()
    sched = make_schedule(9)
    prof = adjacent_diff_profile(run_trajectory(pred, seeded_normal(SHAPE, 9), sched))
    assert prof.t_values == tuple(sched.values[k] for k in range(1, 9))


# ------------------------------------------------------------------ resolution


def test_resolution_identity_factor_reproduces_reference():
    pred = make_predictor(seed=10)
    traj = run_trajectory(pred, seeded_normal(SHAPE, 10), make_schedule(8))
    sens = resolution_sensitivity(traj, factors=[DownsampleFactors(1, 1, 1)])
    assert sens.series[0] == sens.reference
    assert sens.pearson_by_factor[0] == 1.0
    assert sens.spearman_by_factor[0] == 1.0


@pytest.mark.parametrize("mask_scale", [0.2, 0.5])
def test_adjacent_low_band_is_the_resolution_reference(mask_scale):
    """The full-resolution low-band drift has one code path: both analyses report the same floats."""
    traj = run_trajectory(make_predictor(seed=14), seeded_normal(SHAPE, 14), make_schedule(9))
    reference = resolution_sensitivity(traj, DEFAULT_RESOLUTION_FACTORS, mask_scale).reference
    assert adjacent_diff_profile(traj, mask_scale).low == reference


def test_resolution_default_factor_list():
    assert DEFAULT_RESOLUTION_FACTORS == (
        DownsampleFactors(1, 2, 2),
        DownsampleFactors(1, 4, 4),
        DownsampleFactors(1, 8, 8),
        DownsampleFactors(2, 4, 4),
        DownsampleFactors(4, 4, 4),
    )


def test_resolution_indivisible_factor_rejected():
    traj = run_trajectory(make_predictor(), seeded_normal(SHAPE, 1), make_schedule(6))
    with pytest.raises(DimensionError):
        resolution_sensitivity(traj, factors=[DownsampleFactors(3, 4, 4)])


def test_resolution_reports_one_row_per_factor():
    shape = (4, 16, 16, 2)
    pred = structured_mixture(shape, seed=12)
    factors = [DownsampleFactors(1, 2, 2), DownsampleFactors(2, 4, 4)]
    sens = resolution_sensitivity(run_trajectory(pred, seeded_normal(shape, 12), make_schedule(8)), factors=factors)
    assert sens.factors == tuple(factors)
    assert len(sens.series) == 2
    assert len(sens.pearson_by_factor) == 2
    assert all(len(s) == len(sens.reference) for s in sens.series)
    assert all(-1.0 <= r <= 1.0 for r in sens.pearson_by_factor)


# --------------------------------------------------------------- block profile


def test_block_profile_identity_net_all_zero():
    zero = Tensor4(np.zeros(SHAPE))
    net = ConstantDeltaNet([zero, zero, zero])
    prof = block_profile(run_trajectory(net, seeded_normal(SHAPE, 0), make_schedule(6)), probe_steps=[0, 3, 5])
    assert prof.probe_steps == (0, 3, 5)
    for row in prof.importances:
        assert row == (0.0, 0.0, 0.0)


def test_block_profile_varies_across_probe_steps():
    net = ToyBlockNet(6, channels=SHAPE[3], seed=21)
    sched = make_schedule(12)
    prof = block_profile(run_trajectory(net, seeded_normal(SHAPE, 21), sched), probe_steps=[0, 6, 11])
    rows = [np.asarray(r) for r in prof.importances]
    gaps = [float(np.linalg.norm(a - b)) for i, a in enumerate(rows) for b in rows[i + 1 :]]
    assert max(gaps) > 0.0
    assert prof.t_values == tuple(sched.values[p] for p in (0, 6, 11))


def test_block_profile_importances_heavy_tailed():
    # log-uniform block scales concentrate mass: top 60% of blocks hold >= 80%
    net = ToyBlockNet(10, channels=SHAPE[3], seed=33)
    prof = block_profile(run_trajectory(net, seeded_normal(SHAPE, 33), make_schedule(8)), probe_steps=[4])
    row = sorted(prof.importances[0], reverse=True)
    top = sum(row[: int(round(0.6 * len(row)))])
    assert top >= 0.8 * sum(row)


@pytest.mark.parametrize("pred", [structured_mixture(SHAPE, 1), ToyBlockNet(0, channels=SHAPE[3], seed=1)],
                         ids=["mixture", "zero-block-net"])
def test_block_profile_refuses_a_run_without_blocks_before_any_refresh(pred, monkeypatch):
    """A mixture has no blocks to rank: the package's DomainError, not an AttributeError, and no refresh runs."""
    traj = run_trajectory(pred, seeded_normal(SHAPE, 1), make_schedule(4))
    monkeypatch.setattr(harness, "block_cached_forward", lambda *args: pytest.fail("a refresh ran"))
    with pytest.raises(DomainError, match=f"needs a block net with at least one block, got {type(pred).__name__}"):
        block_profile(traj, probe_steps=[0])


def test_block_profile_probe_validation():
    net = ToyBlockNet(3, channels=SHAPE[3], seed=2)
    traj = run_trajectory(net, seeded_normal(SHAPE, 2), make_schedule(5))
    with pytest.raises(DomainError):
        block_profile(traj, probe_steps=[5])
    with pytest.raises(DomainError):
        block_profile(traj, probe_steps=[-1])


def test_block_profile_rejects_a_net_without_blocks():
    traj = run_trajectory(ToyBlockNet(0, channels=SHAPE[3], seed=1), seeded_normal(SHAPE, 1), make_schedule(4))
    with pytest.raises(DomainError):
        block_profile(traj, [0])


def test_block_profile_dedupes_and_sorts_probes():
    net = ToyBlockNet(3, channels=SHAPE[3], seed=3)
    prof = block_profile(run_trajectory(net, seeded_normal(SHAPE, 3), make_schedule(6)), probe_steps=[4, 1, 4])
    assert prof.probe_steps == (1, 4)


# ------------------------------------------------------------------------ cost


def constructed_report(n_steps=50, warmup=5, skips=25, cells=1024.0, trial_div=32.0):
    """Report with the given decision counts and the standard cost model."""
    fulls = n_steps - warmup - skips
    rows = []
    cost = 0.0
    trial_cost = 0.0
    decisions = [DECISION_WARMUP] * warmup + [DECISION_FULL] * fulls + [DECISION_SKIP] * skips
    for k, decision in enumerate(decisions):
        step_cost = 0.0 if decision == DECISION_SKIP else cells
        if k > 0:
            step_cost += cells / trial_div
            trial_cost += cells / trial_div
        cost += step_cost
        rows.append(StepRecord(step=k, t=1.0 - k / n_steps, decision=decision,
                               trial_delta=None, err_before=None, err_after=None,
                               cost_units=step_cost))
    report = RunReport(
        steps=rows,
        full_eval_count=fulls,
        skip_count=skips,
        warmup_full_count=warmup,
        trial_eval_count=n_steps - 1,
        cost_units=cost,
        baseline_cost_units=n_steps * cells,
        trial_cost_units=trial_cost,
        latent_shape=(4, 16, 16, 2),
        n_steps=n_steps,
    )
    report.validate()
    return report


def test_cost_accounting_baseline_run_is_speedup_one():
    pred = make_predictor()
    from flowcache.sampler import sample_baseline

    _, report = sample_baseline(pred, seeded_normal(SHAPE, 14), make_schedule(10))
    summary = cost_accounting(report)
    assert summary.speedup_units == 1.0
    assert summary.skip_fraction == 0.0
    assert summary.trial_overhead_fraction == 0.0


def test_cost_accounting_half_skips_hand_arithmetic():
    # 25 of 50 steps skipped, trial at every step after the first, trial = full/32:
    # achieved cost 25*32 + 49, baseline 50*32
    report = constructed_report()
    summary = cost_accounting(report)
    assert summary.skip_fraction == 0.5
    expected = (50.0 * 32.0) / (25.0 * 32.0 + 49.0)
    assert summary.speedup_units == pytest.approx(expected, rel=1e-12)
    assert summary.trial_overhead_fraction == pytest.approx(49.0 / 1600.0, rel=1e-12)
    # skips beyond the trial overhead never slow the run down
    assert summary.skip_fraction > summary.trial_overhead_fraction and summary.speedup_units >= 1.0


def test_cost_accounting_is_pure():
    report = constructed_report(skips=10)
    assert cost_accounting(report) == cost_accounting(report)


def test_cost_accounting_rejects_empty_report():
    with pytest.raises(DomainError):
        cost_accounting(RunReport())


def test_cost_accounting_on_real_cached_run():
    pred = make_predictor(seed=15)
    z0 = seeded_normal(SHAPE, 15)
    _, report = sample_cached(pred, z0, make_schedule(30), StepCacheConfig(downsample=DownsampleFactors(2, 4, 4)))
    summary = cost_accounting(report)
    if summary.skip_fraction > summary.trial_overhead_fraction:
        assert summary.speedup_units >= 1.0
    assert summary.cost_units == report.cost_units
