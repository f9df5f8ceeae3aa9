"""Acceptance battery: ten criteria, one printed PASS/FAIL line each.

Run with -s to see the per-criterion lines on success; on failure the line is
part of the captured output. Every numeric bound here is pinned; none of the
checks uses values produced by the code under test as its own expectation.
"""

import time

import numpy as np
import pytest

from flowcache.engine import (
    BlockCacheConfig,
    BlockCacheState,
    StepCacheConfig,
    block_cached_forward,
    replay_decisions,
    sample_cached,
)
from flowcache.harness import (
    adjacent_diff_profile,
    cost_accounting,
    resolution_sensitivity,
    run_trajectory,
    single_step_skip_influence,
    spearman,
)
from flowcache.predictors import (
    ToyBlockNet,
    TraceArchive,
    TraceReplayPredictor,
    structured_mixture,
)
from flowcache.report import DECISION_FULL, DECISION_SKIP, DECISION_WARMUP, RunReport, StepRecord
from flowcache.sampler import make_schedule, sample_baseline
from flowcache.spectral import band_spectrum, circular_mask, highfreq_diff, lowfreq_diff
from flowcache.tensor import DownsampleFactors, Tensor4, axpy, l2_norm, mse, seeded_normal
from flowcache.traceio import read_trace, write_trace

from nets import ConstantDeltaNet

SHAPE = (4, 16, 16, 2)
N_STEPS = 50
SEEDS = tuple(range(8))


def report_line(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number} ({name}): {status}  {detail}")


# ------------------------------------------------------------ shared fixtures


@pytest.fixture(scope="session")
def mixture_setups():
    """Per-seed (predictor, initial latent) pairs on the default shape."""
    out = {}
    for seed in SEEDS:
        pred = structured_mixture(SHAPE, seed)
        out[seed] = (pred, seeded_normal(SHAPE, seed))
    return out


@pytest.fixture(scope="session")
def trajectories(mixture_setups):
    """One recorded no-cache run per seed, shared by every analysis."""
    sched = make_schedule(N_STEPS)
    return {seed: run_trajectory(pred, z0, sched) for seed, (pred, z0) in mixture_setups.items()}


@pytest.fixture(scope="session")
def baseline_terminals(trajectories):
    return {seed: traj.terminal for seed, traj in trajectories.items()}


@pytest.fixture(scope="session")
def influence_profiles(trajectories):
    return {seed: single_step_skip_influence(traj) for seed, traj in trajectories.items()}


@pytest.fixture(scope="session")
def adjacent_profiles(trajectories):
    return {seed: adjacent_diff_profile(traj) for seed, traj in trajectories.items()}


@pytest.fixture(scope="session")
def cached_runs(mixture_setups, baseline_terminals):
    """Closed-loop runs per seed at alpha 0.25 / 0.5 / 0.7 with defaults otherwise."""
    sched = make_schedule(N_STEPS)
    out = {}
    for seed, (pred, z0) in mixture_setups.items():
        per_alpha = {}
        for alpha in (0.25, 0.5, 0.7):
            terminal, report = sample_cached(pred, z0, sched, StepCacheConfig(alpha=alpha))
            per_alpha[alpha] = (mse(terminal, baseline_terminals[seed]), report)
        out[seed] = per_alpha
    return out


# -------------------------------------------------------------------- criteria


def test_criterion_1_no_skip_degeneracy(mixture_setups, baseline_terminals):
    started = time.monotonic()
    sched = make_schedule(N_STEPS)
    tiny_alpha = StepCacheConfig(alpha=1e-12)
    full_warmup = StepCacheConfig(warmup_steps=N_STEPS)
    exact = 0
    for seed, (pred, z0) in mixture_setups.items():
        for cfg in (tiny_alpha, full_warmup):
            terminal, report = sample_cached(pred, z0, sched, cfg)
            assert report.skip_count == 0
            if np.array_equal(terminal.data, baseline_terminals[seed].data):
                exact += 1
    elapsed = time.monotonic() - started
    ok = exact == 2 * len(SEEDS) and elapsed < 10.0
    report_line(1, "no-skip degeneracy", ok,
                f"{exact}/{2 * len(SEEDS)} configurations bitwise-equal to baseline in {elapsed:.2f}s (< 10s)")
    assert exact == 2 * len(SEEDS)
    assert elapsed < 10.0


def reference_decisions(increments, threshold):
    """Independent accumulate-and-reset simulator, kept deliberately plain."""
    decisions = []
    energy = 0.0
    for inc in increments:
        energy += inc
        if energy < threshold:
            decisions.append("skip")
        else:
            decisions.append("full")
            energy = 0.0
    return decisions


def test_criterion_2_accumulate_reset_oracle():
    rng = np.random.default_rng(2024)
    mismatches = 0
    monotone_violations = 0
    for _ in range(100):
        increments = rng.exponential(1.0, size=50).tolist()
        thresholds = sorted(rng.exponential(5.0, size=20).tolist())
        full_counts = []
        for threshold in thresholds:
            got = replay_decisions(increments, threshold)
            want = reference_decisions(increments, threshold)
            if got != want:
                mismatches += 1
            full_counts.append(got.count("full"))
        if any(a < b for a, b in zip(full_counts, full_counts[1:])):
            monotone_violations += 1
    ok = mismatches == 0 and monotone_violations == 0
    report_line(2, "accumulate-reset oracle", ok,
                f"{mismatches} mismatches over 2000 replays, {monotone_violations} monotonicity violations")
    assert mismatches == 0
    assert monotone_violations == 0


def direct_dft2(plane: np.ndarray) -> np.ndarray:
    """Unitary 2-D DFT via explicitly constructed Fourier matrices (no FFT)."""
    h, w = plane.shape
    eh = np.exp(-2j * np.pi * np.outer(np.arange(h), np.arange(h)) / h)
    ew = np.exp(-2j * np.pi * np.outer(np.arange(w), np.arange(w)) / w)
    return eh @ plane.astype(np.complex128) @ ew.T / np.sqrt(h * w)


def band_plane(x: Tensor4, mask) -> np.ndarray:
    """band_spectrum's low and high bands scattered back onto the full (frames, H, W, channels) spectrum."""
    plane = np.zeros(x.shape, dtype=np.complex128)
    plane[:, mask.membership, :] = band_spectrum(x.data, mask)
    plane[:, ~mask.membership, :] = band_spectrum(x.data, mask, low=False)
    return plane


def test_criterion_3_spectral_correctness():
    """The bands the step cache transforms, checked bin for bin against the direct DFT."""
    rng = np.random.default_rng(3)
    sizes = [(20, 20), (12, 18), (4, 4), (5, 7), (8, 6), (16, 16), (6, 9), (10, 14), (9, 9), (7, 12)]
    worst_split = 0.0
    for trial in range(50):
        h, w = sizes[trial % len(sizes)]
        x = Tensor4(rng.standard_normal((1, h, w, 1)))
        full = band_plane(x, circular_mask(h, w, 0.2 * min(h, w)))[0, :, :, 0]
        oracle = direct_dft2(x.data[0, :, :, 0])
        scale = max(1.0, float(np.max(np.abs(oracle))))
        worst_split = max(worst_split, float(np.max(np.abs(full - oracle))) / scale)

    worst_parseval = 0.0
    for _ in range(100):
        a = rng.standard_normal((2, 12, 10, 2))
        b = rng.standard_normal((2, 12, 10, 2))
        mask = circular_mask(12, 10, 2.0)
        raw = l2_norm(axpy(a, -1.0, b)) ** 2
        split = lowfreq_diff(a, b, mask) ** 2 + highfreq_diff(a, b, mask) ** 2
        worst_parseval = max(worst_parseval, abs(split - raw) / raw)

    ok = worst_split <= 1e-9 and worst_parseval <= 1e-9
    report_line(3, "spectral correctness", ok,
                f"worst band_spectrum error {worst_split:.2e}, worst band-partition error {worst_parseval:.2e} (<= 1e-9)")
    assert worst_split <= 1e-9
    assert worst_parseval <= 1e-9


def mc_posterior_mean(weights, means, variances, x, t, n_samples, rng, batches=50):
    """Likelihood-weighted Monte-Carlo estimate of E[x0 | x_t = x] with its SE."""
    comp = rng.choice(len(weights), size=n_samples, p=weights)
    x0 = np.asarray(means)[comp] + np.sqrt(np.asarray(variances)[comp]) * rng.standard_normal(n_samples)
    logw = -0.5 * ((x - (1.0 - t) * x0) / t) ** 2
    logw -= logw.max()
    w = np.exp(logw)
    per_batch = []
    for chunk_w, chunk_x in zip(np.array_split(w, batches), np.array_split(x0, batches)):
        per_batch.append(float(np.sum(chunk_w * chunk_x) / np.sum(chunk_w)))
    per_batch = np.asarray(per_batch)
    return float(per_batch.mean()), float(per_batch.std(ddof=1) / np.sqrt(batches))


def test_criterion_4_analytic_oracle_fidelity():
    started = time.monotonic()
    spec = structured_mixture(SHAPE, seed=5)
    rng = np.random.default_rng(45)
    worst_sigma = 0.0
    for _ in range(20):
        idx = tuple(int(rng.integers(0, e)) for e in SHAPE)
        t = float(rng.uniform(0.05, 1.0))
        x_val = float(rng.normal(0.0, 3.0))
        field = np.zeros(SHAPE)
        field[idx] = x_val
        v_analytic = float(spec.evaluate(field, t)[idx])
        means = spec.means[(slice(None),) + idx]
        est, se = mc_posterior_mean(spec.weights, means, spec.variances, x_val, t, 10**6, rng)
        v_mc = (x_val - est) / t
        se_v = se / t
        worst_sigma = max(worst_sigma, abs(v_analytic - v_mc) / se_v)
    elapsed = time.monotonic() - started
    ok = worst_sigma <= 3.0 and elapsed < 60.0
    report_line(4, "analytic-oracle fidelity", ok,
                f"worst deviation {worst_sigma:.2f} standard errors (<= 3) over 20 points in {elapsed:.1f}s (< 60s)")
    assert worst_sigma <= 3.0
    assert elapsed < 60.0


def test_criterion_5_influence_trend(influence_profiles):
    trend = []
    below = []
    for seed in SEEDS:
        influence = influence_profiles[seed]
        progress = [float(k) for k in influence.step_indices]
        trend.append(spearman(list(influence.full), progress))
        hits = sum(1 for h, f in zip(influence.high, influence.full) if h <= f)
        below.append(hits / len(influence.full))
    mean_trend = float(np.mean(trend))
    mean_below = float(np.mean(below))
    ok = mean_trend <= -0.5 and mean_below >= 0.9
    report_line(5, "single-step influence trend", ok,
                f"influence-vs-progress Spearman {mean_trend:.3f} (<= -0.5), "
                f"high-band influence below full at {mean_below:.1%} of steps (>= 90%)")
    assert mean_trend <= -0.5
    assert mean_below >= 0.9


def test_criterion_6_lowband_drift_alignment(influence_profiles, adjacent_profiles):
    align = []
    late_high = []
    cut = (3 * N_STEPS) // 4
    for seed in SEEDS:
        adj = adjacent_profiles[seed]
        align.append(spearman(list(adj.low), list(influence_profiles[seed].full)))
        fracs = [h * h / (r * r) for k, r, h in zip(adj.step_indices, adj.raw, adj.high) if k >= cut]
        late_high.append(float(np.mean(fracs)))
    mean_align = float(np.mean(align))
    mean_late = float(np.mean(late_high))
    ok = mean_align >= 0.6 and mean_late > 0.5
    report_line(6, "low-band drift alignment", ok,
                f"drift-vs-influence Spearman {mean_align:.3f} (>= 0.6), "
                f"late-step high-band energy fraction {mean_late:.3f} (> 0.5)")
    assert mean_align >= 0.6
    assert mean_late > 0.5


def test_criterion_7_downsampled_drift_tracking(trajectories):
    factors = [DownsampleFactors(2, 4, 4), DownsampleFactors(4, 4, 4)]
    p244 = []
    p444 = []
    for seed, traj in trajectories.items():
        sens = resolution_sensitivity(traj, factors=factors)
        p244.append(sens.pearson_by_factor[0])
        p444.append(sens.pearson_by_factor[1])
    mean_244 = float(np.mean(p244))
    mean_444 = float(np.mean(p444))
    ok = mean_244 >= 0.9 and mean_244 >= mean_444
    report_line(7, "downsampled drift tracking", ok,
                f"Pearson at 2x4x4 {mean_244:.4f} (>= 0.9) vs 4x4x4 {mean_444:.4f} (2x4x4 not worse)")
    assert mean_244 >= 0.9
    assert mean_244 >= mean_444


def test_criterion_8_closed_loop_speed_quality(cached_runs):
    skip_fracs = []
    speedups = []
    mse_quarter = []
    mse_half = []
    turbo_wins = 0
    for seed in SEEDS:
        per_alpha = cached_runs[seed]
        err_half, report_half = per_alpha[0.5]
        err_quarter, _ = per_alpha[0.25]
        _, report_turbo = per_alpha[0.7]
        cost = cost_accounting(report_half)
        skip_fracs.append(cost.skip_fraction)
        speedups.append(cost.speedup_units)
        mse_half.append(err_half)
        mse_quarter.append(err_quarter)
        if report_turbo.skip_count >= report_half.skip_count:
            turbo_wins += 1
    mean_skip = float(np.mean(skip_fracs))
    mean_speedup = float(np.mean(speedups))
    ratio = float(np.mean(mse_half) / np.mean(mse_quarter))
    ok = mean_skip >= 0.2 and mean_speedup >= 1.2 and ratio <= 5.0 and turbo_wins >= 6
    report_line(8, "closed-loop speed and quality", ok,
                f"skip fraction {mean_skip:.3f} (>= 0.2), speedup {mean_speedup:.3f}x (>= 1.2), "
                f"mse ratio alpha 0.5/0.25 {ratio:.3f} (<= 5), turbo skips >= base on {turbo_wins}/8 seeds (>= 6)")
    assert mean_skip >= 0.2
    assert mean_speedup >= 1.2
    assert ratio <= 5.0
    assert turbo_wins >= 6


def dyadic_tensor(shape, rng):
    """Values of the form k/64: sums and differences stay exact in binary floating point."""
    return Tensor4(rng.integers(-512, 512, size=shape).astype(np.float64) / 64.0)


def test_criterion_9_block_cache_exactness():
    sched = make_schedule(20)
    blocks = 6
    step_cfg = StepCacheConfig()
    degenerate_matches = 0
    for seed in SEEDS:
        net = ToyBlockNet(blocks, SHAPE[3], seed)
        z0 = seeded_normal(SHAPE, seed)
        plain, _ = sample_cached(net, z0, sched, step_cfg)
        for block_cfg in (BlockCacheConfig(cache_rate=0.0, interval=3),
                          BlockCacheConfig(cache_rate=0.4, interval=0)):
            cached, _ = sample_cached(net, z0, sched, step_cfg, block_cfg)
            if np.array_equal(cached.data, plain.data):
                degenerate_matches += 1

    # constructed constant-delta network: replayed deltas are bitwise exact
    rng = np.random.default_rng(99)
    shape = (2, 4, 4, 2)
    net = ConstantDeltaNet([dyadic_tensor(shape, rng) for _ in range(4)])
    exact_rates = 0
    for rate in (0.0, 0.25, 0.5, 0.75, 1.0):
        cfg = BlockCacheConfig(cache_rate=rate, interval=3)
        state = BlockCacheState()
        all_equal = True
        for step in range(8):
            z = dyadic_tensor(shape, rng)
            t = 1.0 - step / 8.0
            got = block_cached_forward(net, z.data, t, cfg, state)
            want = net.evaluate(z.data, t)
            all_equal = all_equal and np.array_equal(got, want)
        if all_equal:
            exact_rates += 1

    # pivotal-set sizes in the decision log
    expected_size = blocks - round(0.4 * blocks)
    net = ToyBlockNet(blocks, SHAPE[3], 0)
    _, report = sample_cached(net, seeded_normal(SHAPE, 0), sched, step_cfg, BlockCacheConfig())
    partial_rows = [r for r in report.steps if r.block_partial]
    sizes_ok = bool(partial_rows) and all(r.pivotal_size == expected_size for r in partial_rows)

    ok = degenerate_matches == 2 * len(SEEDS) and exact_rates == 5 and sizes_ok
    report_line(9, "block cache exactness", ok,
                f"{degenerate_matches}/{2 * len(SEEDS)} degenerate configs bitwise, "
                f"{exact_rates}/5 cache rates exact on the constant-delta net, "
                f"{len(partial_rows)} partial steps all with pivotal size {expected_size}")
    assert degenerate_matches == 2 * len(SEEDS)
    assert exact_rates == 5
    assert sizes_ok


def half_skip_report(cells=1024.0, trial_div=32.0):
    """50-step report: 25 skips, trial at every step, the exact cost-model example."""
    n = 50
    decisions = [DECISION_WARMUP] * 5 + [DECISION_FULL] * 20 + [DECISION_SKIP] * 25
    rows = []
    cost = 0.0
    for k, decision in enumerate(decisions):
        step_cost = cells / trial_div
        if decision != DECISION_SKIP:
            step_cost += cells
        cost += step_cost
        rows.append(StepRecord(step=k, t=1.0 - k / n, decision=decision, trial_delta=None,
                               err_before=None, err_after=None, cost_units=step_cost))
    report = RunReport(steps=rows, full_eval_count=20, skip_count=25, warmup_full_count=5,
                       trial_eval_count=n, cost_units=cost, baseline_cost_units=n * cells,
                       trial_cost_units=n * cells / trial_div, latent_shape=SHAPE, n_steps=n)
    report.validate()
    return report


def test_criterion_10_cost_model_and_trace_round_trip(tmp_path):
    summary = cost_accounting(half_skip_report())
    expected = (50.0 * 32.0) / (25.0 * 32.0 + 50.0)
    cost_err = abs(summary.speedup_units - expected)

    pred = structured_mixture(SHAPE, seed=6)
    z0 = seeded_normal(SHAPE, 6)
    sched = make_schedule(N_STEPS)
    predictions = []
    terminal, _ = sample_baseline(pred, z0, sched, observer=lambda k, t, z, f: predictions.append(f))
    path = tmp_path / "roundtrip.trace"
    write_trace(path, TraceArchive.from_run(sched, predictions))
    archive = read_trace(path)
    replayed, _ = sample_baseline(TraceReplayPredictor(archive), z0, archive.schedule)
    replay_exact = np.array_equal(replayed.data, terminal.data)

    ok = cost_err <= 1e-9 and replay_exact
    report_line(10, "cost model and trace round trip", ok,
                f"speedup off the hand value by {cost_err:.2e} (<= 1e-9), "
                f"record/replay terminal bitwise equal: {replay_exact}")
    assert cost_err <= 1e-9
    assert replay_exact
