"""Analytic mixture predictor, toy block nets, and trace archives."""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from flowcache import predictors
from flowcache.cli import run_command
from flowcache.errors import DimensionError, DomainError, TraceError
from flowcache.predictors import (
    MixturePredictor,
    ToyBlockNet,
    TraceArchive,
    TraceRecord,
    TraceReplayPredictor,
    mixture_posterior_mean,
    structured_mixture,
    toy_block_forward,
)
from flowcache.engine import StepCacheConfig, sample_cached
from flowcache.sampler import make_schedule, sample_baseline
from flowcache.tensor import DownsampleFactors, Tensor4, avg_downsample, seeded_normal

from nets import ConstantDeltaNet

GOLDEN_DIR = Path(__file__).parent / "data"


def sample_cell_posterior_mc(weights, means, var, x, t, n_samples, seed, batches=50):
    """Monte-Carlo E[x0 | x_t = x] for one scalar cell, with a batch-means SE.

    Draws x0 from the prior mixture and weights each draw by the likelihood of
    the observed x_t, which is Gaussian with mean (1 - t) * x0 and variance
    t^2. Returns (estimate, standard error).
    """
    rng = np.random.default_rng(seed)
    weights = np.asarray(weights, dtype=np.float64)
    means = np.asarray(means, dtype=np.float64)
    comp = rng.choice(len(weights), size=n_samples, p=weights)
    x0 = means[comp] + np.sqrt(var) * rng.standard_normal(n_samples)
    implied_noise = (x - (1.0 - t) * x0) / t
    logw = -0.5 * implied_noise**2
    logw -= logw.max()
    w = np.exp(logw)
    per_batch = n_samples // batches
    estimates = []
    for b in range(batches):
        sl = slice(b * per_batch, (b + 1) * per_batch)
        estimates.append(float(np.sum(w[sl] * x0[sl]) / np.sum(w[sl])))
    estimates = np.asarray(estimates)
    return float(estimates.mean()), float(estimates.std(ddof=1) / np.sqrt(batches))


def mixture_responsibilities(spec, x, t):
    """Oracle: posterior component probabilities per cell, one component at a time.

    The per-component loop the fused kernel replaced, kept as its bitwise
    reference; shape (K,) + latent shape.
    """
    xd = x.data
    one_minus_t = 1.0 - t
    logs = np.empty((len(spec.weights),) + xd.shape, dtype=np.float64)
    for k, (weight, var, mu) in enumerate(zip(spec.weights, spec.variances, spec.mean_stack(x.shape))):
        s2 = one_minus_t * one_minus_t * var + t * t
        resid = xd - one_minus_t * mu
        logs[k] = np.log(weight) - 0.5 * np.log(2.0 * np.pi * s2) - resid * resid / (2.0 * s2)
    logs -= logs.max(axis=0, keepdims=True)
    w = np.exp(logs)
    w /= w.sum(axis=0, keepdims=True)
    return w


def reference_posterior_mean(spec, x, t):
    """Oracle: E[x0 | x_t = x] summed one component at a time from +0.0."""
    resp = mixture_responsibilities(spec, x, t)
    xd = x.data
    one_minus_t = 1.0 - t
    out = np.zeros_like(xd)
    for k, (var, mu) in enumerate(zip(spec.variances, spec.mean_stack(x.shape))):
        s2 = one_minus_t * one_minus_t * var + t * t
        gain = one_minus_t * var / s2
        out += resp[k] * (mu + gain * (xd - one_minus_t * mu))
    return out


def _oracle_grid_specs():
    """Mixtures with 1-4 components of every mean kind, at C = 1 and C = 4.

    A scalar or per-channel mean is broadcast to a full field.
    """
    rng = np.random.default_rng(20)
    for channels in (1, 4):
        shape = (2, 8, 8, channels)
        for k in range(1, 5):
            for kind in ("scalar", "channel", "field", "mixed"):
                means = np.empty((k,) + shape)
                weights = rng.uniform(0.2, 1.0, size=k)
                weights /= weights.sum()
                weights[-1] = 1.0 - weights[:-1].sum()
                variances = []
                for j in range(k):
                    mean_kind = ("scalar", "channel", "field")[j % 3] if kind == "mixed" else kind
                    if mean_kind == "scalar":
                        means[j] = np.full(shape, float(3.0 * rng.standard_normal()))
                    elif mean_kind == "channel":
                        means[j] = np.broadcast_to(3.0 * rng.standard_normal(channels), shape)
                    else:
                        means[j] = 3.0 * rng.standard_normal(shape)
                    variances.append(float(rng.uniform(0.2, 50.0)))
                yield MixturePredictor(shape, tuple(weights), tuple(variances), means)


def assert_velocity_is_the_posterior_velocity(spec, x, t, posterior):
    """MixturePredictor.evaluate: (x - posterior) / t bitwise, as a fresh writable array, its input unchanged."""
    latent = x.data.copy()
    velocity = spec.evaluate(latent, t)
    assert velocity.tobytes() == ((x.data - posterior) / t).tobytes()
    assert velocity.flags.writeable and not np.shares_memory(velocity, latent)
    assert latent.flags.writeable and latent.tobytes() == x.tobytes()


def test_fused_kernel_is_bitwise_equal_to_the_per_component_oracle():
    """Full and pooled (trial-shape) evaluations, near and far-tail latents, t from 1 to 1e-3.

    Each mixture runs every case twice: the second pass reads every
    coefficient table from the memo the first pass filled.
    """
    rng = np.random.default_rng(21)
    cases = 0
    for spec in _oracle_grid_specs():
        t_ext, h_ext, w_ext, c_ext = spec.shape
        for _ in range(2):
            for eval_shape in (spec.shape, (t_ext // 2, h_ext // 4, w_ext // 4, c_ext)):
                for scale in (3.0, 1e3):
                    x = Tensor4(scale * rng.standard_normal(eval_shape))
                    for t in (1.0, 0.5, 1e-3):
                        expected = reference_posterior_mean(spec, x, t)
                        assert mixture_posterior_mean(spec, x.data, t).tobytes() == expected.tobytes()
                        assert_velocity_is_the_posterior_velocity(spec, x, t, expected)
                        cases += 1
        assert list(spec._coefficient_memo) == [1.0, 0.5, 1e-3]
    assert cases == 2 * 4 * 4 * 2 * 2 * 2 * 3
    # With eight or more components on a one-cell latent numpy sums axis 0
    # pairwise, not in component order.
    weights = np.full(9, 1.0 / 9)
    weights[-1] = 1.0 - weights[:-1].sum()
    spec = MixturePredictor((1, 1, 1, 1), tuple(weights), (1.0,) * 9, np.linspace(-40.0, 40.0, 9).reshape(9, 1, 1, 1, 1))
    for value in np.linspace(-50.0, 50.0, 41):
        x = Tensor4(np.full((1, 1, 1, 1), value))
        expected = reference_posterior_mean(spec, x, 0.5)
        assert mixture_posterior_mean(spec, x.data, 0.5).tobytes() == expected.tobytes()
        assert_velocity_is_the_posterior_velocity(spec, x, 0.5, expected)


def test_mean_stack_is_memoised_and_matches_a_fresh_materialization():
    shape = (4, 8, 8, 2)
    means = np.stack([np.full(shape, 0.5), np.broadcast_to(np.array([1.0, -1.0]), shape),
                      seeded_normal(shape, seed=4).data])
    spec = MixturePredictor(shape, (0.25, 0.25, 0.5), (1.0, 2.0, 3.0), means)
    assert spec.mean_stack(shape) is spec.means and not spec.means.flags.writeable
    assert spec.means.tobytes() == means.tobytes() and spec.means.flags.c_contiguous
    for eval_shape in ((2, 2, 2, 2), (4, 4, 8, 2)):
        stack = spec.mean_stack(eval_shape)
        assert spec.mean_stack(eval_shape) is stack
        assert stack.shape == (3,) + eval_shape and not stack.flags.writeable
        factors = DownsampleFactors(*(a // b for a, b in zip(shape[:3], eval_shape[:3])))
        for row, mu in zip(means, stack):
            assert mu.tobytes() == avg_downsample(row, factors).tobytes()
            assert not mu.flags.writeable


@pytest.mark.parametrize("eval_shape", [(4, 8, 8, 1), (3, 8, 8, 2), (4, 3, 8, 2), (8, 8, 8, 2)])
def test_mean_stack_rejects_a_shape_the_means_do_not_pool_to(eval_shape):
    spec = structured_mixture((4, 8, 8, 2), seed=5)
    with pytest.raises(DimensionError):
        spec.mean_stack(eval_shape)


def test_the_spec_holds_its_means_once():
    """The full-shape stack is the spec's own means; only the pooled stack is added to them."""
    shape, trial_shape = (8, 64, 64, 4), (4, 16, 16, 4)
    structured_mixture((2, 4, 4, 4), seed=7).mean_stack((1, 1, 1, 4))  # one-time imports stay out of the count
    tracemalloc.start()
    try:
        spec = structured_mixture(shape, seed=7)
        assert spec.mean_stack(shape) is spec.means and not spec.means.flags.writeable
        pooled = spec.mean_stack(trial_shape)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept <= spec.means.nbytes + pooled.nbytes + 64 * 1024


def test_mean_memo_stays_out_of_equality_and_repr():
    spec = structured_mixture((4, 8, 8, 2), seed=5)
    twin = MixturePredictor(spec.shape, spec.weights, spec.variances, spec.means)
    before = repr(spec)
    spec.mean_stack((2, 2, 2, 2))
    assert spec == twin
    assert repr(spec) == before == repr(twin)
    assert "mean_memo" not in before


def test_coefficient_memo_stays_out_of_equality_and_repr():
    spec = structured_mixture((4, 8, 8, 2), seed=5)
    twin = MixturePredictor(spec.shape, spec.weights, spec.variances, spec.means)
    before = repr(spec)
    spec.evaluate(np.zeros(spec.shape), 0.5)
    assert spec._coefficient_memo and not twin._coefficient_memo
    assert spec == twin
    assert repr(spec) == before == repr(twin)
    assert "coefficient_memo" not in before


def test_coefficient_table_is_the_read_only_per_component_terms():
    spec = MixturePredictor((1, 1, 1, 1), (0.25, 0.75), (2.0, 5.0), np.zeros((2, 1, 1, 1, 1)))
    t = 0.3
    log_norm, two_s2, gain = spec.coefficients(t)
    for k, (weight, var) in enumerate(zip(spec.weights, spec.variances)):
        s2 = (1.0 - t) * (1.0 - t) * var + t * t
        assert log_norm[k, 0] == np.log(weight) - 0.5 * np.log(2.0 * np.pi * s2)
        assert two_s2[k, 0] == 2.0 * s2
        assert gain[k, 0] == (1.0 - t) * var / s2
    for row in (log_norm, two_s2, gain):
        assert row.shape == (2, 1) and not row.flags.writeable
    assert log_norm.base is two_s2.base is gain.base
    assert log_norm.base.shape == (3, 2) and not log_norm.base.flags.writeable


def test_one_time_shares_one_coefficient_table_across_evaluation_shapes(monkeypatch):
    """A trial-shape and a full-shape evaluation at one t build one table; a repeated run builds none."""
    spec = structured_mixture((4, 8, 8, 2), seed=5)
    spec.evaluate(np.zeros(spec.shape), 0.5)
    table = spec.coefficients(0.5)
    spec.evaluate(np.zeros((2, 2, 2, 2)), 0.5)
    assert spec.coefficients(0.5) is table
    assert list(spec._coefficient_memo) == [0.5]

    builds = []
    check = predictors._check_time
    monkeypatch.setattr(predictors, "_check_time", lambda t: (builds.append(t), check(t)))
    schedule = make_schedule(12)
    fresh = structured_mixture((4, 8, 8, 2), seed=5)
    z0 = seeded_normal(fresh.shape, seed=1)
    first, _ = sample_cached(fresh, z0, schedule, StepCacheConfig(downsample=DownsampleFactors(2, 4, 4)))
    assert builds == list(schedule.values[:-1])
    assert list(fresh._coefficient_memo) == builds
    again, _ = sample_cached(fresh, z0, schedule, StepCacheConfig(downsample=DownsampleFactors(2, 4, 4)))
    sample_baseline(fresh, z0, schedule)
    assert len(builds) == schedule.n_steps
    assert again.tobytes() == first.tobytes()


def test_the_coefficient_memo_is_bounded_and_drops_its_oldest_table_first():
    spec = MixturePredictor((1, 1, 1, 1), (1.0,), (1.0,), np.zeros((1, 1, 1, 1, 1)))
    size = predictors._COEFFICIENT_MEMO_SIZE
    times = [(i + 1) / (size + 5) for i in range(size + 5)]
    for t in times:
        spec.coefficients(t)
    assert list(spec._coefficient_memo) == times[5:]
    kept = spec.coefficients(times[5])
    assert spec.coefficients(times[5]) is kept
    spec.coefficients(times[0])
    assert len(spec._coefficient_memo) == size and times[5] not in spec._coefficient_memo


def test_mixture_specs_compare_by_value_and_are_unhashable():
    a, b = structured_mixture((2, 4, 4, 2), 3), structured_mixture((2, 4, 4, 2), 3)
    c = structured_mixture((2, 4, 4, 2), 4)
    assert a == b and not a != b
    assert a != c and not a == c
    assert a != MixturePredictor(a.shape, a.weights, (1.0, 1.0), a.means)
    assert a != "spec"
    with pytest.raises(TypeError):
        hash(a)


@pytest.mark.parametrize("weights, variances, means, error, match", [
    ((), (), np.empty((0, 1, 2, 2, 1)), DomainError, "at least one component"),
    ((0.5, 0.5), (1.0,), np.zeros((2, 1, 2, 2, 1)), DimensionError, "2 component weights but 1 variances"),
    ((1.5, -0.5), (1.0, 1.0), np.zeros((2, 1, 2, 2, 1)), DomainError, "component 1 weight must be > 0"),
    ((0.5, 0.5), (1.0, 0.0), np.zeros((2, 1, 2, 2, 1)), DomainError, "component 1 variance must be > 0"),
    ((0.5, 0.5), (1.0, 1.0), np.zeros((2, 1, 2, 2, 2)), DimensionError, "mean stack shape"),
    ((0.5, 0.5), (1.0, 1.0), np.zeros((1, 1, 2, 2, 1)), DimensionError, "mean stack shape"),
    ((0.5, 0.5), (1.0, 1.0), np.array([np.zeros((1, 2, 2, 1)), np.full((1, 2, 2, 1), np.nan)]), DomainError,
     "component 1 mean field contains non-finite values"),
])
def test_mixture_spec_validation_names_the_component(weights, variances, means, error, match):
    with pytest.raises(error, match=match):
        MixturePredictor((1, 2, 2, 1), weights, variances, means)


def test_responsibilities_sum_to_one():
    shape = (2, 4, 4, 2)
    spec = structured_mixture(shape, seed=0, components=3)
    rng = np.random.default_rng(1)
    for t in (1.0, 0.6, 0.05):
        x = Tensor4(3.0 * rng.standard_normal(shape))
        resp = mixture_responsibilities(spec, x, t)
        assert np.max(np.abs(resp.sum(axis=0) - 1.0)) <= 1e-12
        assert np.all(resp >= 0)


def test_posterior_mean_at_t_one_is_prior_mean():
    """At t = 1 the latent carries no information about x0."""
    shape = (1, 4, 4, 2)
    spec = structured_mixture(shape, seed=5)
    x = seeded_normal(shape, seed=6).data
    post = mixture_posterior_mean(spec, x, 1.0)
    prior_mean = sum(weight * mu for weight, mu in zip(spec.weights, spec.mean_stack(shape)))
    assert np.allclose(post, prior_mean, atol=1e-12)


def test_single_component_posterior_closed_form():
    """One Gaussian component reduces to the textbook linear estimator."""
    shape = (1, 2, 2, 1)
    mu, var = 1.3, 2.5
    spec = MixturePredictor(shape, (1.0,), (var,), np.full((1,) + shape, mu))
    x = np.full(shape, 0.7)
    for t in (0.9, 0.5, 0.1):
        s2 = (1 - t) ** 2 * var + t**2
        expected = mu + (1 - t) * var / s2 * (0.7 - (1 - t) * mu)
        post = mixture_posterior_mean(spec, x, t)
        assert np.allclose(post, expected, rtol=1e-12)


def test_velocity_definition():
    shape = (1, 2, 2, 1)
    spec = structured_mixture(shape, seed=2)
    x = seeded_normal(shape, seed=3).data
    t = 0.4
    v = spec.evaluate(x, t)
    post = mixture_posterior_mean(spec, x, t)
    assert np.allclose(v, (x - post) / t, rtol=1e-15)


def test_time_domain_is_validated():
    shape = (1, 2, 2, 1)
    spec = structured_mixture(shape, seed=0)
    x = np.zeros(shape)
    for bad in (0.0, -0.1, 1.1):
        for evaluate in (spec.evaluate, lambda x, t: mixture_posterior_mean(spec, x, t)):
            with pytest.raises(DomainError, match=rf"time must lie in \(0, 1\], got {bad}"):
                evaluate(x, bad)


def test_one_evaluation_checks_time_once(monkeypatch):
    calls = []
    check = predictors._check_time
    monkeypatch.setattr(predictors, "_check_time", lambda t: (calls.append(t), check(t)))
    shape = (1, 2, 2, 1)
    structured_mixture(shape, seed=0).evaluate(np.zeros(shape), 0.5)
    assert calls == [0.5]


def test_velocity_is_continuous_in_t():
    """|v(x, t) - v(x, t + 1e-6)| <= 1e-3 * (1 + |v|) for t >= 0.05."""
    shape = (2, 4, 4, 2)
    pred = structured_mixture(shape, seed=8)
    rng = np.random.default_rng(9)
    for trial in range(20):
        x = 2.0 * rng.standard_normal(shape)
        t = float(rng.uniform(0.05, 1.0 - 1e-6))
        v0 = pred.evaluate(x, t)
        v1 = pred.evaluate(x, t + 1e-6)
        assert np.max(np.abs(v1 - v0)) <= 1e-3 * (1.0 + np.max(np.abs(v0)))


def test_posterior_mean_against_monte_carlo_smoke():
    """Cheap 3-point version of the Monte-Carlo oracle (full run in acceptance)."""
    shape = (2, 4, 4, 2)
    spec = structured_mixture(shape, seed=11)
    rng = np.random.default_rng(12)
    for trial in range(3):
        t = float(rng.uniform(0.2, 0.9))
        x = Tensor4(2.0 * rng.standard_normal(shape))
        cell = tuple(rng.integers(0, s) for s in shape)
        means = spec.means[(slice(None),) + cell]
        mc, se = sample_cell_posterior_mc(spec.weights, means, spec.variances[0],
                                          float(x.data[cell]), t, n_samples=200_000,
                                          seed=100 + trial)
        analytic = float(mixture_posterior_mean(spec, x.data, t)[cell])
        assert abs(analytic - mc) <= 4.0 * se


def test_mixture_weights_must_sum_to_one():
    with pytest.raises(DomainError):
        MixturePredictor((1, 2, 2, 1), (0.6,), (1.0,), np.zeros((1, 1, 2, 2, 1)))
    with pytest.raises(DimensionError, match=r"latent shape must be four positive extents, got \(2, 2, 1\)"):
        MixturePredictor((2, 2, 1), (1.0,), (1.0,), np.zeros((1, 2, 2, 1)))
    with pytest.raises(DomainError, match="need at least one component, got 0"):
        structured_mixture((1, 2, 2, 1), seed=0, components=0)


def test_structured_mixture_is_seed_deterministic():
    a = structured_mixture((2, 4, 4, 2), seed=3)
    b = structured_mixture((2, 4, 4, 2), seed=3)
    c = structured_mixture((2, 4, 4, 2), seed=4)
    assert a.means.tobytes() == b.means.tobytes()
    assert not np.array_equal(a.means, c.means)


def test_structured_mixture_detail_is_frame_paired():
    """Adjacent frame pairs share the detail field that separates paired components."""
    spec = structured_mixture((4, 8, 8, 2), seed=7, components=2)
    a, b = spec.means
    detail = (a - b) / 2.0
    assert np.allclose(detail[0], detail[1], atol=1e-12)
    assert np.allclose(detail[2], detail[3], atol=1e-12)
    assert np.max(np.abs(detail[1] - detail[2])) > 0.1


def test_toy_block_net_zero_blocks_is_identity():
    net = ToyBlockNet(0, channels=2, seed=0)
    z = seeded_normal((1, 4, 4, 2), seed=1).data
    assert np.array_equal(toy_block_forward(net, z, 0.5), z)


def test_toy_block_deltas_match_golden_file():
    """Per-block delta norms were recorded once, are checked in, and must stay stable forever."""
    golden_path = GOLDEN_DIR / "toy_block_deltas.json"
    assert golden_path.exists(), f"golden file {golden_path} is missing; it is checked in, never regenerated"
    net = ToyBlockNet(6, channels=2, seed=42)
    features = seeded_normal((2, 4, 4, 2), seed=43).data
    norms = []
    for j in range(net.num_blocks):
        nxt = net.apply_block(j, features, 0.5)
        norms.append(float(np.sqrt(np.sum((nxt - features) ** 2))))
        features = nxt
    assert all(n > 0 for n in norms)
    assert norms == json.loads(golden_path.read_text())


RUN_CHECKSUMS = json.loads((GOLDEN_DIR / "run_checksums.json").read_text())


@pytest.mark.parametrize("case", RUN_CHECKSUMS, ids=[case["name"] for case in RUN_CHECKSUMS])
def test_generate_matches_golden_run_checksums(tmp_path, case):
    """generate's terminal checksum, decision sequence and cost units were recorded once per config and must never
    move; the costs compare as exact floats."""
    config, out = tmp_path / "run.cfg", tmp_path / "report.json"
    config.write_text("\n".join(case["config"]) + "\n", encoding="utf-8")
    assert run_command(["generate", "--config", str(config), "--out", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["terminal_checksum"] == case["terminal_checksum"]
    assert [row["decision"] for row in payload["report"]["steps"]] == case["decisions"]
    for key in ("cost_units", "trial_cost_units", "baseline_cost_units"):
        assert repr(payload["report"][key]) == repr(case[key]), key


def test_toy_block_channel_mismatch():
    net = ToyBlockNet(2, channels=3, seed=0)
    with pytest.raises(DimensionError):
        net.apply_block(0, np.zeros((1, 2, 2, 2)), 0.5)
    with pytest.raises(DomainError, match=r"block index 2 outside \[0, 2\)"):
        net.apply_block(2, np.zeros((1, 2, 2, 3)), 0.5)
    with pytest.raises(DomainError, match="block count must be >= 0, got -1"):
        ToyBlockNet(-1, 2, 0)
    with pytest.raises(DimensionError, match="axis channels must have extent >= 1, got 0"):
        ToyBlockNet(2, 0, 0)


def test_constant_delta_net_adds_fixed_tensors():
    shape = (1, 2, 2, 1)
    deltas = [Tensor4(np.full(shape, 1.0)), Tensor4(np.full(shape, -0.5))]
    net = ConstantDeltaNet(deltas)
    out = net.evaluate(np.full(shape, 2.0), 0.3)
    assert np.all(out == 2.5)
    assert net.num_blocks == 2


def test_trace_archive_round_trip_and_bounds():
    shape = (1, 2, 2, 1)
    sched = make_schedule(50)
    preds = [np.full(shape, float(k)) for k in range(50)]
    arch = TraceArchive.from_run(sched, preds)
    replay = TraceReplayPredictor(arch)
    z = np.zeros(shape)
    for k in range(50):
        assert replay.evaluate(z, sched.values[k]) is arch.records[k].prediction is preds[k]
    with pytest.raises(TraceError):
        replay.evaluate(z, sched.values[-1])
    with pytest.raises(TraceError):
        replay.evaluate(z, 1.5)


def test_trace_archive_validates_record_count():
    sched = make_schedule(3)
    preds = [np.zeros((1, 2, 2, 1))] * 2
    with pytest.raises(TraceError):
        TraceArchive.from_run(sched, preds)
    records = tuple(TraceRecord(preds[0]) for _ in range(2))
    with pytest.raises(TraceError, match="archive holds 2 records but schedule has 3 steps"):
        TraceArchive(sched, records)


def test_trace_archive_validates_index_order():
    """A record's index and t are its position, so only the shapes are left to check."""
    sched = make_schedule(2)
    records = (TraceRecord(np.zeros((1, 2, 2, 1))), TraceRecord(np.zeros((1, 2, 4, 1))))
    with pytest.raises(TraceError, match=r"record 1 shape \(1, 2, 4, 1\) differs from \(1, 2, 2, 1\)"):
        TraceArchive(sched, records)


def test_an_archive_built_in_code_holds_read_only_records():
    preds = [np.zeros((1, 2, 2, 1)), np.ones((1, 2, 2, 1))]
    arch = TraceArchive.from_run(make_schedule(2), preds)
    assert all(rec.prediction is p and not p.flags.writeable for rec, p in zip(arch.records, preds))


def test_replay_predictor_marks_run_open_loop():
    shape = (1, 4, 4, 1)
    pred = structured_mixture(shape, seed=1)
    sched = make_schedule(6)
    z0 = seeded_normal(shape, seed=2)
    preds = []
    terminal, live_report = sample_baseline(pred, z0, sched,
                                            observer=lambda k, t, z, f: preds.append(f))
    arch = TraceArchive.from_run(sched, preds)
    replayed, report = sample_baseline(TraceReplayPredictor(arch), z0, sched)
    assert report.open_loop
    assert not live_report.open_loop
    assert np.array_equal(replayed.data, terminal.data)


def test_replay_predictor_rejects_unknown_time():
    sched = make_schedule(3)
    preds = [np.zeros((1, 2, 2, 1))] * 3
    replay = TraceReplayPredictor(TraceArchive.from_run(sched, preds))
    with pytest.raises(TraceError):
        replay.evaluate(np.zeros((1, 2, 2, 1)), 0.123)


@pytest.mark.parametrize("kind", ["mixture", "toy-block", "trace-replay"])
def test_evaluate_reads_a_writable_input_and_returns_its_shape(kind):
    """evaluate never writes or freezes its input, and its output has the input's shape."""
    shape = (2, 8, 8, 2)
    sched = make_schedule(4)
    if kind == "mixture":
        pred = structured_mixture(shape, seed=1)
    elif kind == "toy-block":
        pred = ToyBlockNet(3, channels=2, seed=1)
    else:
        pred = TraceReplayPredictor(TraceArchive.from_run(sched, [seeded_normal(shape, seed=k).data for k in range(4)]))
    x = seeded_normal(shape, seed=9).data.copy()
    before = x.tobytes()
    for t in sched.values[:-1]:
        out = pred.evaluate(x, t)
        assert out.shape == x.shape
        assert x.flags.writeable and x.tobytes() == before
