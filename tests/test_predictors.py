"""Analytic mixture predictor, toy block nets, and trace archives."""

import json
from pathlib import Path

import numpy as np
import pytest

from flowcache.errors import DimensionError, DomainError, TraceError
from flowcache.predictors import (
    ConstantDeltaNet,
    GaussianMixtureSpec,
    MixtureComponent,
    MixturePredictor,
    ToyBlockNet,
    TraceArchive,
    TraceRecord,
    TraceReplayPredictor,
    mixture_posterior_mean,
    mixture_responsibilities,
    mixture_velocity,
    structured_mixture,
    toy_block_forward,
)
from flowcache.sampler import make_schedule, sample_baseline
from flowcache.tensor import Tensor4, seeded_normal

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
    x = seeded_normal(shape, seed=6)
    post = mixture_posterior_mean(spec, x, 1.0)
    assert np.allclose(post.data, spec.prior_mean_field(shape), atol=1e-12)


def test_single_component_posterior_closed_form():
    """One Gaussian component reduces to the textbook linear estimator."""
    shape = (1, 2, 2, 1)
    mu, var = 1.3, 2.5
    spec = GaussianMixtureSpec(shape, (MixtureComponent(1.0, mu, var),))
    x = Tensor4.full(shape, 0.7)
    for t in (0.9, 0.5, 0.1):
        s2 = (1 - t) ** 2 * var + t**2
        expected = mu + (1 - t) * var / s2 * (0.7 - (1 - t) * mu)
        post = mixture_posterior_mean(spec, x, t)
        assert np.allclose(post.data, expected, rtol=1e-12)


def test_velocity_definition():
    shape = (1, 2, 2, 1)
    spec = structured_mixture(shape, seed=2)
    x = seeded_normal(shape, seed=3)
    t = 0.4
    v = mixture_velocity(spec, x, t)
    post = mixture_posterior_mean(spec, x, t)
    assert np.allclose(v.data, (x.data - post.data) / t, rtol=1e-15)


def test_time_domain_is_validated():
    shape = (1, 2, 2, 1)
    spec = structured_mixture(shape, seed=0)
    x = Tensor4.zeros(shape)
    for bad in (0.0, -0.1, 1.1):
        with pytest.raises(DomainError):
            mixture_velocity(spec, x, bad)


def test_velocity_is_continuous_in_t():
    """|v(x, t) - v(x, t + 1e-6)| <= 1e-3 * (1 + |v|) for t >= 0.05."""
    shape = (2, 4, 4, 2)
    spec = structured_mixture(shape, seed=8)
    rng = np.random.default_rng(9)
    for trial in range(20):
        x = Tensor4(2.0 * rng.standard_normal(shape))
        t = float(rng.uniform(0.05, 1.0 - 1e-6))
        v0 = mixture_velocity(spec, x, t).data
        v1 = mixture_velocity(spec, x, t + 1e-6).data
        assert np.max(np.abs(v1 - v0)) <= 1e-3 * (1.0 + np.max(np.abs(v0)))


def test_posterior_mean_against_monte_carlo_smoke():
    """Cheap 3-point version of the Monte-Carlo oracle (full run in acceptance)."""
    shape = (2, 4, 4, 2)
    spec = structured_mixture(shape, seed=11)
    weights = [c.weight for c in spec.components]
    rng = np.random.default_rng(12)
    for trial in range(3):
        t = float(rng.uniform(0.2, 0.9))
        x = Tensor4(2.0 * rng.standard_normal(shape))
        cell = tuple(rng.integers(0, s) for s in shape)
        means = [
            c.mean[cell] if isinstance(c.mean, np.ndarray) else float(c.mean)
            for c in spec.components
        ]
        mc, se = sample_cell_posterior_mc(weights, means, spec.components[0].var,
                                          float(x.data[cell]), t, n_samples=200_000,
                                          seed=100 + trial)
        analytic = float(mixture_posterior_mean(spec, x, t).data[cell])
        assert abs(analytic - mc) <= 4.0 * se


def test_mixture_weights_must_sum_to_one():
    with pytest.raises(DomainError):
        GaussianMixtureSpec((1, 2, 2, 1), (MixtureComponent(0.6, 0.0, 1.0),))


def test_structured_mixture_is_seed_deterministic():
    a = structured_mixture((2, 4, 4, 2), seed=3)
    b = structured_mixture((2, 4, 4, 2), seed=3)
    c = structured_mixture((2, 4, 4, 2), seed=4)
    for ca, cb in zip(a.components, b.components):
        assert np.array_equal(ca.mean, cb.mean)
    assert not all(np.array_equal(ca.mean, cc.mean) for ca, cc in zip(a.components, c.components))


def test_structured_mixture_detail_is_frame_paired():
    """Adjacent frame pairs share the detail field that separates paired components."""
    spec = structured_mixture((4, 8, 8, 2), seed=7, components=2)
    a, b = spec.components
    detail = (a.mean - b.mean) / 2.0
    assert np.allclose(detail[0], detail[1], atol=1e-12)
    assert np.allclose(detail[2], detail[3], atol=1e-12)
    assert np.max(np.abs(detail[1] - detail[2])) > 0.1


def test_toy_block_net_zero_blocks_is_identity():
    net = ToyBlockNet(0, channels=2, seed=0)
    z = seeded_normal((1, 4, 4, 2), seed=1)
    out, intermediates = toy_block_forward(net, z, 0.5, capture=True)
    assert np.array_equal(out.data, z.data)
    assert intermediates == []


def test_toy_block_capture_does_not_change_output():
    net = ToyBlockNet(5, channels=3, seed=2)
    z = seeded_normal((2, 4, 4, 3), seed=3)
    plain, none = toy_block_forward(net, z, 0.7, capture=False)
    captured, intermediates = toy_block_forward(net, z, 0.7, capture=True)
    assert none is None
    assert np.array_equal(plain.data, captured.data)
    assert len(intermediates) == 5
    assert np.array_equal(intermediates[-1].data, captured.data)


def test_toy_block_deltas_match_golden_file():
    """Per-block delta norms are recorded once and must stay stable forever."""
    net = ToyBlockNet(6, channels=2, seed=42)
    z = seeded_normal((2, 4, 4, 2), seed=43)
    _, intermediates = toy_block_forward(net, z, 0.5, capture=True)
    previous = z
    norms = []
    for feat in intermediates:
        norms.append(float(np.sqrt(np.sum((feat.data - previous.data) ** 2))))
        previous = feat
    assert all(n > 0 for n in norms)

    GOLDEN_DIR.mkdir(exist_ok=True)
    golden_path = GOLDEN_DIR / "toy_block_deltas.json"
    if not golden_path.exists():
        golden_path.write_text(json.dumps(norms, indent=2) + "\n")
    recorded = json.loads(golden_path.read_text())
    assert norms == recorded


def test_toy_block_channel_mismatch():
    net = ToyBlockNet(2, channels=3, seed=0)
    with pytest.raises(DimensionError):
        net.apply_block(0, Tensor4.zeros((1, 2, 2, 2)), 0.5)


def test_constant_delta_net_adds_fixed_tensors():
    shape = (1, 2, 2, 1)
    deltas = [Tensor4.full(shape, 1.0), Tensor4.full(shape, -0.5)]
    net = ConstantDeltaNet(deltas)
    z = Tensor4.full(shape, 2.0)
    out = net.evaluate(z, 0.3)
    assert np.all(out.data == 2.5)
    assert net.num_blocks == 2


def test_trace_archive_round_trip_and_bounds():
    shape = (1, 2, 2, 1)
    sched = make_schedule(50)
    preds = [Tensor4.full(shape, float(k)) for k in range(50)]
    arch = TraceArchive.from_run(sched, preds)
    replay = TraceReplayPredictor(arch)
    z = Tensor4.zeros(shape)
    for k in range(50):
        assert arch.records[k].step_index == 49 - k
        assert np.array_equal(replay.evaluate(z, sched.values[k]).data, preds[k].data)
    with pytest.raises(TraceError):
        replay.evaluate(z, sched.terminal)
    with pytest.raises(TraceError):
        replay.evaluate(z, 1.5)


def test_trace_archive_validates_record_count():
    sched = make_schedule(3)
    preds = [Tensor4.zeros((1, 2, 2, 1))] * 2
    with pytest.raises(TraceError):
        TraceArchive.from_run(sched, preds)


def test_trace_archive_validates_index_order():
    sched = make_schedule(2)
    shape = (1, 2, 2, 1)
    records = (
        TraceRecord(0, sched.values[0], Tensor4.zeros(shape)),
        TraceRecord(1, sched.values[1], Tensor4.zeros(shape)),
    )
    with pytest.raises(TraceError):
        TraceArchive(sched, records)


def test_replay_predictor_marks_run_open_loop():
    shape = (1, 4, 4, 1)
    spec = structured_mixture(shape, seed=1)
    pred = MixturePredictor(spec)
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
    preds = [Tensor4.zeros((1, 2, 2, 1))] * 3
    replay = TraceReplayPredictor(TraceArchive.from_run(sched, preds))
    with pytest.raises(TraceError):
        replay.evaluate(Tensor4.zeros((1, 2, 2, 1)), 0.123)
