"""Closed-form and synthetic predictors used to drive the sampler.

The analytic predictor treats every cell as an independent scalar Gaussian
mixture under the linear interpolation path x_t = (1 - t) * x0 + t * x1 with
x1 standard normal. Its velocity (x - E[x0 | x_t = x]) / t is exact, so
sampler and cache behavior can be tested without any trained network. The
block net is a small residual stack with fixed random weights that stands in
for a transformer when block-level caching is exercised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .errors import DimensionError, DomainError, TraceError
from .sampler import TimestepSchedule
from .tensor import DownsampleFactors, Tensor4, avg_downsample

MeanLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class MixtureComponent:
    """One mixture component: weight, mean (scalar, per-channel, or full field), variance."""

    weight: float
    mean: MeanLike
    var: float

    def __post_init__(self):
        if not self.weight > 0:
            raise DomainError(f"component weight must be > 0, got {self.weight}")
        if not self.var > 0:
            raise DomainError(f"component variance must be > 0, got {self.var}")
        if isinstance(self.mean, np.ndarray):
            m = np.asarray(self.mean, dtype=np.float64)
            if not np.all(np.isfinite(m)):
                raise DomainError("component mean field contains non-finite values")
            m = np.ascontiguousarray(m)
            m.flags.writeable = False
            object.__setattr__(self, "mean", m)


@dataclass(frozen=True)
class GaussianMixtureSpec:
    """Cellwise-independent scalar Gaussian mixture over a fixed latent shape.

    Component means are materialized once per evaluation shape into one
    read-only (K, *shape) stack whose row k is component k's mean at that
    shape (mean_stack). The memo holds one stack per shape for the life of
    the spec and takes no part in equality or repr.
    """

    shape: tuple[int, int, int, int]
    components: tuple[MixtureComponent, ...]
    _mean_memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if len(self.shape) != 4 or any(int(s) < 1 for s in self.shape):
            raise DimensionError(f"latent shape must be four positive extents, got {self.shape}")
        object.__setattr__(self, "shape", tuple(int(s) for s in self.shape))
        comps = tuple(self.components)
        if not comps:
            raise DomainError("mixture needs at least one component")
        object.__setattr__(self, "components", comps)
        total = sum(c.weight for c in comps)
        if abs(total - 1.0) > 1e-12:
            raise DomainError(f"component weights must sum to 1 within 1e-12, got {total}")
        c = self.shape[3]
        for i, comp in enumerate(comps):
            if isinstance(comp.mean, np.ndarray) and comp.mean.shape not in ((c,), self.shape):
                raise DimensionError(
                    f"component {i} mean shape {comp.mean.shape} must be ({c},) or the latent shape {self.shape}"
                )

    def mean_stack(self, shape: tuple[int, int, int, int]) -> np.ndarray:
        """Every component mean at an evaluation shape as one read-only (K, *shape) array."""
        shape = tuple(shape)
        stack = self._mean_memo.get(shape)
        if stack is None:
            stack = np.empty((len(self.components),) + shape, dtype=np.float64)
            for k, comp in enumerate(self.components):
                stack[k] = _mean_field(comp, self.shape, shape)
            stack.flags.writeable = False
            self._mean_memo[shape] = stack
        return stack


def _mean_field(comp: MixtureComponent, spec_shape: tuple[int, ...], eval_shape: tuple[int, ...]) -> np.ndarray:
    """Materialize a component mean at the requested evaluation shape.

    Full mean fields adapt to coarser evaluation grids by block-mean pooling,
    mirroring how the latent itself is downsampled for trial inference.
    """
    if not isinstance(comp.mean, np.ndarray):
        return np.full(eval_shape, float(comp.mean), dtype=np.float64)
    if comp.mean.shape == (spec_shape[3],):
        return np.broadcast_to(comp.mean, eval_shape).astype(np.float64, copy=False)
    if eval_shape == spec_shape:
        return comp.mean
    if eval_shape[3] != spec_shape[3]:
        raise DimensionError(f"axis channels mismatch: {eval_shape[3]} vs {spec_shape[3]}")
    factors = []
    for axis, name in ((0, "frames"), (1, "height"), (2, "width")):
        if spec_shape[axis] % eval_shape[axis] != 0:
            raise DimensionError(
                f"axis {name}: spec extent {spec_shape[axis]} not divisible by evaluation extent {eval_shape[axis]}"
            )
        factors.append(spec_shape[axis] // eval_shape[axis])
    pooled = avg_downsample(Tensor4(comp.mean), DownsampleFactors(*factors))
    return pooled.data


def _check_time(t: float) -> None:
    if not 0.0 < t <= 1.0:
        raise DomainError(f"time must lie in (0, 1], got {t}")


def _posterior_mean(spec: GaussianMixtureSpec, xd: np.ndarray, t: float) -> np.ndarray:
    """E[x0 | x_t = x] per cell as a fresh writable array; t must already be checked.

    One pass over the stacked means in two (K, *shape) buffers and the
    output. The first buffer holds the residual x - (1 - t) * mu_k; the
    second its log-density log w_k - 0.5 * log(2 pi s2_k) - resid^2 /
    (2 s2_k), normalized in log space with max subtraction so far tails stay
    normalized, which leaves the responsibilities; the output holds the max
    and then the normalizer. The residual then becomes resp_k * (mu_k +
    gain_k * resid), summed over components in order from +0.0. Every
    expression keeps the association of the per-component loop in
    tests/test_predictors.py, so the result is bitwise that loop's.
    """
    mu = spec.mean_stack(xd.shape)
    one_minus_t = 1.0 - t
    log_norm, two_s2, gain = [], [], []
    for comp in spec.components:
        s2 = one_minus_t * one_minus_t * comp.var + t * t
        log_norm.append(np.log(comp.weight) - 0.5 * np.log(2.0 * np.pi * s2))
        two_s2.append(2.0 * s2)
        gain.append(one_minus_t * comp.var / s2)
    per_component = (3, len(spec.components)) + (1,) * xd.ndim
    log_norm, two_s2, gain = np.array((log_norm, two_s2, gain)).reshape(per_component)
    resid = np.multiply(mu, one_minus_t)
    np.subtract(xd, resid, out=resid)
    resp = np.multiply(resid, resid)
    resp /= two_s2
    np.subtract(log_norm, resp, out=resp)
    out = np.empty_like(xd)
    resp -= np.maximum.reduce(resp, 0, None, out)
    np.exp(resp, out=resp)
    resp /= np.add.reduce(resp, 0, None, out)
    resid *= gain
    resid += mu
    resid *= resp
    # Not resid.sum(axis=0): numpy sums that axis pairwise when the latent
    # is one cell and there are eight or more components.
    out.fill(0.0)
    for term in resid:
        out += term
    return out


def mixture_posterior_mean(spec: GaussianMixtureSpec, x: Tensor4, t: float) -> Tensor4:
    """E[x0 | x_t = x] per cell under the linear interpolation path."""
    _check_time(t)
    return Tensor4(_posterior_mean(spec, x.data, t))


def _velocity(spec: GaussianMixtureSpec, xd: np.ndarray, t: float) -> np.ndarray:
    """(xd - E[x0 | x_t = xd]) / t as a fresh writable array; xd is only read."""
    _check_time(t)
    out = _posterior_mean(spec, xd, t)
    np.subtract(xd, out, out=out)
    out /= t
    return out


def mixture_velocity(spec: GaussianMixtureSpec, x: Tensor4, t: float) -> Tensor4:
    """Flow velocity (x - E[x0 | x_t = x]) / t; exact for the mixture."""
    return Tensor4(_velocity(spec, x.data, t))


class MixturePredictor:
    """Sampler-facing wrapper around the analytic mixture velocity.

    evaluate_array is the same velocity on a bare (T, H, W, C) float64
    array, returned as a fresh writable array with no finiteness check;
    the step cache's trial calls it on a latent buffer it owns.
    """

    def __init__(self, spec: GaussianMixtureSpec):
        self.spec = spec

    def evaluate(self, z: Tensor4, t: float) -> Tensor4:
        return mixture_velocity(self.spec, z, t)

    def evaluate_array(self, x: np.ndarray, t: float) -> np.ndarray:
        return _velocity(self.spec, x, t)


def _smooth_field(shape: tuple[int, int, int, int], rng: np.random.Generator, amplitude: float) -> np.ndarray:
    t_ext, h_ext, w_ext, c_ext = shape
    hh = np.arange(h_ext)[None, :, None, None] / h_ext
    ww = np.arange(w_ext)[None, None, :, None] / w_ext
    tt = np.arange(t_ext)[:, None, None, None] / max(t_ext, 1)
    out = np.zeros(shape, dtype=np.float64)
    for _ in range(3):
        kh = int(rng.integers(1, 3))
        kw = int(rng.integers(1, 3))
        phase = rng.uniform(0.0, 2.0 * np.pi)
        drift = rng.uniform(-0.5, 0.5)
        chan_phase = rng.uniform(0.0, 2.0 * np.pi, size=c_ext)
        out += np.cos(2.0 * np.pi * (kh * hh + kw * ww + drift * tt) + phase + chan_phase[None, None, None, :])
    rms = float(np.sqrt(np.mean(out * out)))
    return out * (amplitude / max(rms, 1e-12))


def _paired_frame_noise(shape: tuple[int, int, int, int], rng: np.random.Generator) -> np.ndarray:
    """White field repeated over adjacent frame pairs (frames 0 and 1 match, etc.)."""
    t_ext, h_ext, w_ext, c_ext = shape
    half = (t_ext + 1) // 2
    base = rng.standard_normal((half, h_ext, w_ext, c_ext))
    return np.repeat(base, 2, axis=0)[:t_ext]


def structured_mixture(
    shape: tuple[int, int, int, int],
    seed: int,
    components: int = 2,
    smooth_amp: float = 1.5,
    rough_amp: float = 1.2,
    var: float = 45.0,
) -> GaussianMixtureSpec:
    """Mixture whose per-cell modes straddle a smooth field by a white detail field.

    Component means come in pairs S + r*R and S - r*R: S is a sum of
    low-wavenumber cosines over the (H, W) plane with a slow per-frame drift,
    R is a white unit field held fixed over pairs of adjacent frames, and
    r = rough_amp. The detail separation is kept small next to the
    within-mode deviation sqrt(var), so each cell stays close to a single
    wide Gaussian: the prediction then moves almost linearly in the latent,
    which makes block-mean-pooled trial predictions track the
    full-resolution ones, and the large per-cell variance places the
    prediction's drift peak early, near t = s/(1 + s) with s the total
    variance, so drift decays over the run and early steps matter most. The
    frame-paired detail mimics the temporal redundancy of video latents:
    pooling two adjacent frames preserves the texture, while pooling more
    frames than the redundancy period averages it away.
    """
    if components < 1:
        raise DomainError(f"need at least one component, got {components}")
    t_ext, h_ext, w_ext, c_ext = shape
    rng = np.random.default_rng(seed)
    comps: list[MixtureComponent] = []
    remaining = components
    weight = 1.0 / components
    if remaining % 2 == 1:
        comps.append(MixtureComponent(weight, _smooth_field(shape, rng, smooth_amp), var))
        remaining -= 1
    for _ in range(remaining // 2):
        smooth = _smooth_field(shape, rng, smooth_amp)
        detail = rough_amp * _paired_frame_noise(shape, rng)
        comps.append(MixtureComponent(weight, smooth + detail, var))
        comps.append(MixtureComponent(weight, smooth - detail, var))
    return GaussianMixtureSpec(shape, tuple(comps))


class ToyBlockNet:
    """Residual stack of fixed random channel projections with bounded updates.

    Block j adds scale_j * gain_j(t) * tanh(F @ W_j + b_j); scales are drawn
    log-uniformly from [0.05, 1.0] so block importances are heterogeneous, and
    the time gain keeps every block's contribution moving across steps without
    ever vanishing. All parameters come from the seed; evaluation is pure.
    """

    def __init__(self, num_blocks: int, channels: int, seed: int):
        if num_blocks < 0:
            raise DomainError(f"block count must be >= 0, got {num_blocks}")
        if channels < 1:
            raise DimensionError(f"axis channels must have extent >= 1, got {channels}")
        self._num_blocks = int(num_blocks)
        self.channels = int(channels)
        self.seed = int(seed)
        rng = np.random.default_rng(seed)
        self._weights = []
        self._biases = []
        self._scales = []
        self._gain_freq = []
        self._gain_phase = []
        for _ in range(self._num_blocks):
            self._weights.append(rng.standard_normal((channels, channels)) / np.sqrt(channels))
            self._biases.append(0.1 * rng.standard_normal(channels))
            self._scales.append(float(np.exp(rng.uniform(np.log(0.05), np.log(1.0)))))
            self._gain_freq.append(float(rng.uniform(0.5, 1.5)))
            self._gain_phase.append(float(rng.uniform(0.0, 1.0)))

    @property
    def num_blocks(self) -> int:
        return self._num_blocks

    def _gain(self, index: int, t: float) -> float:
        return self._scales[index] * (0.75 + 0.25 * np.sin(2.0 * np.pi * (self._gain_freq[index] * t + self._gain_phase[index])))

    def apply_block(self, index: int, features: Tensor4, t: float) -> Tensor4:
        if not 0 <= index < self._num_blocks:
            raise DomainError(f"block index {index} outside [0, {self._num_blocks})")
        if features.channels != self.channels:
            raise DimensionError(f"axis channels mismatch: net has {self.channels}, input has {features.channels}")
        pre = features.data @ self._weights[index] + self._biases[index]
        return Tensor4(features.data + self._gain(index, t) * np.tanh(pre))

    def evaluate(self, z: Tensor4, t: float) -> Tensor4:
        return toy_block_forward(self, z, t)


def toy_block_forward(net, z: Tensor4, t: float) -> Tensor4:
    """Fold the block stack over z: the plain forward pass."""
    features = z
    for j in range(net.num_blocks):
        features = net.apply_block(j, features, t)
    return features


@dataclass(frozen=True)
class TraceRecord:
    """One recorded prediction: decreasing step index, its t, the tensor used."""

    step_index: int
    t: float
    prediction: Tensor4


@dataclass(frozen=True)
class TraceArchive:
    """Recorded predictions of a full run, ordered from index N-1 down to 0."""

    schedule: TimestepSchedule
    records: tuple[TraceRecord, ...]

    def __post_init__(self):
        records = tuple(self.records)
        object.__setattr__(self, "records", records)
        n = self.schedule.n_steps
        if len(records) != n:
            raise TraceError(f"archive holds {len(records)} records but schedule has {n} steps")
        shape = records[0].prediction.shape if records else None
        for pos, rec in enumerate(records):
            expected_index = n - 1 - pos
            if rec.step_index != expected_index:
                raise TraceError(
                    f"record {pos} has step index {rec.step_index}, expected {expected_index} (strictly decreasing)"
                )
            if rec.t != self.schedule.values[pos]:
                raise TraceError(f"record {pos} has t={rec.t!r}, schedule says {self.schedule.values[pos]!r}")
            if rec.prediction.shape != shape:
                raise TraceError(f"record {pos} shape {rec.prediction.shape} differs from {shape}")

    @staticmethod
    def from_run(schedule: TimestepSchedule, predictions: Sequence[Tensor4]) -> "TraceArchive":
        """Package per-step predictions (traversal order) into an archive."""
        n = schedule.n_steps
        if len(predictions) != n:
            raise TraceError(f"got {len(predictions)} predictions for a {n}-step schedule")
        records = tuple(
            TraceRecord(step_index=n - 1 - k, t=schedule.values[k], prediction=p)
            for k, p in enumerate(predictions)
        )
        return TraceArchive(schedule, records)


class TraceReplayPredictor:
    """Open-loop predictor that replays recorded predictions keyed by exact t."""

    open_loop = True

    def __init__(self, archive: TraceArchive):
        self.archive = archive
        self._by_t = {rec.t: rec for rec in archive.records}

    def evaluate(self, z: Tensor4, t: float) -> Tensor4:
        rec = self._by_t.get(t)
        if rec is None:
            raise TraceError(f"no recorded prediction for t={t!r}")
        return rec.prediction
