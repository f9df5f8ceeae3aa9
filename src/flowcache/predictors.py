"""Closed-form and synthetic predictors used to drive the sampler.

The analytic predictor treats every cell as an independent scalar Gaussian
mixture under the linear interpolation path x_t = (1 - t) * x0 + t * x1 with
x1 standard normal. Its velocity (x - E[x0 | x_t = x]) / t is exact, so
sampler and cache behavior can be tested without any trained network. The
block net is a small residual stack with fixed random weights that stands in
for a transformer when block-level caching is exercised.

A trace archive is a schedule plus one prediction per step, checked by
require_finite when its record is built; record k is the prediction used at
schedule.values[k], whether the archive was built in code or read from a file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DimensionError, DomainError, TraceError
from .sampler import TimestepSchedule
from .tensor import DownsampleFactors, avg_downsample, pooled_shape, require_finite


@dataclass(frozen=True, eq=False)
class GaussianMixtureSpec:
    """Cellwise-independent scalar Gaussian mixture over a fixed latent shape.

    Component k has weight weights[k], variance variances[k] and mean field
    means[k]: means is one read-only (K, *shape) float64 stack, the only copy
    of the component means. mean_stack pools it to coarser evaluation shapes
    and memoises one stack per shape for the life of the spec; the memo takes
    no part in equality or repr. Two specs are equal when shape, weights,
    variances and every mean value match. A spec is not hashable: hash()
    raises TypeError, as it does for the mean array it holds.
    """

    shape: tuple[int, int, int, int]
    weights: tuple[float, ...]
    variances: tuple[float, ...]
    means: np.ndarray
    _mean_memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if len(self.shape) != 4 or any(int(s) < 1 for s in self.shape):
            raise DimensionError(f"latent shape must be four positive extents, got {self.shape}")
        object.__setattr__(self, "shape", tuple(int(s) for s in self.shape))
        weights = tuple(float(w) for w in self.weights)
        variances = tuple(float(v) for v in self.variances)
        if not weights:
            raise DomainError("mixture needs at least one component")
        if len(variances) != len(weights):
            raise DimensionError(f"got {len(weights)} component weights but {len(variances)} variances")
        for k, (weight, var) in enumerate(zip(weights, variances)):
            if not weight > 0:
                raise DomainError(f"component {k} weight must be > 0, got {weight}")
            if not var > 0:
                raise DomainError(f"component {k} variance must be > 0, got {var}")
        total = sum(weights)
        if abs(total - 1.0) > 1e-12:
            raise DomainError(f"component weights must sum to 1 within 1e-12, got {total}")
        means = np.ascontiguousarray(self.means, dtype=np.float64)
        if means.shape != (len(weights),) + self.shape:
            raise DimensionError(f"mean stack shape {means.shape} must be (K,) + the latent shape, "
                                 f"{(len(weights),) + self.shape}")
        for k, mu in enumerate(means):
            if not np.isfinite(mu).all():
                raise DomainError(f"component {k} mean field contains non-finite values")
        means.flags.writeable = False
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "variances", variances)
        object.__setattr__(self, "means", means)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussianMixtureSpec):
            return NotImplemented
        return ((self.shape, self.weights, self.variances) == (other.shape, other.weights, other.variances)
                and np.array_equal(self.means, other.means))

    def mean_stack(self, shape: tuple[int, int, int, int]) -> np.ndarray:
        """Every component mean at an evaluation shape as one read-only (K, *shape) array.

        At the spec's shape this is means itself. A coarser shape gets every
        row block-mean pooled (avg_downsample), as the latent is for trial
        inference; it must be the spec's shape pooled by integer factors.
        """
        shape = tuple(shape)
        if shape == self.shape:
            return self.means
        stack = self._mean_memo.get(shape)
        if stack is None:
            factors = DownsampleFactors(*(full // part for full, part in zip(self.shape[:3], shape[:3])))
            if pooled_shape(self.shape, factors) != shape:
                raise DimensionError(f"latent shape {self.shape} does not pool to the evaluation shape {shape}")
            stack = np.empty((len(self.weights),) + shape, dtype=np.float64)
            for k, mu in enumerate(self.means):
                stack[k] = avg_downsample(mu, factors)
            stack.flags.writeable = False
            self._mean_memo[shape] = stack
        return stack


def _check_time(t: float) -> None:
    if not 0.0 < t <= 1.0:
        raise DomainError(f"time must lie in (0, 1], got {t}")


def mixture_posterior_mean(spec: GaussianMixtureSpec, x: np.ndarray, t: float) -> np.ndarray:
    """E[x0 | x_t = x] per cell under the linear interpolation path, as a fresh writable array; x is only read.

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
    _check_time(t)
    mu = spec.mean_stack(x.shape)
    one_minus_t = 1.0 - t
    log_norm, two_s2, gain = [], [], []
    for weight, var in zip(spec.weights, spec.variances):
        s2 = one_minus_t * one_minus_t * var + t * t
        log_norm.append(np.log(weight) - 0.5 * np.log(2.0 * np.pi * s2))
        two_s2.append(2.0 * s2)
        gain.append(one_minus_t * var / s2)
    per_component = (3, len(spec.weights)) + (1,) * x.ndim
    log_norm, two_s2, gain = np.array((log_norm, two_s2, gain)).reshape(per_component)
    resid = np.multiply(mu, one_minus_t)
    np.subtract(x, resid, out=resid)
    resp = np.multiply(resid, resid)
    resp /= two_s2
    np.subtract(log_norm, resp, out=resp)
    out = np.empty_like(x)
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


class MixturePredictor:
    """Sampler-facing wrapper around the analytic mixture velocity."""

    def __init__(self, spec: GaussianMixtureSpec):
        self.spec = spec

    def evaluate(self, x: np.ndarray, t: float) -> np.ndarray:
        """Flow velocity (x - E[x0 | x_t = x]) / t, exact for the mixture, as a fresh writable array."""
        out = mixture_posterior_mean(self.spec, x, t)
        np.subtract(x, out, out=out)
        out /= t
        return out


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
    rng = np.random.default_rng(seed)
    means = np.empty((components,) + tuple(shape), dtype=np.float64)
    if components % 2 == 1:
        means[0] = _smooth_field(shape, rng, smooth_amp)
    for k in range(components % 2, components, 2):
        smooth = _smooth_field(shape, rng, smooth_amp)
        detail = rough_amp * _paired_frame_noise(shape, rng)
        np.add(smooth, detail, out=means[k])
        np.subtract(smooth, detail, out=means[k + 1])
    return GaussianMixtureSpec(shape, (1.0 / components,) * components, (var,) * components, means)


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

    def apply_block(self, index: int, features: np.ndarray, t: float) -> np.ndarray:
        if not 0 <= index < self._num_blocks:
            raise DomainError(f"block index {index} outside [0, {self._num_blocks})")
        if features.shape[-1] != self.channels:
            raise DimensionError(f"axis channels mismatch: net has {self.channels}, input has {features.shape[-1]}")
        pre = features @ self._weights[index] + self._biases[index]
        return features + self._gain(index, t) * np.tanh(pre)

    def evaluate(self, x: np.ndarray, t: float) -> np.ndarray:
        return toy_block_forward(self, x, t)


def toy_block_forward(net, x: np.ndarray, t: float) -> np.ndarray:
    """Fold the block stack over x: the plain forward pass."""
    features = x
    for j in range(net.num_blocks):
        features = net.apply_block(j, features, t)
    return features


@dataclass(frozen=True, eq=False)
class TraceRecord:
    """One recorded prediction, passed through require_finite: finite and read-only once built."""

    prediction: np.ndarray

    def __post_init__(self):
        require_finite(self.prediction)


@dataclass(frozen=True)
class TraceArchive:
    """Recorded predictions of a full run: record k is the one used at schedule.values[k], step index N - 1 - k."""

    schedule: TimestepSchedule
    records: tuple[TraceRecord, ...]

    def __post_init__(self):
        records = tuple(self.records)
        object.__setattr__(self, "records", records)
        if len(records) != self.schedule.n_steps:
            raise TraceError(f"archive holds {len(records)} records but schedule has {self.schedule.n_steps} steps")
        shape = records[0].prediction.shape
        for pos, rec in enumerate(records):
            if rec.prediction.shape != shape:
                raise TraceError(f"record {pos} shape {rec.prediction.shape} differs from {shape}")

    @staticmethod
    def from_run(schedule: TimestepSchedule, predictions: Sequence[np.ndarray]) -> "TraceArchive":
        """Package per-step predictions (traversal order) into an archive."""
        return TraceArchive(schedule, tuple(TraceRecord(p) for p in predictions))


class TraceReplayPredictor:
    """Open-loop predictor that returns record k when asked for exactly t = schedule.values[k]."""

    open_loop = True

    def __init__(self, archive: TraceArchive):
        self._by_t = {t: rec.prediction for t, rec in zip(archive.schedule.values, archive.records)}

    def evaluate(self, x: np.ndarray, t: float) -> np.ndarray:
        prediction = self._by_t.get(t)
        if prediction is None:
            raise TraceError(f"no recorded prediction for t={t!r}")
        return prediction
