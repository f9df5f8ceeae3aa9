"""Closed-form and synthetic predictors used to drive the sampler.

The analytic predictor treats every cell as an independent scalar Gaussian
mixture under the linear interpolation path x_t = (1 - t) * x0 + t * x1 with
x1 standard normal. Its velocity (x - E[x0 | x_t = x]) / t is exact, so
sampler and cache behavior can be tested without any trained network. The
block net is a small residual stack with fixed random weights that stands in
for a transformer when block-level caching is exercised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

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
    """Cellwise-independent scalar Gaussian mixture over a fixed latent shape."""

    shape: tuple[int, int, int, int]
    components: tuple[MixtureComponent, ...]

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

    def prior_mean_field(self, shape: tuple[int, int, int, int]) -> np.ndarray:
        out = np.zeros(shape, dtype=np.float64)
        for comp in self.components:
            out += comp.weight * _mean_field(comp, self.shape, shape)
        return out


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


def _check_time(t: float, *, allow_one: bool = True) -> None:
    if not (0.0 < t <= 1.0) or (not allow_one and t == 1.0):
        raise DomainError(f"time must lie in (0, 1], got {t}")


def mixture_responsibilities(spec: GaussianMixtureSpec, x: Tensor4, t: float) -> np.ndarray:
    """Posterior component probabilities per cell, shape (K,) + latent shape.

    Computed in log space with max subtraction so far tails stay normalized.
    """
    _check_time(t)
    xd = x.data
    one_minus_t = 1.0 - t
    logs = np.empty((len(spec.components),) + xd.shape, dtype=np.float64)
    for k, comp in enumerate(spec.components):
        mu = _mean_field(comp, spec.shape, x.shape)
        s2 = one_minus_t * one_minus_t * comp.var + t * t
        resid = xd - one_minus_t * mu
        logs[k] = np.log(comp.weight) - 0.5 * np.log(2.0 * np.pi * s2) - resid * resid / (2.0 * s2)
    logs -= logs.max(axis=0, keepdims=True)
    w = np.exp(logs)
    w /= w.sum(axis=0, keepdims=True)
    return w


def mixture_posterior_mean(spec: GaussianMixtureSpec, x: Tensor4, t: float) -> Tensor4:
    """E[x0 | x_t = x] per cell under the linear interpolation path."""
    _check_time(t)
    resp = mixture_responsibilities(spec, x, t)
    xd = x.data
    one_minus_t = 1.0 - t
    out = np.zeros_like(xd)
    for k, comp in enumerate(spec.components):
        mu = _mean_field(comp, spec.shape, x.shape)
        s2 = one_minus_t * one_minus_t * comp.var + t * t
        gain = one_minus_t * comp.var / s2
        out += resp[k] * (mu + gain * (xd - one_minus_t * mu))
    return Tensor4(out)


def mixture_velocity(spec: GaussianMixtureSpec, x: Tensor4, t: float) -> Tensor4:
    """Flow velocity (x - E[x0 | x_t = x]) / t; exact for the mixture."""
    _check_time(t)
    posterior = mixture_posterior_mean(spec, x, t)
    return Tensor4((x.data - posterior.data) / t)


class MixturePredictor:
    """Sampler-facing wrapper around the analytic mixture velocity."""

    def __init__(self, spec: GaussianMixtureSpec):
        self.spec = spec

    def evaluate(self, z: Tensor4, t: float) -> Tensor4:
        return mixture_velocity(self.spec, z, t)


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
        out, _ = toy_block_forward(self, z, t, capture=False)
        return out


class ConstantDeltaNet:
    """Block stack whose every block adds a fixed tensor, independent of input and t."""

    def __init__(self, deltas: Sequence[Tensor4]):
        self._deltas = list(deltas)
        if not self._deltas:
            raise DomainError("need at least one delta")
        shape = self._deltas[0].shape
        for i, d in enumerate(self._deltas):
            if d.shape != shape:
                raise DimensionError(f"delta {i} shape {d.shape} does not match {shape}")

    @property
    def num_blocks(self) -> int:
        return len(self._deltas)

    def apply_block(self, index: int, features: Tensor4, t: float) -> Tensor4:
        if not 0 <= index < len(self._deltas):
            raise DomainError(f"block index {index} outside [0, {len(self._deltas)})")
        return Tensor4(features.data + self._deltas[index].data)

    def evaluate(self, z: Tensor4, t: float) -> Tensor4:
        out, _ = toy_block_forward(self, z, t)
        return out


def toy_block_forward(
    net, z: Tensor4, t: float, capture: bool = False
) -> tuple[Tensor4, Optional[list[Tensor4]]]:
    """Fold the block stack over z; optionally return every intermediate.

    Capture is observation only: the computation path is identical with the
    flag on or off, so outputs match bitwise.
    """
    features = z
    intermediates: Optional[list[Tensor4]] = [] if capture else None
    for j in range(net.num_blocks):
        features = net.apply_block(j, features, t)
        if intermediates is not None:
            intermediates.append(features)
    return features, intermediates


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
