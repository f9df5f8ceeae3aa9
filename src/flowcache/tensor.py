"""Latent arrays, their one finiteness rule, and the handful of numeric ops on them.

Layout is (frames, height, width, channels), float64, row-major. The run path
passes bare arrays of that layout. require_finite rejects non-finite values and
marks an array read-only, which is what makes bitwise reproducibility claims
checkable at all; Tensor4, such an array wrapped, is what a run starts from
(seeded_normal) and ends with. avg_downsample, axpy and l2_norm only read x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError

_AXIS_NAMES = ("frames", "height", "width", "channels")


def require_finite(x: np.ndarray) -> np.ndarray:
    """Raise DomainError if x holds a non-finite value; otherwise mark x read-only and return it."""
    if not np.all(np.isfinite(x)):
        raise DomainError("tensor contains non-finite values")
    x.flags.writeable = False
    return x


class Tensor4:
    """Immutable (T, H, W, C) float64 tensor with finiteness enforced on construction."""

    __slots__ = ("_data",)

    def __init__(self, data: np.ndarray):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 4:
            raise DimensionError(f"expected 4 axes (frames, height, width, channels), got {arr.ndim}")
        for name, extent in zip(_AXIS_NAMES, arr.shape):
            if extent < 1:
                raise DimensionError(f"axis {name} must have extent >= 1, got {extent}")
        self._data = require_finite(np.ascontiguousarray(arr))

    @property
    def data(self) -> np.ndarray:
        return self._data

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self._data.shape  # type: ignore[return-value]

    @property
    def cells(self) -> int:
        """Token count T*H*W (channels are features, not tokens)."""
        t, h, w, _ = self.shape
        return t * h * w

    def tobytes(self) -> bytes:
        return self._data.tobytes()

    def __repr__(self) -> str:
        return f"Tensor4(shape={self.shape})"


def seeded_normal(shape: tuple[int, int, int, int], seed: int) -> Tensor4:
    """Standard-normal tensor drawn from an explicitly seeded generator."""
    rng = np.random.default_rng(seed)
    return Tensor4(rng.standard_normal(shape))


@dataclass(frozen=True)
class DownsampleFactors:
    """Integer block-mean pooling factors along (frames, height, width)."""

    frames: int
    height: int
    width: int

    def __post_init__(self):
        for name, value in (("frames", self.frames), ("height", self.height), ("width", self.width)):
            if not isinstance(value, int) or value < 1:
                raise DimensionError(f"downsample factor for axis {name} must be a positive integer, got {value!r}")

    @property
    def volume(self) -> int:
        return self.frames * self.height * self.width

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.frames, self.height, self.width)


def pooled_shape(shape: tuple[int, int, int, int], factors: DownsampleFactors) -> tuple[int, int, int, int]:
    """Shape avg_downsample gives a tensor of this shape; each factor must divide its axis."""
    for axis, extent, factor in zip(_AXIS_NAMES, shape, factors.as_tuple()):
        if extent % factor:
            raise DimensionError(f"axis {axis} of extent {extent} is not divisible by factor {factor}")
    t, h, w, c = shape
    return (t // factors.frames, h // factors.height, w // factors.width, c)


def avg_downsample(x: np.ndarray, factors: DownsampleFactors) -> np.ndarray:
    """Block-mean pooling of a (T, H, W, C) array by integer factors along frames/height/width.

    Channels are untouched. Factors of (1, 1, 1) return x itself; any other
    factors return a fresh writable array and only read x, which is not
    checked for finiteness. The global mean is preserved up to rounding.

    Summation order is fixed: each output value is the sequential sum of its
    block's members in lexicographic (frame, row, column) offset order,
    ((x_000 + x_001) + x_002) + ..., divided once by the block volume. The
    blocks are laid out as (volume, outputs) rows and summed along the rows,
    which numpy does one row at a time whenever there are at least two
    outputs; a single output is accumulated explicitly, because numpy would
    sum one contiguous column pairwise. Within a row the outputs are ordered
    (frame, row, column, channel), or (frame, row, channel, column) when the
    pooled width exceeds the channel count: the copy that lays out the rows
    then runs along the longer of the two axes, and one transpose of the
    pooled result restores channels last. The order within a row changes no
    sum. For C >= 2 this is bitwise the 6-D mean(axis=(1, 3, 5)) it
    replaces. For C = 1, and so also in the corner C = 1, H' = 1, that mean
    let numpy coalesce the reduced axes and sum part of each block pairwise,
    so the two may differ in the last bits.
    """
    pooled = pooled_shape(x.shape, factors)
    if factors.as_tuple() == (1, 1, 1):
        return x
    frames, height, width, channels = pooled
    blocked = x.reshape(frames, factors.frames, height, factors.height, width, factors.width, channels)
    width_last = width > channels
    order = (1, 3, 5, 0, 2, 6, 4) if width_last else (1, 3, 5, 0, 2, 4, 6)
    rows = np.ascontiguousarray(blocked.transpose(order)).reshape(factors.volume, -1)
    total = np.add.reduce(rows, 0) if rows.shape[1] > 1 else np.add.accumulate(rows, axis=0)[-1]
    total /= factors.volume
    if width_last:
        return np.ascontiguousarray(total.reshape(frames, height, channels, width).transpose(0, 1, 3, 2))
    return total.reshape(pooled)


def l2_norm(x: np.ndarray) -> float:
    """Euclidean norm over all cells, fixed summation order."""
    return float(np.sqrt(np.sum(x * x)))


def mse(a: Tensor4, b: Tensor4) -> float:
    """Mean squared error over all cells; shapes must match exactly."""
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch {a.shape} vs {b.shape}")
    diff = a.data - b.data
    return float(np.mean(diff * diff))


def axpy(a: np.ndarray, scale: float, b: np.ndarray) -> np.ndarray:
    """a + scale * b as a fresh array; a and b are only read and must match in shape.

    This is the package's one update rule: every Euler step, trial update,
    residual and block delta goes through it. scale == 1 and scale == -1 add
    or subtract b directly, with no scaled temporary; in IEEE 754 1 * b is b
    and a + (-b) is a - b, so the result is bitwise that of the general form.
    """
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch {a.shape} vs {b.shape}")
    if scale == 1.0:
        return a + b
    if scale == -1.0:
        return a - b
    return a + scale * b
