"""Dense 4-D latent tensors and the handful of numeric ops everything else builds on.

Layout is (frames, height, width, channels), float64, row-major. Tensors are
immutable: every operation returns a fresh instance and the backing numpy
array is marked read-only, which is what makes bitwise reproducibility claims
checkable at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DimensionError, DomainError

_AXIS_NAMES = ("frames", "height", "width", "channels")


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
        if not np.all(np.isfinite(arr)):
            raise DomainError("tensor contains non-finite values")
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        self._data = arr

    @property
    def data(self) -> np.ndarray:
        return self._data

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self._data.shape  # type: ignore[return-value]

    @property
    def frames(self) -> int:
        return self._data.shape[0]

    @property
    def height(self) -> int:
        return self._data.shape[1]

    @property
    def width(self) -> int:
        return self._data.shape[2]

    @property
    def channels(self) -> int:
        return self._data.shape[3]

    @property
    def cells(self) -> int:
        """Token count T*H*W (channels are features, not tokens)."""
        t, h, w, _ = self.shape
        return t * h * w

    def tobytes(self) -> bytes:
        return self._data.tobytes()

    def __repr__(self) -> str:
        return f"Tensor4(shape={self.shape})"

    @staticmethod
    def zeros(shape: tuple[int, int, int, int]) -> "Tensor4":
        return Tensor4(np.zeros(shape, dtype=np.float64))

    @staticmethod
    def full(shape: tuple[int, int, int, int], value: float) -> "Tensor4":
        return Tensor4(np.full(shape, float(value), dtype=np.float64))

    @staticmethod
    def from_flat(shape: tuple[int, int, int, int], values: Iterable[float]) -> "Tensor4":
        flat = np.asarray(list(values), dtype=np.float64)
        expected = shape[0] * shape[1] * shape[2] * shape[3]
        if flat.size != expected:
            raise DimensionError(f"flat data has {flat.size} values, shape {shape} needs {expected}")
        return Tensor4(flat.reshape(shape))


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


def _check_divisible(extent: int, factor: int, axis: str) -> None:
    if extent % factor != 0:
        raise DimensionError(f"axis {axis} of extent {extent} is not divisible by factor {factor}")


def avg_downsample(x: Tensor4, factors: DownsampleFactors) -> Tensor4:
    """Block-mean pooling by integer factors along frames/height/width.

    Channels are untouched. Factors of (1, 1, 1) return the input values
    bitwise unchanged; the global mean is preserved exactly up to rounding.
    """
    t, h, w, c = x.shape
    _check_divisible(t, factors.frames, "frames")
    _check_divisible(h, factors.height, "height")
    _check_divisible(w, factors.width, "width")
    if factors.as_tuple() == (1, 1, 1):
        return x
    blocked = x.data.reshape(
        t // factors.frames, factors.frames,
        h // factors.height, factors.height,
        w // factors.width, factors.width,
        c,
    )
    return Tensor4(blocked.mean(axis=(1, 3, 5)))


def l2_norm(x: Tensor4) -> float:
    """Euclidean norm over all cells, fixed summation order."""
    d = x.data
    return float(np.sqrt(np.sum(d * d)))


def mse(a: Tensor4, b: Tensor4) -> float:
    """Mean squared error over all cells; shapes must match exactly."""
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch {a.shape} vs {b.shape}")
    diff = a.data - b.data
    return float(np.mean(diff * diff))


def axpy(a: Tensor4, scale: float, b: Tensor4) -> Tensor4:
    """a + scale * b. scale == 0 returns a unchanged (bitwise)."""
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch {a.shape} vs {b.shape}")
    if scale == 0.0:
        return a
    return Tensor4(a.data + scale * b.data)
