"""2-D frequency decomposition of latent arrays and band-limited difference norms.

Latents are bare (T, H, W, C) float64 arrays, and they are only ever read.
Each (frame, channel) slice is transformed with a unitary 2-D DFT (forward and
inverse both scaled by 1/sqrt(H*W)), so Parseval holds with constant 1 and
band energies partition the spatial energy exactly. The low band is a centered
circular disk over signed frequency indices; everything else is the high band.
band_spectrum is the one forward transform: it cuts either band, and a band's
energy is spectrum_norm(band) ** 2. The high band is cut from fft2; the low
band is two small matrix products with the DFT rows of the frequency rows and
columns the mask occupies, which costs O((H + W) * r) in table memory for a
band of radius r and skips every bin the band leaves out.

lowfreq_diff is the one band-difference rule: the step cache and the harness
both call it. On a small plane, such as a pooled trial plane of 4x4 or 8x8,
the mask also holds a dense real table of its band's DFT, and the drift is one
real matrix product with it: on so few values the two complex products and
the take of band_spectrum cost more in per-call overhead than in arithmetic.
The table has (2 * bins) x (H * W) entries, so it is built only up to
_BAND_DFT_MAX_ENTRIES; a larger plane keeps the separable cut, whose tables
grow with H + W rather than with H * W.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DimensionError, DomainError

#: How many (height, width, radius) masks circular_mask keeps.
_MASK_MEMO_SIZE = 8
#: Most float64 entries a mask's dense band_dft may hold (64 KiB); above it the mask has none.
_BAND_DFT_MAX_ENTRIES = 2**13


@dataclass(frozen=True)
class FrequencyMask:
    """Boolean low-band membership grid over an (H, W) frequency plane.

    row_dft (m, H) and column_dft (k, W) are the unitary DFT rows of the m
    frequency rows and k frequency columns holding at least one low bin, in
    ascending order, and band_index holds the flat row-major indices of the
    low bins on that (m, k) sub-grid, ascending. All three are derived once on
    construction, read-only, for band_spectrum.

    band_dft (2 * bins, H * W) is the unitary 2-D DFT of a flattened plane at
    each low bin, in row-major bin order: the real parts, then the imaginary
    parts. It is float64, read-only, and None when it would hold more than
    _BAND_DFT_MAX_ENTRIES entries: dense in the plane, it grows with H * W per
    bin, about 32 MiB on a 64x64 plane at the default radius. lowfreq_diff
    uses it.
    """

    height: int
    width: int
    radius: float
    membership: np.ndarray = field(repr=False)
    row_dft: np.ndarray = field(init=False, repr=False, compare=False)
    column_dft: np.ndarray = field(init=False, repr=False, compare=False)
    band_index: np.ndarray = field(init=False, repr=False, compare=False)
    band_dft: Optional[np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.height < 1 or self.width < 1:
            raise DimensionError(f"mask grid must be at least 1x1, got {self.height}x{self.width}")
        if self.radius < 0:
            raise DomainError(f"mask radius must be >= 0, got {self.radius}")
        m = np.asarray(self.membership, dtype=bool)
        if m.shape != (self.height, self.width):
            raise DimensionError(f"membership grid {m.shape} does not match ({self.height}, {self.width})")
        m = np.ascontiguousarray(m)
        rows, columns = np.flatnonzero(m.any(axis=1)), np.flatnonzero(m.any(axis=0))
        tables = (("membership", m), ("row_dft", _dft_rows(rows, self.height)),
                  ("column_dft", _dft_rows(columns, self.width)),
                  ("band_index", np.flatnonzero(m[np.ix_(rows, columns)])),
                  ("band_dft", _band_dft(m)))
        for name, arr in tables:
            if arr is not None:
                arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def _dft_rows(freqs: np.ndarray, n: int) -> np.ndarray:
    """Rows of the unitary n-point DFT matrix for the given frequency indices.

    The phase f * j / n is reduced modulo n in integers before it is scaled,
    so every twiddle is exp(-2 pi i p / n) for an exact p in [0, n).
    """
    phase = np.outer(freqs, np.arange(n)) % n / n
    return np.exp(-2j * np.pi * phase) / np.sqrt(n)


def _band_dft(membership: np.ndarray) -> Optional[np.ndarray]:
    """FrequencyMask.band_dft of a membership grid, or None above _BAND_DFT_MAX_ENTRIES."""
    height, width = membership.shape
    bin_rows, bin_columns = np.nonzero(membership)
    if 2 * bin_rows.size * height * width > _BAND_DFT_MAX_ENTRIES:
        return None
    dense = _dft_rows(bin_rows, height)[:, :, None] * _dft_rows(bin_columns, width)[:, None, :]
    dense = dense.reshape(bin_rows.size, height * width)
    return np.concatenate((dense.real, dense.imag))


@functools.lru_cache(maxsize=_MASK_MEMO_SIZE)
def circular_mask(height: int, width: int, radius: float) -> FrequencyMask:
    """Centered circular mask: bin (u, v) is low iff its signed-index distance <= radius.

    Signed frequency indices follow the standard DFT convention: bins above
    the midpoint wrap to negative frequencies, so the disk is centered on DC.
    Memoised: equal arguments return the one read-only mask and DFT tables,
    so a process builds each table once.
    """
    if height < 1 or width < 1:
        raise DimensionError(f"mask grid must be at least 1x1, got {height}x{width}")
    fu = np.fft.fftfreq(height) * height
    fv = np.fft.fftfreq(width) * width
    dist = np.sqrt(fu[:, None] ** 2 + fv[None, :] ** 2)
    return FrequencyMask(height, width, float(radius), dist <= radius)


def _unitary_spectrum(data: np.ndarray) -> np.ndarray:
    return np.fft.fft2(data, axes=(1, 2), norm="ortho")


def _require_mask_fit(shape: tuple[int, ...], mask: FrequencyMask) -> None:
    if shape[1:3] != (mask.height, mask.width):
        raise DimensionError(
            f"mask grid ({mask.height}, {mask.width}) does not match tensor plane {shape[1:3]}"
        )


def band_spectrum(data: np.ndarray, mask: FrequencyMask, low: bool = True) -> np.ndarray:
    """Unitary spectrum of a (T, H, W, C) float64 array restricted to one band.

    The result has shape (frames, bins in the band, channels), bins in
    fft2's row-major plane order. The high band is cut from fft2. The low
    band is the mask's row DFT over height, then its column DFT over width,
    which yields only the (m, k) sub-grid of rows and columns the band
    occupies; its bins are taken from that at band_index and agree with
    fft2's to rounding, not bit for bit. data is only read, and it is not
    checked for finiteness.
    """
    _require_mask_fit(data.shape, mask)
    if not low:
        return _unitary_spectrum(data)[:, ~mask.membership, :]
    frames, height, width, channels = data.shape
    rows = mask.row_dft @ data.reshape(frames, height, width * channels)
    sub = mask.column_dft @ rows.reshape(-1, width, channels)
    return sub.reshape(frames, -1, channels).take(mask.band_index, axis=1)


def spectrum_norm(spectrum: np.ndarray) -> float:
    """L2 norm of a band: complex bins, or their real and imaginary parts as real values."""
    return math.sqrt(np.vdot(spectrum, spectrum).real)


def _band_cut(data: np.ndarray, mask: FrequencyMask, low: bool) -> np.ndarray:
    """The band of one (T, H, W, C) array whose norm a band-difference rule takes.

    With a dense table the low band is band_dft times each flattened plane,
    shape (frames, 2 * bins, channels), real: its norm is the complex bins'
    to rounding, and no complex array is built. Otherwise it is band_spectrum.
    The caller has checked data's plane against the mask.
    """
    if low and mask.band_dft is not None:
        frames, height, width, channels = data.shape
        return mask.band_dft @ data.reshape(frames, height * width, channels)
    return band_spectrum(data, mask, low)


def lowfreq_diff(a: np.ndarray, b: np.ndarray, mask: FrequencyMask) -> float:
    """L2 norm of the low band of a - b, arrays of one shape: the step cache's drift."""
    if a.shape != b.shape:
        raise DimensionError(f"array of shape {a.shape} does not match {b.shape}")
    _require_mask_fit(a.shape, mask)
    return spectrum_norm(_band_cut(a - b, mask, True))


def highfreq_diff(a: np.ndarray, b: np.ndarray, mask: FrequencyMask) -> float:
    """L2 norm of the high band of a - b, arrays of one shape."""
    if a.shape != b.shape:
        raise DimensionError(f"array of shape {a.shape} does not match {b.shape}")
    _require_mask_fit(a.shape, mask)
    return spectrum_norm(_band_cut(a - b, mask, False))


def splice_bands(low_source: np.ndarray, high_source: np.ndarray, mask: FrequencyMask) -> np.ndarray:
    """A new array holding the low band of one array and the high band of another.

    The mask is symmetric under index negation, so the spliced spectrum of two
    real arrays stays Hermitian and the inverse transform is real up to
    rounding; the imaginary residue is discarded. The result is not checked
    for finiteness.
    """
    if low_source.shape != high_source.shape:
        raise DimensionError(f"array of shape {low_source.shape} does not match {high_source.shape}")
    _require_mask_fit(low_source.shape, mask)
    m = mask.membership[None, :, :, None]
    spec = _unitary_spectrum(low_source) * m + _unitary_spectrum(high_source) * ~m
    return np.ascontiguousarray(np.fft.ifft2(spec, axes=(1, 2), norm="ortho").real)
