"""2-D frequency decomposition of latent tensors and band-limited difference norms.

Each (frame, channel) slice is transformed with a unitary 2-D DFT (forward and
inverse both scaled by 1/sqrt(H*W)), so Parseval holds with constant 1 and
band energies partition the spatial energy exactly. The low band is a centered
circular disk over signed frequency indices; everything else is the high band.
band_spectrum is the one forward transform: it cuts either band, and a band's
energy is spectrum_norm(band) ** 2. The high band is cut from fft2; the low
band is two small matrix products with the DFT rows of the frequency rows and
columns the mask occupies, which costs O((H + W) * r) in table memory for a
band of radius r and skips every bin the band leaves out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError
from .tensor import Tensor4


@dataclass(frozen=True)
class FrequencyMask:
    """Boolean low-band membership grid over an (H, W) frequency plane.

    row_dft (m, H) and column_dft (k, W) are the unitary DFT rows of the m
    frequency rows and k frequency columns holding at least one low bin, in
    ascending order, and band_membership (m, k) is membership restricted to
    them. All three are derived once on construction, read-only, for
    band_spectrum.
    """

    height: int
    width: int
    radius: float
    membership: np.ndarray = field(repr=False)
    row_dft: np.ndarray = field(init=False, repr=False, compare=False)
    column_dft: np.ndarray = field(init=False, repr=False, compare=False)
    band_membership: np.ndarray = field(init=False, repr=False, compare=False)

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
                  ("band_membership", np.ascontiguousarray(m[np.ix_(rows, columns)])))
        for name, arr in tables:
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def _dft_rows(freqs: np.ndarray, n: int) -> np.ndarray:
    """Rows of the unitary n-point DFT matrix for the given frequency indices.

    The phase f * j / n is reduced modulo n in integers before it is scaled,
    so every twiddle is exp(-2 pi i p / n) for an exact p in [0, n).
    """
    phase = np.outer(freqs, np.arange(n)) % n / n
    return np.exp(-2j * np.pi * phase) / np.sqrt(n)


def circular_mask(height: int, width: int, radius: float) -> FrequencyMask:
    """Centered circular mask: bin (u, v) is low iff its signed-index distance <= radius.

    Signed frequency indices follow the standard DFT convention: bins above
    the midpoint wrap to negative frequencies, so the disk is centered on DC.
    """
    if height < 1 or width < 1:
        raise DimensionError(f"mask grid must be at least 1x1, got {height}x{width}")
    fu = np.fft.fftfreq(height) * height
    fv = np.fft.fftfreq(width) * width
    dist = np.sqrt(fu[:, None] ** 2 + fv[None, :] ** 2)
    return FrequencyMask(height, width, float(radius), dist <= radius)


def _unitary_spectrum(x: Tensor4) -> np.ndarray:
    return np.fft.fft2(x.data, axes=(1, 2), norm="ortho")


def _require_mask_fit(shape: tuple[int, ...], mask: FrequencyMask) -> None:
    if shape[1:3] != (mask.height, mask.width):
        raise DimensionError(
            f"mask grid ({mask.height}, {mask.width}) does not match tensor plane {shape[1:3]}"
        )


def band_spectrum(x: Tensor4, mask: FrequencyMask, low: bool = True) -> np.ndarray:
    """Unitary spectrum of x restricted to one band: shape (frames, bins in the band, channels).

    Bins come in fft2's row-major plane order. The high band is cut from
    fft2; the low band is low_band_spectrum of x's array.
    """
    if low:
        return low_band_spectrum(x.data, mask)
    _require_mask_fit(x.shape, mask)
    return _unitary_spectrum(x)[:, ~mask.membership, :]


def low_band_spectrum(data: np.ndarray, mask: FrequencyMask) -> np.ndarray:
    """The low band of a (T, H, W, C) float64 array, the array core of band_spectrum.

    The mask's row DFT over height, then its column DFT over width, yields
    only the (m, k) sub-grid of rows and columns the band occupies; the
    band's bins are cut from that. They agree with fft2's to rounding, not
    bit for bit. data is only read, and it is not checked for finiteness.
    """
    _require_mask_fit(data.shape, mask)
    frames, height, width, channels = data.shape
    rows = mask.row_dft @ data.reshape(frames, height, width * channels)
    sub = mask.column_dft @ rows.reshape(-1, width, channels)
    return sub.reshape(frames, *mask.band_membership.shape, channels)[:, mask.band_membership, :]


def spectrum_norm(spectrum: np.ndarray) -> float:
    """L2 norm of a complex spectrum."""
    return float(np.sqrt(np.vdot(spectrum, spectrum).real))


def _band_diff_norm(a: Tensor4, b: Tensor4, mask: FrequencyMask, low: bool) -> float:
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch {a.shape} vs {b.shape}")
    return spectrum_norm(band_spectrum(a, mask, low) - band_spectrum(b, mask, low))


def lowfreq_diff(a: Tensor4, b: Tensor4, mask: FrequencyMask) -> float:
    """L2 norm of (spectrum(a) - spectrum(b)) restricted to the low band."""
    return _band_diff_norm(a, b, mask, low=True)


def highfreq_diff(a: Tensor4, b: Tensor4, mask: FrequencyMask) -> float:
    """L2 norm of (spectrum(a) - spectrum(b)) restricted to the high band."""
    return _band_diff_norm(a, b, mask, low=False)


def splice_bands(low_source: Tensor4, high_source: Tensor4, mask: FrequencyMask) -> Tensor4:
    """Recombine the low band of one tensor with the high band of another.

    The mask is symmetric under index negation, so the spliced spectrum of two
    real tensors stays Hermitian and the inverse transform is real up to
    rounding; the imaginary residue is discarded.
    """
    if low_source.shape != high_source.shape:
        raise DimensionError(f"shape mismatch {low_source.shape} vs {high_source.shape}")
    _require_mask_fit(low_source.shape, mask)
    m = mask.membership[None, :, :, None]
    spec = _unitary_spectrum(low_source) * m + _unitary_spectrum(high_source) * ~m
    return Tensor4(np.fft.ifft2(spec, axes=(1, 2), norm="ortho").real)
