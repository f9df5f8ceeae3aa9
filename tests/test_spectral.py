"""Frequency-band machinery against a direct-DFT oracle.

The oracle below evaluates the 2-D DFT as an explicit double sum, O(N^2) per
output bin, so it is slow but independent of any FFT library choices. It
checks band_spectrum, the transform the step cache runs: the low and high
bands are scattered back onto the (H, W) plane through the mask.
"""

import inspect

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowcache import spectral
from flowcache.errors import DimensionError, DomainError
from flowcache.spectral import (
    FrequencyMask,
    band_spectrum,
    circular_mask,
    highfreq_diff,
    lowfreq_diff,
    spectrum_norm,
    splice_bands,
)
from flowcache.tensor import Tensor4, l2_norm, axpy


def direct_dft2(plane: np.ndarray) -> np.ndarray:
    """Unitary 2-D DFT of one (H, W) slice by explicit summation."""
    h, w = plane.shape
    out = np.zeros((h, w), dtype=np.complex128)
    for u in range(h):
        for v in range(w):
            acc = 0.0 + 0.0j
            for m in range(h):
                for n in range(w):
                    acc += plane[m, n] * np.exp(-2j * np.pi * (u * m / h + v * n / w))
            out[u, v] = acc / np.sqrt(h * w)
    return out


def band_plane(x: Tensor4, mask: FrequencyMask) -> np.ndarray:
    """band_spectrum's low and high bands scattered back onto the full (frames, H, W, channels) spectrum."""
    plane = np.zeros(x.shape, dtype=np.complex128)
    plane[:, mask.membership, :] = band_spectrum(x.data, mask)
    plane[:, ~mask.membership, :] = band_spectrum(x.data, mask, low=False)
    return plane


@pytest.mark.parametrize("height,width", [(4, 4), (20, 20), (12, 18), (5, 7)])
def test_split_matches_direct_dft_oracle(height, width):
    rng = np.random.default_rng(height * 100 + width)
    x = Tensor4(rng.standard_normal((1, height, width, 1)))
    full = band_plane(x, circular_mask(height, width, 0.2 * min(height, width)))[0, :, :, 0]
    oracle = direct_dft2(x.data[0, :, :, 0])
    assert np.max(np.abs(full - oracle)) <= 1e-9 * max(1.0, np.max(np.abs(oracle)))


def test_split_matches_oracle_on_many_random_slices():
    """50 random small slices, including odd extents."""
    rng = np.random.default_rng(99)
    sizes = [(4, 4), (3, 5), (8, 6), (6, 9), (12, 18)]
    for trial in range(50):
        h, w = sizes[trial % len(sizes)]
        x = Tensor4(rng.standard_normal((1, h, w, 1)))
        full = band_plane(x, circular_mask(h, w, 0.2 * min(h, w)))[0, :, :, 0]
        oracle = direct_dft2(x.data[0, :, :, 0])
        scale = max(1.0, float(np.max(np.abs(oracle))))
        assert np.max(np.abs(full - oracle)) <= 1e-9 * scale


def test_parseval_band_partition():
    """raw^2 = lfd^2 + hfd^2 for 100 random pairs under the unitary transform."""
    rng = np.random.default_rng(5)
    for _ in range(100):
        a = rng.standard_normal((2, 8, 10, 2))
        b = rng.standard_normal((2, 8, 10, 2))
        mask = circular_mask(8, 10, 1.6)
        raw = l2_norm(axpy(a, -1.0, b)) ** 2
        split = lowfreq_diff(a, b, mask) ** 2 + highfreq_diff(a, b, mask) ** 2
        assert split == pytest.approx(raw, rel=1e-9)


def test_mask_one_by_one_keeps_only_dc():
    mask = circular_mask(1, 1, 0.2)
    assert np.count_nonzero(mask.membership) == 1
    assert bool(mask.membership[0, 0])


def test_circular_mask_is_symmetric_under_negation():
    mask = circular_mask(8, 12, 3.0)
    m = mask.membership
    for u in range(8):
        for v in range(12):
            assert m[u, v] == m[(-u) % 8, (-v) % 12]


def test_circular_mask_validates():
    with pytest.raises(DomainError):
        circular_mask(4, 4, -1.0)
    with pytest.raises(DimensionError):
        circular_mask(0, 4, 1.0)
    with pytest.raises(DomainError, match="mask radius must be >= 0, got -1"):
        FrequencyMask(2, 2, -1, np.ones((2, 2), dtype=bool))
    with pytest.raises(DimensionError, match=r"membership grid \(2, 3\) does not match \(2, 2\)"):
        FrequencyMask(2, 2, 1.0, np.ones((2, 3), dtype=bool))


def test_constant_slice_has_dc_only():
    x = np.full((1, 8, 8, 1), 3.25)
    mask = circular_mask(8, 8, 1.6)
    assert spectrum_norm(band_spectrum(x, mask, low=False)) ** 2 == pytest.approx(0.0, abs=1e-18)
    assert spectrum_norm(band_spectrum(x, mask)) ** 2 == pytest.approx(l2_norm(x) ** 2, rel=1e-12)


def test_nyquist_checkerboard_has_no_low_energy():
    h = w = 8
    grid = np.indices((h, w)).sum(axis=0)
    checker = np.where(grid % 2 == 0, 1.0, -1.0)[None, :, :, None]
    x, mask = Tensor4(checker), circular_mask(h, w, 0.2 * min(h, w))
    assert spectrum_norm(band_spectrum(x.data, mask)) ** 2 == pytest.approx(0.0, abs=1e-18)
    assert spectrum_norm(band_spectrum(x.data, mask, low=False)) ** 2 == pytest.approx(float(h * w), rel=1e-12)


def test_split_shape_guard():
    x = Tensor4(np.zeros((1, 8, 8, 1)))
    for low in (True, False):
        with pytest.raises(DimensionError):
            band_spectrum(x.data, circular_mask(4, 4, 0.8), low)
    transposed = np.zeros((1, 4, 8, 1))
    assert circular_mask(8, 4, 0.8).band_dft is not None
    for rule in (lowfreq_diff, highfreq_diff):
        with pytest.raises(DimensionError, match=r"mask grid \(8, 4\) does not match tensor plane \(4, 8\)"):
            rule(transposed, transposed, circular_mask(8, 4, 0.8))


def test_diff_of_identical_tensors_is_zero():
    x = Tensor4(np.random.default_rng(0).standard_normal((1, 6, 6, 2)))
    mask = circular_mask(6, 6, 1.2)
    assert lowfreq_diff(x.data, x.data, mask) == 0.0
    assert highfreq_diff(x.data, x.data, mask) == 0.0


@pytest.mark.parametrize("rule", [lowfreq_diff, highfreq_diff, splice_bands])
def test_band_rules_refuse_arrays_whose_frame_counts_differ_and_only_read(rule):
    """A 1-frame array would broadcast against a 2-frame one; every two-array rule refuses it and writes neither."""
    rng = np.random.default_rng(4)
    one, two = rng.standard_normal((1, 16, 16, 2)), rng.standard_normal((2, 16, 16, 2))
    saved = one.tobytes(), two.tobytes()
    one.flags.writeable = two.flags.writeable = False
    mask = circular_mask(16, 16, 3.2)
    for a, b in ((one, two), (two, one)):
        with pytest.raises(DimensionError, match="does not match"):
            rule(a, b, mask)
    rule(two, two[::-1], mask)
    assert (one.tobytes(), two.tobytes()) == saved


def test_splice_bands_identity_when_both_sources_match():
    x = Tensor4(np.random.default_rng(1).standard_normal((2, 8, 8, 1)))
    mask = circular_mask(8, 8, 1.6)
    out = splice_bands(x.data, x.data, mask)
    assert np.allclose(out, x.data, atol=1e-12)


def test_splice_bands_takes_low_from_first_high_from_second():
    rng = np.random.default_rng(2)
    a = Tensor4(rng.standard_normal((1, 8, 8, 1)))
    b = Tensor4(rng.standard_normal((1, 8, 8, 1)))
    mask = circular_mask(8, 8, 1.6)
    out = splice_bands(a.data, b.data, mask)
    assert lowfreq_diff(out, a.data, mask) == pytest.approx(0.0, abs=1e-12)
    assert highfreq_diff(out, b.data, mask) == pytest.approx(0.0, abs=1e-12)


def test_splice_bands_output_is_real_for_real_inputs():
    rng = np.random.default_rng(3)
    a = Tensor4(rng.standard_normal((1, 7, 9, 2)))
    b = Tensor4(rng.standard_normal((1, 7, 9, 2)))
    out = splice_bands(a.data, b.data, circular_mask(7, 9, 1.4))
    assert np.all(np.isfinite(out))


def test_mask_membership_is_read_only():
    mask = circular_mask(8, 8, 1.6)
    with pytest.raises(ValueError):
        mask.membership[0, 0] = False


def test_mask_dft_tables_are_the_band_rows_and_columns_read_only():
    mask = circular_mask(6, 10, 2.5)
    rows = [u for u in range(6) if mask.membership[u, :].any()]
    cols = [v for v in range(10) if mask.membership[:, v].any()]

    def dft(freqs, n):
        return np.exp(-2j * np.pi * np.outer(freqs, np.arange(n)) / n) / np.sqrt(n)

    assert np.allclose(mask.row_dft, dft(rows, 6), rtol=0, atol=1e-14)
    assert np.allclose(mask.column_dft, dft(cols, 10), rtol=0, atol=1e-14)
    assert mask.band_index.tolist() == np.flatnonzero(mask.membership[np.ix_(rows, cols)]).tolist()
    bins = [(u, v) for u in range(6) for v in range(10) if mask.membership[u, v]]
    dense = np.array([np.outer(dft([u], 6)[0], dft([v], 10)[0]).ravel() for u, v in bins])
    assert mask.band_dft.shape == (2 * len(bins), 60)
    assert np.allclose(mask.band_dft, np.concatenate((dense.real, dense.imag)), rtol=0, atol=1e-14)
    for table in (mask.row_dft, mask.column_dft, mask.band_index, mask.band_dft):
        assert not table.flags.writeable


def test_circular_mask_is_memoised_on_its_arguments_and_stays_read_only():
    mask = circular_mask(6, 10, 2.5)
    assert circular_mask(6, 10, 2.5) is mask
    for table in (mask.membership, mask.row_dft, mask.column_dft, mask.band_index, mask.band_dft):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[(0,) * table.ndim] = 0
    other = circular_mask(6, 10, 1.5)
    assert other is not mask and other.radius == 1.5
    assert np.count_nonzero(other.membership) < np.count_nonzero(mask.membership)


def test_the_mask_memo_bound_is_a_small_private_constant():
    assert list(inspect.signature(circular_mask).parameters) == ["height", "width", "radius"]
    assert circular_mask.cache_info().maxsize == spectral._MASK_MEMO_SIZE <= 16


def test_default_mask_dft_tables_stay_small_on_a_256_plane():
    """At the default radius 0.2 * 256 the tables are separable, O((H + W) * r); a dense (bins x H*W) basis would take about 8.6 GB."""
    mask = circular_mask(256, 256, 51.2)
    assert mask.row_dft.nbytes + mask.column_dft.nbytes + mask.band_index.nbytes < 2 * 2**20


def test_a_mask_carries_a_dense_band_table_up_to_its_cap_and_none_above():
    """2 * bins * H * W entries: 16 bins of a 16x16 plane, or all 64 of an 8x8 one, sit exactly at the cap."""
    cap = spectral._BAND_DFT_MAX_ENTRIES
    assert cap * 8 == 64 * 2**10
    at_cap = circular_mask(8, 8, 8.0)
    assert np.all(at_cap.membership) and at_cap.band_dft.size == cap
    for bins, carries in ((cap // (2 * 256), True), (cap // (2 * 256) + 1, False)):
        membership = np.arange(256).reshape(16, 16) < bins
        assert (FrequencyMask(16, 16, 0.0, membership).band_dft is not None) == carries


@pytest.mark.parametrize("side,carries", [(4, True), (8, True), (16, False), (64, False), (256, False)])
def test_at_the_default_radius_only_small_trial_planes_carry_a_dense_band_table(side, carries):
    """The README and trace-replay trial planes (4x4, 8x8) take the dense table; the large ones keep the separable cut."""
    assert (circular_mask(side, side, 0.2 * side).band_dft is not None) == carries


def boolean_band_cut(data: np.ndarray, mask: FrequencyMask) -> np.ndarray:
    """The earlier low-band cut: the (m, k) sub-grid's membership as a boolean index."""
    frames, height, width, channels = data.shape
    grid_membership = mask.membership[np.ix_(mask.membership.any(axis=1), mask.membership.any(axis=0))]
    rows = mask.row_dft @ data.reshape(frames, height, width * channels)
    sub = mask.column_dft @ rows.reshape(-1, width, channels)
    return sub.reshape(frames, *grid_membership.shape, channels)[:, grid_membership, :]


@st.composite
def band_cases(draw):
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    shape = (draw(st.integers(1, 3)), h, w, draw(st.integers(1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = Tensor4(rng.standard_normal(shape) * 10.0 ** draw(st.integers(-3, 3)))
    if draw(st.booleans()):
        radius = draw(st.one_of(st.just(0.0), st.just(float(h + w)), st.floats(0.0, float(h + w))))
        return x, circular_mask(h, w, radius)
    return x, FrequencyMask(h, w, 0.0, rng.random((h, w)) < draw(st.floats(0.0, 1.0)))


#: One slice stack for the two edge masks every run checks: radius 0 (DC only) and every column.
EDGE_SLICES = Tensor4(np.random.default_rng(3).standard_normal((2, 6, 10, 2)))


@settings(max_examples=300, deadline=None)
@given(band_cases())
@example((EDGE_SLICES, circular_mask(6, 10, 0.0)))
@example((EDGE_SLICES, circular_mask(6, 10, 16.0)))
def test_band_spectrum_is_bitwise_the_cut_fft2(case):
    """The high band is fft2's cut bit for bit; the low band, from two DFT matrices, matches it to rounding.

    The low band's bins are bitwise those the earlier boolean cut of the DFT sub-grid took.
    """
    x, mask = case
    spec = np.fft.fft2(x.data, axes=(1, 2), norm="ortho")
    low = band_spectrum(x.data, mask)
    assert low.shape == spec[:, mask.membership, :].shape
    assert low.tobytes() == boolean_band_cut(x.data, mask).tobytes()
    assert np.max(np.abs(low - spec[:, mask.membership, :]), initial=0.0) <= 1e-12 * np.max(np.abs(spec))
    assert band_spectrum(x.data, mask, low=False).tobytes() == spec[:, ~mask.membership, :].tobytes()
