"""Tensor container and the small numeric ops everything else leans on."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from flowcache.errors import DimensionError, DomainError
from flowcache.tensor import (
    DownsampleFactors,
    Tensor4,
    avg_downsample,
    axpy,
    l2_norm,
    mse,
    seeded_normal,
)


def test_tensor_requires_four_axes():
    with pytest.raises(DimensionError):
        Tensor4(np.zeros((2, 3, 4)))
    with pytest.raises(DimensionError):
        Tensor4(np.zeros((2, 3, 4, 5, 6)))


def test_tensor_rejects_empty_axis():
    with pytest.raises(DimensionError):
        Tensor4(np.zeros((2, 0, 4, 1)))


def test_tensor_rejects_non_finite():
    bad = np.zeros((1, 2, 2, 1))
    bad[0, 0, 0, 0] = np.nan
    with pytest.raises(DomainError):
        Tensor4(bad)
    bad[0, 0, 0, 0] = np.inf
    with pytest.raises(DomainError):
        Tensor4(bad)


def test_tensor_is_immutable():
    t = Tensor4(np.zeros((1, 2, 2, 1)))
    with pytest.raises(ValueError):
        t.data[0, 0, 0, 0] = 1.0


def test_tensor_freezes_adopted_array():
    """Adopting an array marks it read-only, so no alias can mutate the tensor."""
    src = np.ones((1, 2, 2, 1))
    t = Tensor4(src)
    with pytest.raises(ValueError):
        src[0, 0, 0, 0] = 99.0
    assert t.data[0, 0, 0, 0] == 1.0


def test_cells_counts_tokens_not_channels():
    t = Tensor4(np.zeros((4, 16, 16, 2)))
    assert t.cells == 4 * 16 * 16


def test_seeded_normal_is_reproducible():
    a = seeded_normal((2, 4, 4, 3), seed=7)
    b = seeded_normal((2, 4, 4, 3), seed=7)
    c = seeded_normal((2, 4, 4, 3), seed=8)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)


def test_axpy_matches_numpy():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((2, 3, 4, 2))
    b = rng.standard_normal((2, 3, 4, 2))
    out = axpy(a, -0.25, b)
    assert np.allclose(out, a - 0.25 * b)


#: Signed zeros, the smallest subnormal, the smallest normal and magnitudes near
#: the float64 maximum, where a + b overflows to an infinity.
EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0, 1e308, -1e308, 1.7e308, -1.7e308)


@st.composite
def axpy_cases(draw):
    shape = draw(hnp.array_shapes(min_dims=4, max_dims=4, max_side=3))
    element = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
    a, b = (draw(hnp.arrays(np.float64, shape, elements=element)) for _ in range(2))
    return a, draw(st.sampled_from((1.0, -1.0, 0.5, -2.0))), b


@settings(max_examples=200, deadline=None)
@given(axpy_cases())
def test_axpy_matches_the_scaled_form_bitwise(case):
    """scale +-1 skips the scaled temporary; results, overflows included, are the general form's.

    The inputs are read-only, so axpy only reads them, and the result is a fresh array.
    """
    a, scale, b = case
    a.flags.writeable = False
    b.flags.writeable = False
    with np.errstate(over="ignore"):
        expected = a + scale * b
        out = axpy(a, scale, b)
    assert out.tobytes() == expected.tobytes()
    assert out is not a and out is not b


def test_axpy_shape_mismatch():
    with pytest.raises(DimensionError):
        axpy(np.zeros((1, 2, 2, 1)), 1.0, np.zeros((1, 2, 4, 1)))


def test_l2_norm_known_value():
    assert l2_norm(np.array([3.0, 4.0, 0.0, 0.0]).reshape(1, 1, 2, 2)) == 5.0


def test_mse_known_value():
    a = Tensor4(np.full((1, 2, 2, 1), 1.0))
    b = Tensor4(np.full((1, 2, 2, 1), 3.0))
    assert mse(a, b) == 4.0
    assert mse(a, a) == 0.0


def test_downsample_factors_validate():
    with pytest.raises(DimensionError):
        DownsampleFactors(0, 4, 4)
    with pytest.raises(DimensionError):
        DownsampleFactors(2, 4, -1)
    assert DownsampleFactors(2, 4, 4).volume == 32


def test_avg_downsample_matches_block_mean_oracle():
    """Pooling equals an explicit loop over blocks."""
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 8, 6, 2))
    f = DownsampleFactors(2, 4, 3)
    out = avg_downsample(x, f)
    assert out.shape == (2, 2, 2, 2)
    for ti in range(2):
        for hi in range(2):
            for wi in range(2):
                for ci in range(2):
                    block = x[2 * ti:2 * ti + 2, 4 * hi:4 * hi + 4, 3 * wi:3 * wi + 3, ci]
                    assert out[ti, hi, wi, ci] == pytest.approx(block.mean(), rel=1e-12)


def test_avg_downsample_identity_factors_bitwise():
    x = seeded_normal((2, 4, 4, 1), seed=1).data
    assert avg_downsample(x, DownsampleFactors(1, 1, 1)) is x


@pytest.mark.parametrize("shape,factors", [((4, 8, 8, 2), (2, 4, 4)), ((1, 3, 3, 1), (1, 3, 3)), ((2, 2, 2, 1), (2, 1, 1))])
def test_avg_downsample_returns_a_fresh_writable_array_and_leaves_a_read_only_input_unchanged(shape, factors):
    x = seeded_normal(shape, seed=2).data
    before = x.tobytes()
    assert not x.flags.writeable
    out = avg_downsample(x, DownsampleFactors(*factors))
    assert out.flags.writeable and not np.shares_memory(out, x)
    out[...] = 0.0
    assert x.tobytes() == before and not x.flags.writeable


def test_avg_downsample_preserves_global_mean():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((4, 16, 16, 2))
    out = avg_downsample(x, DownsampleFactors(2, 4, 4))
    assert out.mean() == pytest.approx(x.mean(), abs=1e-12)


def test_avg_downsample_rejects_indivisible():
    with pytest.raises(DimensionError):
        avg_downsample(np.zeros((3, 4, 4, 1)), DownsampleFactors(2, 4, 4))


def test_avg_downsample_constant_is_exact():
    out = avg_downsample(np.full((2, 4, 4, 3), 2.5), DownsampleFactors(2, 2, 2))
    assert np.all(out == 2.5)


def sequential_block_mean(x: np.ndarray, f: DownsampleFactors) -> np.ndarray:
    """Oracle: each block summed member by member in lexicographic offset order, then divided once."""
    t, h, w, c = x.shape
    blocked = x.reshape(t // f.frames, f.frames, h // f.height, f.height, w // f.width, f.width, c)
    total = None
    for i, j, k in itertools.product(range(f.frames), range(f.height), range(f.width)):
        member = blocked[:, i, :, j, :, k, :]
        total = member.copy() if total is None else total + member
    return total / f.volume


def six_axis_mean(x: np.ndarray, f: DownsampleFactors) -> np.ndarray:
    """The earlier pooling formula: numpy's mean over the three block axes at once."""
    t, h, w, c = x.shape
    return x.reshape(t // f.frames, f.frames, h // f.height, f.height, w // f.width, f.width, c).mean(axis=(1, 3, 5))


@st.composite
def pooling_cases(draw):
    factors = DownsampleFactors(*(draw(st.integers(1, 5)) for _ in range(3)))
    pooled = [draw(st.integers(1, 4)) for _ in range(3)]
    shape = (factors.frames * pooled[0], factors.height * pooled[1], factors.width * pooled[2], draw(st.integers(1, 3)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(shape) * scale, factors


@settings(max_examples=300, deadline=None)
@given(pooling_cases())
def test_avg_downsample_sums_each_block_sequentially(case):
    """Bitwise the lexicographic sequential sum; bitwise the old 6-D mean wherever C >= 2."""
    x, f = case
    out = avg_downsample(x, f)
    if f.as_tuple() == (1, 1, 1):
        assert out is x
        return
    assert out.tobytes() == sequential_block_mean(x, f).tobytes()
    if x.shape[3] >= 2:
        assert out.tobytes() == six_axis_mean(x, f).tobytes()


def test_avg_downsample_single_output_is_sequential():
    """One pooled value (a 1x1x1x1 grid) is still summed in order; numpy's pairwise sum differs here."""
    values = np.random.default_rng(1).standard_normal(9)
    assert values.sum() != sum(values[1:], values[0])
    x = values.reshape(1, 3, 3, 1)
    out = avg_downsample(x, DownsampleFactors(1, 3, 3))
    assert out.tobytes() == sequential_block_mean(x, DownsampleFactors(1, 3, 3)).tobytes()
