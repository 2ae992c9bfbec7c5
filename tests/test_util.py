import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acgcl.util import cache_key, linear_quantile, median, rng_for


def test_rng_for_deterministic_and_role_separated():
    a = rng_for(7, 1, 3).random(4)
    b = rng_for(7, 1, 3).random(4)
    c = rng_for(7, 2, 3).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_cache_key_frames_each_part():
    """Moving a byte across a part boundary, swapping two parts or reading
    an array as another dtype or shape changes the key; equal parts give
    equal keys, whatever an array's memory layout."""
    key = cache_key(b"ab", b"cd")
    assert key.dtype == np.uint8 and key.shape == (32,)
    assert np.array_equal(cache_key(b"ab", b"cd"), key)
    for parts in [(b"a", b"bcd"), (b"abc", b"d"), (b"cd", b"ab"), (b"abcd",), (b"ab", b"cd", b"")]:
        assert not np.array_equal(cache_key(*parts), key)
    array = np.arange(6, dtype=np.int64)
    keys = [cache_key(array), cache_key(array.reshape(2, 3)), cache_key(array.view(np.uint64)),
            cache_key(array.tobytes()), cache_key(array[:3], array[3:]),
            cache_key(array[3:], array[:3])]
    assert len({k.tobytes() for k in keys}) == len(keys)
    assert np.array_equal(cache_key(array[::2]), cache_key(np.array([0, 2, 4])))


# Few distinct values, signed zeros among them, so that ties are common.
TIED = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e-300])
VALUES = st.one_of(
    st.lists(TIED, min_size=1, max_size=41),
    st.lists(st.floats(-1e6, 1e6, allow_subnormal=True), min_size=1, max_size=41),
    st.lists(st.integers(0, 9), min_size=1, max_size=41).map(lambda v: np.array(v, np.int64)))
THETAS = st.one_of(st.just(0.0), st.just(100.0), st.just(50.0), st.floats(0.0, 100.0))


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None)
@given(VALUES)
def test_median_is_bit_identical_to_numpy(values):
    values = np.asarray(values)
    assert same_bits(np.float64(median(values)), np.float64(np.median(values)))
    if values.size % 2 == 1 and values.size > 1:     # odd and even sizes both
        assert same_bits(np.float64(median(values[1:])), np.float64(np.median(values[1:])))


@pytest.mark.parametrize("values", [
    [2.0], [3.0, -1.0], [1.0, 3.0, 2.0], [4.0, 1.0, 3.0, 2.0], [-0.0, 0.0], [0.0, -0.0, 0.0, -0.0],
    [np.inf, 1.0], [-np.inf, 1.0, 2.0], [np.inf, -np.inf], [np.inf, np.inf, -np.inf],
    [np.nan], [1.0, np.nan], [np.nan, 2.0, 1.0], [np.inf, np.nan, -np.inf, 0.0]])
def test_median_of_small_infinite_and_nan_arrays_is_bit_identical(values):
    """Sizes 1 and 2, odd and even sizes, signed zeros, infinities and NaN;
    the mean of two opposite infinities is NaN, which numpy warns of."""
    values = np.array(values)
    with np.errstate(invalid="ignore"):
        assert same_bits(np.float64(median(values)), np.float64(np.median(values)))


def test_median_of_a_matrix_and_with_nan():
    values = np.array([[3.0, -1.0, 2.0], [0.5, 8.0, -4.0]])
    assert median(values) == np.median(values) == 1.25
    assert np.isnan(median(np.array([1.0, np.nan, 2.0])))


@settings(max_examples=150, deadline=None)
@given(VALUES, THETAS)
def test_linear_quantile_is_bit_identical_to_percentile(values, theta):
    values = np.asarray(values)
    assert same_bits(linear_quantile(values, theta / 100), np.percentile(values, theta))
    ordered = np.sort(values)
    assert same_bits(linear_quantile(ordered, theta / 100), np.percentile(ordered, theta))


@settings(max_examples=150, deadline=None)
@given(VALUES, st.integers(1, 6))
def test_linear_quantile_is_bit_identical_to_quantile(values, n_buckets):
    values = np.asarray(values)
    q = np.linspace(0, 1, n_buckets + 1)
    assert same_bits(linear_quantile(values, q), np.quantile(values, q))
    assert same_bits(linear_quantile(values, q[1:-1]), np.quantile(values, q[1:-1]))
