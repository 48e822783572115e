"""image._exact_sum against numpy's own float64 reductions.

These tests guard numpy's pairwise order: _exact_sum is bit-identical to
np.add.reduce over a whole float64 array only while numpy splits a
contiguous float64 sum at n2 = n // 2 less n2 % 8 and sums each half apart.
If a numpy release changes that order, they fail, and so would the
auto-exposure's promise to equal the plain bisection.
"""

import gc
import weakref

import numpy as np
import pytest

from hdrkit.image import _BAND_VALUES, _exact_sum

SIZES = [0, *range(1, 18), 127, 128, 129, 2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1, 2 ** 17 + 8,
         3 * 2 ** 16 + 5]
DTYPES = [np.float32, np.float64, np.uint8]


def _values(n, dtype, seed):
    """n values of dtype spread over many binades, so that the summation
    order shows in the last bits."""
    rng = np.random.default_rng(seed)
    if dtype == np.uint8:
        return rng.integers(0, 256, n, dtype=np.uint8)
    return rng.lognormal(0.0, 4.0, n).astype(dtype)


def _float64_sum(a):
    return _exact_sum(a.size, lambda lo, hi: a[lo:hi].astype(np.float64))


def _clipped_leaf(a, mu, m):
    def leaf(lo, hi):
        g = np.divide(a[lo:hi], mu, dtype=np.float64)
        np.multiply(m, g, out=g)
        return np.clip(g, 0.0, 1.0, out=g)
    return leaf


def _check(a):
    whole = a.astype(np.float64)
    total = _float64_sum(a)
    assert total == float(np.add.reduce(whole))
    if a.size:
        assert total / a.size == float(whole.mean())
        mu = float(whole.mean()) or 1.0
        for m in (0.5, 3.0):
            want = float(np.clip(m * (whole / mu), 0.0, 1.0).mean())
            assert _exact_sum(a.size, _clipped_leaf(a, mu, m)) / a.size == want


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n", SIZES)
def test_exact_sum_matches_numpy_at_split_boundaries(n, dtype):
    _check(_values(n, dtype, n))


@pytest.mark.parametrize("dtype", DTYPES)
def test_exact_sum_matches_numpy_at_random_sizes(dtype):
    base = _values(3 * 2 ** 20, dtype, 31)
    for n in np.random.default_rng(32).integers(1, base.size + 1, 4):
        _check(base[:n])


def test_exact_sum_leaves_are_fresh_bands_of_at_most_band_values():
    seen = []

    def leaf(lo, hi):
        seen.append((lo, hi))
        return np.ones(hi - lo)

    n = 5 * _BAND_VALUES + 3
    assert _exact_sum(n, leaf) == n
    assert seen[0][0] == 0 and seen[-1][1] == n
    assert all(a[1] == b[0] for a, b in zip(seen, seen[1:]))
    assert max(hi - lo for lo, hi in seen) <= _BAND_VALUES


def test_exact_sum_frees_what_its_leaf_holds_on_return():
    # no reference cycle keeps the leaf alive, so its data goes when the
    # sum returns, with the cyclic collector off
    def leaf_over(a):
        return lambda lo, hi: a[lo:hi]

    data = np.ones(2 * _BAND_VALUES + 1)
    ref = weakref.ref(data)
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert _exact_sum(data.size, leaf_over(data)) == data.size
        del data
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_float32_reduce_with_dtype_is_not_the_float64_sum():
    # why every leaf is a fresh float64 band: numpy casts float32 data with
    # dtype=np.float64 in buffers of 8192 values and sums each apart
    rng = np.random.default_rng(33)
    for _ in range(20):
        a = rng.lognormal(0.0, 4.0, 3 * 2 ** 16).astype(np.float32)
        assert _float64_sum(a) == float(np.add.reduce(a.astype(np.float64)))
        if float(np.add.reduce(a, dtype=np.float64)) != _float64_sum(a):
            return
    pytest.fail("the buffered float32 sum matched the float64 sum 20 times")
