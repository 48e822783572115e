import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdrkit.camera import (
    AutoExposureError,
    CRF_N_RANGE,
    CRF_SIGMA_RANGE,
    DYNAMIC_RANGE_EV,
    apply_crf,
    apply_dynamic_range,
    auto_expose,
    identity_camera,
    sample_camera,
    split_seeds,
    synth_ldr,
)
from hdrkit import camera
from hdrkit.image import _BAND_VALUES, HdrImage, _row_bands


def hdr(arr):
    return HdrImage(np.asarray(arr, dtype=np.float32))


# --- sampling ----------------------------------------------------------------

def test_sample_determinism():
    assert sample_camera(123) == sample_camera(123)
    assert sample_camera(123) != sample_camera(124)


def test_sample_ranges_and_means():
    n = 10_000
    draws = [sample_camera(seed) for seed in range(n)]
    for attr, (lo, hi) in [
        ("dynamic_range_ev", DYNAMIC_RANGE_EV),
        ("crf_sigma", CRF_SIGMA_RANGE),
        ("crf_n", CRF_N_RANGE),
    ]:
        vals = np.array([getattr(d, attr) for d in draws])
        assert vals.min() >= lo and vals.max() <= hi
        se = (hi - lo) / np.sqrt(12.0) / np.sqrt(n)
        assert abs(vals.mean() - (lo + hi) / 2) < 3 * se


# --- auto exposure -----------------------------------------------------------

def test_auto_expose_constant_image():
    e = auto_expose(hdr(np.full((4, 4, 3), 0.5)))
    assert e == pytest.approx(0.18 / 0.5, rel=1e-9)


def test_auto_expose_scale_equivariance():
    rng = np.random.default_rng(8)
    base = rng.lognormal(0, 1.0, (16, 16, 3))
    e1 = auto_expose(hdr(base))
    e2 = auto_expose(hdr(2.0 * base))
    assert e2 * 2.0 == pytest.approx(e1, rel=1e-6)


def test_auto_expose_two_value_oracle():
    # 90% at 0.1, 10% at 100: solving the piecewise-linear mean equation by
    # hand gives e = 8/9 (the bright tenth saturates)
    arr = np.full((100, 1, 3), 0.1)
    arr[:10] = 100.0
    e = auto_expose(hdr(arr))
    assert e == pytest.approx(8.0 / 9.0, rel=1e-6)
    mean = np.clip(e * arr, 0, 1).mean()
    assert abs(mean - 0.18) <= 1e-4


def test_auto_expose_all_zero_errors():
    with pytest.raises(AutoExposureError):
        auto_expose(hdr(np.zeros((2, 2, 3))))


def test_auto_expose_unreachable_target_errors():
    arr = np.zeros((100, 1, 3))
    arr[:5] = 1.0  # only 5% of pixels can ever be bright
    with pytest.raises(AutoExposureError):
        auto_expose(hdr(arr), target_mean=0.18)


def _bisection_auto_expose(h, target_mean=0.18, tol=1e-4):
    """The 90-step blind bisection that auto_expose must reproduce bit for bit."""
    if not 0 < target_mean < 1:
        raise ValueError("target_mean must lie in (0, 1)")
    a = np.asarray(h.data).astype(np.float64, copy=False)
    mu = float(a.mean())
    if not mu > 0:
        raise AutoExposureError("image has no positive pixels")
    g = a / mu

    def clipped_mean(m):
        return float(np.clip(m * g, 0.0, 1.0).mean())

    lo, hi = 2.0 ** -40, 2.0 ** 40
    if clipped_mean(hi) < target_mean:
        raise AutoExposureError("unreachable")
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        if clipped_mean(mid) < target_mean:
            lo = mid
        else:
            hi = mid
    m = 0.5 * (lo + hi)
    if abs(clipped_mean(m) - target_mean) > tol:
        raise AutoExposureError("no convergence")
    return m / mu


def _outcome(fn, img, target):
    try:
        return "ok", fn(img, target)
    except Exception as exc:
        return "error", type(exc)


_PIXELS = {
    "spread": st.floats(0.0, 1e6),
    "ties": st.sampled_from([0.0, 0.25, 1.0, 7.0]),
    "mostly-zero": st.one_of(st.just(0.0), st.just(0.0), st.just(0.0), st.floats(0.0, 1e3)),
}


@st.composite
def _exposure_cases(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    shape = (draw(st.integers(1, 12)), draw(st.integers(1, 12)), 3)
    kind = draw(st.sampled_from(sorted(_PIXELS) + ["constant"]))
    if kind == "constant":
        arr = np.full(shape, draw(st.floats(1e-30, 1e30)))
    else:
        values = draw(st.lists(_PIXELS[kind], min_size=shape[0] * shape[1] * 3,
                               max_size=shape[0] * shape[1] * 3))
        arr = np.reshape(values, shape) * 2.0 ** draw(st.integers(-60, 60))
    target = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    return HdrImage(arr.astype(dtype)), target


@settings(max_examples=400, deadline=None)
@given(_exposure_cases())
def test_auto_expose_bit_identical_to_bisection(case):
    img, target = case
    assert _outcome(auto_expose, img, target) == _outcome(_bisection_auto_expose, img, target)


def test_auto_expose_huge_root_fails_like_bisection():
    # 46 of 48 values saturate short of the target and the next one is
    # 3e-303, so the multiplier of the mean-normalized image that reaches it
    # is near 4e306: far past the bisection's range, and scaling the
    # largest value by it overflows
    arr = np.ones((2, 8, 3))
    arr[0, 0, 0], arr[1, 7, 1], arr[1, 7, 2] = 0.0, 684206.0, 3.33026789e-303
    img = HdrImage(arr)
    assert _outcome(auto_expose, img, 0.9765625) == ("error", AutoExposureError)
    assert _outcome(_bisection_auto_expose, img, 0.9765625) == ("error", AutoExposureError)


def test_auto_expose_bit_identical_on_large_image():
    rng = np.random.default_rng(15)
    arr = rng.lognormal(0, 2.0, (96, 128, 3)).astype(np.float32)
    arr[:8] *= 300.0  # a bright band that saturates
    for target in (0.05, 0.18, 0.5, 0.9):
        assert auto_expose(hdr(arr), target) == _bisection_auto_expose(hdr(arr), target)


def _bright_disc_panorama(seed):
    """A float32 512x1024 lognormal panorama with three bright discs that
    saturate at every target."""
    rng = np.random.default_rng(seed)
    arr = rng.lognormal(-1.0, 2.0, (512, 1024, 3)).astype(np.float32)
    yy, xx = np.mgrid[:512, :1024]
    for cx, cy, r in ((100, 60, 30), (600, 120, 18), (900, 40, 45)):
        arr[(xx - cx) ** 2 + (yy - cy) ** 2 < r * r] *= 500.0
    return arr


def test_auto_expose_bit_identical_at_dataset_size():
    img = hdr(_bright_disc_panorama(17))
    for target in (0.05, 0.18):
        assert auto_expose(img, target) == _bisection_auto_expose(img, target)


def test_auto_expose_memory_is_one_float64_copy():
    arr = _bright_disc_panorama(18)
    tracemalloc.start()
    try:
        auto_expose(arr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < arr.size * 8 + 2 ** 20


def test_auto_expose_leaves_float64_input_unchanged():
    arr = np.random.default_rng(16).lognormal(0, 1.0, (8, 8, 3))
    img = HdrImage(arr.copy())
    assert img.data.dtype == np.float64
    auto_expose(img)
    auto_expose(img.data)
    assert np.array_equal(img.data, arr)


# --- the saturation root -------------------------------------------------------

_TARGETS = (0.05, 0.18, 0.5)
# Per seed of _bright_disc_panorama and per target: the exposure that
# _bisection_auto_expose gives (float.hex), and the clipped-mean evaluations
# of the auto-exposure that replayed it from one sort of the image (numpy
# 2.4). The oracle takes about 30 s over these 36 cases, so its results are
# recorded here; test_auto_expose_bit_identical_at_dataset_size runs it.
_DISC_CASES = {
    0: (("0x1.f6be180d88051p-7", 7), ("0x1.e0e44bb401781p-4", 10), ("0x1.0002203c5ade1p+0", 14)),
    1: (("0x1.f7b0c80672a07p-7", 7), ("0x1.e1fd9c2ddf5fcp-4", 10), ("0x1.0010edcee2848p+0", 13)),
    2: (("0x1.f653c721dd066p-7", 7), ("0x1.dfd4890092570p-4", 10), ("0x1.fe8d2def70e19p-1", 14)),
    3: (("0x1.f839814794f6fp-7", 7), ("0x1.e07e667cf686ap-4", 11), ("0x1.0047397f6e0d1p+0", 13)),
    4: (("0x1.f8466cec22509p-7", 7), ("0x1.e0b8fbfb7e802p-4", 10), ("0x1.0008389fd56ddp+0", 14)),
    5: (("0x1.f7e1aca427c1fp-7", 7), ("0x1.dfc2ca501c073p-4", 10), ("0x1.fecfe57888f90p-1", 13)),
    6: (("0x1.f67f56b352855p-7", 7), ("0x1.e00eae57295f7p-4", 10), ("0x1.ff6ecdbf2f1c7p-1", 13)),
    7: (("0x1.f7a2073cede24p-7", 7), ("0x1.e0ff7abf85812p-4", 11), ("0x1.008c1b152ff53p+0", 13)),
    8: (("0x1.f5dabf67f3fa1p-7", 7), ("0x1.e0987ab3a9a9bp-4", 10), ("0x1.ff56e5fca9a8ap-1", 13)),
    9: (("0x1.f6a2c04c89f03p-7", 7), ("0x1.e09efec5bfec4p-4", 10), ("0x1.00a986a1afe69p+0", 13)),
    10: (("0x1.f8d73d11f22a5p-7", 7), ("0x1.dfd2b3192ddc3p-4", 11), ("0x1.ff351ae9590dep-1", 13)),
    11: (("0x1.f6ccf1080ae0dp-7", 7), ("0x1.df0b01e0478a6p-4", 11), ("0x1.ffc0fb4e6615cp-1", 14)),
}


def _counted_sums(monkeypatch):
    """The sizes of every _exact_sum that auto_expose makes: its mean, then
    one per clipped-mean evaluation."""
    calls = []
    real = camera._exact_sum

    def counting(n, leaf):
        calls.append(n)
        return real(n, leaf)

    monkeypatch.setattr(camera, "_exact_sum", counting)
    return calls


@pytest.mark.parametrize("seed", sorted(_DISC_CASES))
def test_auto_expose_is_the_bisection_with_no_more_evaluations(seed, monkeypatch):
    img = hdr(_bright_disc_panorama(seed))
    calls = _counted_sums(monkeypatch)
    for target, (exposure, evaluations) in zip(_TARGETS, _DISC_CASES[seed]):
        calls.clear()
        assert auto_expose(img, target) == float.fromhex(exposure)
        assert len(calls) - 1 <= evaluations


def _reference_root(x, target):
    """The root of mean(clip(r*x, 0, 1)) = target from all the values
    sorted, written out plainly: the first positive s[k] whose F fits, and
    the correctly rounded sum of the values under it."""
    s = np.sort(np.maximum(np.ravel(x).astype(np.float64), 0.0))
    n = s.size
    head = np.concatenate(([0.0], np.cumsum(s)))
    with np.errstate(divide="ignore", invalid="ignore"):
        fits = np.flatnonzero((s > 0) & (head[:-1] / s + (n - np.arange(n)) <= n * target))
    k = int(fits[0]) if fits.size else n
    covered = math.fsum(s[:k])
    return (n * target - (n - k)) / covered if covered > 0 else math.nan


def _root_of(x, target):
    """camera._saturation_root of the values of x, given their mean as
    auto_expose gives it."""
    flat = np.ravel(x)
    return camera._saturation_root(flat, target, float(np.mean(flat, dtype=np.float64)))


def _tied_on_bucket_edges(dtype):
    # powers of two and the values just below them, each many times over
    edges = np.array([0.25, 1.0, 2.0, 64.0], dtype=dtype)
    below = np.nextafter(edges, dtype(0))
    return np.resize(np.concatenate((edges, below, edges, edges)), 2 ** 16 + 2)


# Each has a multiple of 3 values, and the larger ones more than one band.
_EDGE_CASES = {
    "all zero": lambda dtype: np.zeros(12, dtype),
    "one pixel": lambda dtype: np.array([0.5, 2.0, 9.0], dtype),
    "constant": lambda dtype: np.full(2 ** 16 + 2, 0.37, dtype),
    "two values": lambda dtype: np.where(np.arange(72900) % 10 == 0, 100.0, 0.1).astype(dtype),
    "denormals": lambda dtype: np.resize(
        np.array([0.0, 1e-320, 5e-324, 1e-310, 1e-39, 1e-45, 3.0]), 2 ** 16 + 11).astype(dtype),
    "tied on bucket edges": _tied_on_bucket_edges,
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", sorted(_EDGE_CASES))
def test_radix_root_edge_cases(case, dtype):
    x = _EDGE_CASES[case](dtype)
    img = HdrImage(x.reshape(1, -1, 3))
    for target in (0.05, 0.18, 0.5, 0.9):
        got, want = _root_of(x, target), _reference_root(x, target)
        assert got == pytest.approx(want, rel=1e-13, nan_ok=True)
    for target in (0.18, 0.5):
        assert _outcome(auto_expose, img, target) == _outcome(_bisection_auto_expose, img, target)


def test_radix_root_leaves_out_values_below_zero():
    # negative values and -0.0 add nothing to a clipped mean
    x = np.resize(np.array([-3.0, -0.0, 0.0, 0.5, 2.0, 7.0]), 2 ** 16 + 5)
    for dtype in (np.float32, np.float64, np.int8):
        for target in (0.05, 0.18, 0.5):
            got = _root_of(x.astype(dtype), target)
            want = _reference_root(x.astype(dtype), target)
            assert got == pytest.approx(want, rel=1e-13, nan_ok=True)
            raw = x.astype(dtype)
            assert (_outcome(auto_expose, raw, target)
                    == _outcome(_bisection_auto_expose, SimpleNamespace(data=raw), target))


def test_auto_expose_keeps_its_bracket_on_negative_values(monkeypatch):
    # the -1s lower the mean, which puts the start of the saturation root
    # above the root; without a restart the bisection evaluated every step
    calls = _counted_sums(monkeypatch)
    evaluations = {}
    for low in (-1.0, 0.0):
        raw = np.array([low, 1.0, 1.0, 1.0] * 3000)
        calls.clear()
        exposure = auto_expose(raw, 0.5)
        evaluations[low] = len(calls)
        assert exposure == _bisection_auto_expose(SimpleNamespace(data=raw), 0.5)
    assert evaluations[-1.0] <= evaluations[0.0]


@pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.float16])
def test_auto_expose_integer_and_half_inputs(dtype):
    rng = np.random.default_rng(34)
    raw = rng.lognormal(2.0, 1.5, (40, 600, 3)).clip(0, 255).astype(dtype)
    for target in (0.05, 0.18, 0.5):
        assert (_outcome(auto_expose, raw, target)
                == _outcome(_bisection_auto_expose, SimpleNamespace(data=raw), target))


class _CountedSlices(np.ndarray):
    """An array that counts the slices taken of it."""

    def __getitem__(self, key):
        if isinstance(key, slice) and hasattr(self, "slices"):
            self.slices += 1
        return super().__getitem__(key)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_saturation_root_passes_are_bounded(dtype):
    # the passes measured at target 0.18 (numpy 2.4)
    for values, passes in ((_bright_disc_panorama(19), 6), (np.full((512, 1024, 3), 0.37), 2)):
        flat = values.astype(dtype).ravel().view(_CountedSlices)
        flat.slices = 0
        camera._saturation_root(flat, 0.18, float(np.mean(flat, dtype=np.float64)))
        assert flat.slices <= passes * -(-flat.size // _BAND_VALUES)


@pytest.mark.parametrize("seed", [0, 7])
def test_auto_expose_is_the_bisection_from_a_capped_root(seed, monkeypatch):
    # one pass leaves the root too far off to bracket, and the bisection
    # then evaluates every step
    monkeypatch.setattr(camera, "_ROOT_PASSES", 1)
    img = hdr(_bright_disc_panorama(seed))
    for target, (exposure, _) in zip(_TARGETS, _DISC_CASES[seed]):
        assert auto_expose(img, target) == float.fromhex(exposure)


def test_auto_expose_memory_is_band_sized():
    # Measured here: a 2.9 MiB tracemalloc peak at 1024x512 (numpy 2.4), for
    # a lognormal panorama and a constant image alike, against 12.1 MiB with
    # a float64 copy of the image. The bound leaves 15% over the peak.
    for arr in (_bright_disc_panorama(18), np.full((512, 1024, 3), 0.37, np.float32)):
        tracemalloc.start()
        try:
            auto_expose(arr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.4 * 2 ** 20, peak


# --- dynamic range and CRF ---------------------------------------------------

def test_dynamic_range_rules():
    dr = 10.0
    floor = 2.0 ** -dr
    vals = np.array([[[1.5, floor / 2.0, floor]]])
    out = apply_dynamic_range(vals, dr)
    assert out[0, 0, 0] == 1.0       # saturates
    assert out[0, 0, 1] == 0.0       # below the floor
    assert out[0, 0, 2] == floor     # exactly at the floor is kept


def test_crf_endpoints():
    for sigma in (0.3, 0.4, 0.5):
        for n in (0.8, 0.9, 1.0):
            assert apply_crf(np.array(0.0), sigma, n) == 0.0
            assert apply_crf(np.array(1.0), sigma, n) == 1.0


def test_crf_point_oracle():
    assert apply_crf(np.array(0.5), 0.3, 1.0) == pytest.approx(0.8125, abs=1e-12)


def test_crf_monotone_and_positive_slope():
    rng = np.random.default_rng(9)
    for _ in range(1000):
        sigma = rng.uniform(*CRF_SIGMA_RANGE)
        n = rng.uniform(*CRF_N_RANGE)
        v = rng.uniform(1e-4, 1 - 1e-4)
        h = 1e-6
        lo, hi = apply_crf(np.array(v - h), sigma, n), apply_crf(np.array(v + h), sigma, n)
        assert hi > lo  # finite-difference slope strictly positive


# --- full pipeline -----------------------------------------------------------

def test_synth_identity_constant():
    img = hdr(np.full((6, 6, 3), 0.18))
    # auto-exposure is the identity here, so codes are round(0.18*255)=46
    ldr, resolved = synth_ldr(img, identity_camera(12.0))
    assert np.all(ldr.data == 46)
    # unity up to the float32 storage of 0.18
    assert resolved.exposure == pytest.approx(1.0, rel=1e-6)


def test_synth_determinism():
    rng = np.random.default_rng(10)
    img = hdr(rng.lognormal(0, 1.5, (24, 32, 3)))
    a, ra = synth_ldr(img, sample_camera(77))
    b, rb = synth_ldr(img, sample_camera(77))
    assert np.array_equal(a.data, b.data)
    assert ra == rb


@pytest.mark.parametrize("kappa", [0.1, 10.0])
def test_synth_exposure_equivariance(kappa):
    rng = np.random.default_rng(12)
    base = rng.lognormal(0, 1.5, (24, 32, 3))
    sample = sample_camera(5)
    a, _ = synth_ldr(hdr(base), sample)
    b, _ = synth_ldr(hdr(base * kappa), sample)
    assert np.array_equal(a.data, b.data)


def test_synth_records_exposure():
    rng = np.random.default_rng(13)
    img = hdr(rng.uniform(0.5, 1.5, (16, 16, 3)))
    _, resolved = synth_ldr(img, sample_camera(3))
    assert resolved.exposure is not None and resolved.exposure > 0


def test_synth_calibration_consistency():
    # identity CRF, nothing clipped or floored: linearized output should
    # calibrate the source HDR back to the LDR up to quantization
    from hdrkit.calibration import calibrate_hdr
    from hdrkit.image import LinearLdr

    rng = np.random.default_rng(14)
    img = hdr(rng.uniform(0.5, 1.5, (32, 32, 3)))
    ldr, resolved = synth_ldr(img, identity_camera(14.0))
    lin = LinearLdr(ldr.data.astype(np.float32) / np.float32(255.0))
    result = calibrate_hdr(img, lin)
    assert result.scale_factor == pytest.approx(resolved.exposure, rel=0.01)
    mask = lin.data.mean(axis=2) < 0.83
    err = np.abs(result.calibrated.data - lin.data)[mask]
    assert err.max() <= 1.0 / 255.0 + 1e-6


def whole_image_synth(data, sample, exposure):
    """The camera's per-pixel stages written out on the whole image at once."""
    clamped = np.clip(data.astype(np.float64) * exposure, 0.0, 1.0)
    signal = np.where(clamped < 2.0 ** -sample.dynamic_range_ev, 0.0, clamped)
    if not sample.is_identity_crf:
        vn = signal ** sample.crf_n
        signal = (1.0 + sample.crf_sigma) * vn / (vn + sample.crf_sigma)
    return np.clip(np.floor(signal * 255.0 + 0.5), 0, 255).astype(np.uint8)


def test_row_bands_cover_the_rows():
    # 2^16 values per band: 21 rows of 1024 pixels, one row past 21845
    assert list(_row_bands((22, 1024, 3))) == [slice(0, 21), slice(21, 42)]
    assert list(_row_bands((3, 21846, 3))) == [slice(0, 1), slice(1, 2), slice(2, 3)]
    assert list(_row_bands((5, 1, 3))) == [slice(0, 21845)]


@pytest.mark.parametrize("shape", [(1, 1, 3), (1, 700, 3), (700, 1, 3), (20, 1024, 3),
                                   (21, 1024, 3), (22, 1024, 3), (3, 22000, 3)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_synth_bands_match_whole_image(shape, dtype):
    # clipped, floored and mid-range values in every band, the last one partial
    rng = np.random.default_rng(shape[0] * 7 + shape[1])
    data = rng.lognormal(-2.0, 3.0, shape).astype(dtype)
    for sample in (sample_camera(21), identity_camera(10.0)):
        ldr, resolved = synth_ldr(HdrImage(data), sample)
        want = whole_image_synth(data, sample, resolved.exposure)
        assert ldr.data.dtype == np.uint8 and np.array_equal(ldr.data, want)


def test_synth_memory_at_dataset_size():
    # Measured here on a float32 1024x512 image: 4.5 MiB, the uint8 output
    # beside band-sized temporaries, against 12.1 MiB while auto-exposure
    # held one float64 copy of the image, 24.0 MiB with two copies and
    # 61.5 MiB with whole-image per-pixel stages. The bound is from the
    # two-copy peak plus 15%; test_auto_expose_memory_is_band_sized bounds
    # auto-exposure as it is now.
    img = hdr(np.random.default_rng(22).lognormal(-1.0, 2.0, (512, 1024, 3)))
    sample = sample_camera(23)
    tracemalloc.start()
    try:
        synth_ldr(img, sample)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 27.6 * 2 ** 20


def test_split_seeds_deterministic_and_distinct():
    seeds = split_seeds(99, 16)
    assert seeds == split_seeds(99, 16)
    assert len(set(seeds)) == 16
    assert seeds[:8] == split_seeds(99, 8)  # prefix-stable
