import math
import tracemalloc

import numpy as np
import pytest

from hdrkit.calibration import (
    DEFAULT_T_HIGH,
    DEFAULT_T_LOW,
    DEFAULT_TAU,
    UncalibratableError,
    calibrate_hdr,
    luminance_seg_labels,
    overexposure_mask,
)
from hdrkit.image import HdrImage, LinearLdr


def test_mask_constant_images():
    low = LinearLdr(np.full((2, 2, 3), 0.5, dtype=np.float32))
    high = LinearLdr(np.full((2, 2, 3), 0.9, dtype=np.float32))
    assert np.all(overexposure_mask(low) == 1)
    assert np.all(overexposure_mask(high) == 0)


def test_mask_uses_channel_mean():
    px = LinearLdr(np.array([[[0.9, 0.9, 0.6]]], dtype=np.float32))  # mean 0.8
    assert overexposure_mask(px, tau=0.83)[0, 0] == 1


def test_mask_boundary_is_exclusive():
    # tau 0.75 so the channel mean is float-exact at the boundary
    px = LinearLdr(np.full((1, 1, 3), 0.75))
    assert overexposure_mask(px, tau=0.75)[0, 0] == 0
    below = LinearLdr(np.full((1, 1, 3), 0.74))
    assert overexposure_mask(below, tau=0.75)[0, 0] == 1


def test_two_pixel_oracle():
    ldr = LinearLdr(np.array([[[0.2] * 3, [1.0] * 3]], dtype=np.float32))
    hdr = HdrImage(np.array([[[0.4] * 3, [8.0] * 3]], dtype=np.float32))
    result = calibrate_hdr(hdr, ldr, tau=0.83)
    assert result.scale_factor == pytest.approx(0.5, abs=1e-12)
    assert result.calibrated.data[0, 0, 0] == pytest.approx(0.2, abs=1e-12)
    assert result.calibrated.data[0, 1, 0] == pytest.approx(4.0, abs=1e-12)


def test_proportional_pair_recovers_ldr():
    rng = np.random.default_rng(2)
    ldr_vals = rng.uniform(0.05, 0.7, (12, 9, 3)).astype(np.float32)
    c = 37.5
    hdr = HdrImage((ldr_vals * c).astype(np.float32))
    result = calibrate_hdr(hdr, LinearLdr(ldr_vals))
    assert result.scale_factor == pytest.approx(1.0 / c, rel=1e-6)
    assert np.allclose(result.calibrated.data, ldr_vals, rtol=1e-6)


@pytest.mark.parametrize("kappa", [1e-3, 1e3])
def test_scale_invariance(kappa):
    rng = np.random.default_rng(3)
    ldr = LinearLdr(rng.uniform(0, 1, (16, 16, 3)).astype(np.float32))
    base = rng.lognormal(0.0, 2.0, (16, 16, 3))
    ref = calibrate_hdr(HdrImage(base.astype(np.float32)), ldr)
    scaled = calibrate_hdr(HdrImage((base * kappa).astype(np.float32)), ldr)
    assert np.allclose(scaled.calibrated.data, ref.calibrated.data, rtol=1e-6)


def test_idempotence():
    rng = np.random.default_rng(4)
    ldr = LinearLdr(rng.uniform(0, 1, (8, 8, 3)).astype(np.float32))
    hdr = HdrImage(rng.lognormal(1.0, 1.0, (8, 8, 3)).astype(np.float32))
    once = calibrate_hdr(hdr, ldr)
    again = calibrate_hdr(once.calibrated, ldr)
    assert again.scale_factor == pytest.approx(1.0, abs=1e-6)


def test_uncalibratable_all_overexposed():
    ldr = LinearLdr(np.ones((2, 2, 3), dtype=np.float32))
    hdr = HdrImage(np.ones((2, 2, 3), dtype=np.float32))
    with pytest.raises(UncalibratableError):
        calibrate_hdr(hdr, ldr)


def test_uncalibratable_zero_hdr_sum():
    ldr = LinearLdr(np.full((2, 2, 3), 0.4, dtype=np.float32))
    hdr = HdrImage(np.zeros((2, 2, 3), dtype=np.float32))
    with pytest.raises(UncalibratableError):
        calibrate_hdr(hdr, ldr)


def test_shape_mismatch_rejected():
    ldr = LinearLdr(np.full((2, 2, 3), 0.4, dtype=np.float32))
    hdr = HdrImage(np.ones((2, 3, 3), dtype=np.float32))
    with pytest.raises(ValueError):
        calibrate_hdr(hdr, ldr)


# --- segmentation labels -----------------------------------------------------


def whole_image_calibration(hd, ld, tau):
    """calibrate_hdr written out on the whole image at once."""
    mask = ld.mean(axis=2) < tau
    scale = float(ld[mask].sum(dtype=np.float64)) / float(hd[mask].sum(dtype=np.float64))
    return np.multiply(hd, scale, dtype=np.float64).astype(hd.dtype), scale, mask


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_banded_calibration_matches_whole_image(dtype):
    # 70 rows of 1024 pixels: four row bands, the last one partial
    rng = np.random.default_rng(dtype().itemsize)
    hd = rng.lognormal(0.0, 2.0, (70, 1024, 3)).astype(dtype)
    ld = rng.uniform(0.0, 1.0, (70, 1024, 3)).astype(dtype)
    result = calibrate_hdr(HdrImage(hd), LinearLdr(ld))
    want, scale, mask = whole_image_calibration(hd, ld, DEFAULT_TAU)
    assert result.scale_factor == scale
    assert result.calibrated.data.dtype == dtype and np.array_equal(result.calibrated.data, want)
    got_mask = overexposure_mask(LinearLdr(ld))
    assert got_mask.dtype == np.uint8 and np.array_equal(got_mask, mask)


def test_calibrate_memory_at_dataset_size():
    # Measured here on a float32 1024x512 pair (numpy 2.4): a 10.3 MiB
    # tracemalloc peak, the bool mask and the float32 masked copy behind
    # each sum with its 4 MiB index array. The bound leaves 15% over the
    # measured peak.
    rng = np.random.default_rng(3)
    hdr = HdrImage(rng.lognormal(0.0, 1.0, (512, 1024, 3)).astype(np.float32))
    ldr = LinearLdr(rng.uniform(0.0, 1.0, (512, 1024, 3)).astype(np.float32))
    tracemalloc.start()
    try:
        calibrate_hdr(hdr, ldr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 11.9 * 2 ** 20, peak

def test_default_thresholds():
    assert DEFAULT_T_LOW == pytest.approx(math.exp(-5.5))
    assert DEFAULT_T_HIGH == pytest.approx(math.exp(0.1))


def test_seg_classes():
    vals = [math.exp(-6.0), 1.0, 2.0]
    img = HdrImage(np.array([[[v] * 3 for v in vals]], dtype=np.float32))
    mask = luminance_seg_labels(img)
    assert list(mask.data.argmax(axis=2)[0]) == [0, 1, 2]


def test_seg_boundaries_go_to_outer_classes():
    # thresholds chosen so channel means are float-exact at the boundary
    img = HdrImage(np.repeat(np.array([0.25, 1.5]), 3).reshape(1, 2, 3))
    mask = luminance_seg_labels(img, t_low=0.25, t_high=1.5)
    assert mask.data[0, 0, 0] == 1  # at t_low -> dim
    assert mask.data[0, 1, 2] == 1  # at t_high -> bright


def test_seg_channels_sum_to_one():
    rng = np.random.default_rng(5)
    img = HdrImage(rng.lognormal(-1.0, 3.0, (32, 32, 3)).astype(np.float32))
    mask = luminance_seg_labels(img)
    assert np.all(mask.data.sum(axis=2) == 1)


def test_seg_labels_match_fancy_index_one_hot():
    rng = np.random.default_rng(6)
    data = rng.lognormal(-2.0, 3.0, (37, 53, 3)).astype(np.float32)
    data[0, :3] = [[0.25] * 3, [1.5] * 3, [0.0] * 3]  # on both thresholds, and zero
    mean = data.astype(np.float64).mean(axis=2)
    for t_low, t_high in [(DEFAULT_T_LOW, DEFAULT_T_HIGH), (0.25, 1.5)]:
        classes = np.full(mean.shape, 1, dtype=np.int64)
        classes[mean <= t_low] = 0
        classes[mean >= t_high] = 2
        want = np.zeros(mean.shape + (3,), dtype=np.uint8)
        rows, cols = np.indices(mean.shape)
        want[rows, cols, classes] = 1
        got = luminance_seg_labels(HdrImage(data), t_low, t_high).data
        assert got.dtype == np.uint8 and got.flags.c_contiguous
        assert np.array_equal(got, want)


def test_seg_threshold_validation():
    img = HdrImage(np.ones((1, 1, 3), dtype=np.float32))
    with pytest.raises(ValueError):
        luminance_seg_labels(img, t_low=2.0, t_high=1.0)
