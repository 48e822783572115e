import numpy as np
import pytest

from hdrkit.image import (
    HdrImage,
    LdrImage,
    LinearLdr,
    SegMask,
    channel_mean,
    exposure_preview,
    linear_to_srgb,
    quantize_u8,
    srgb_eotf,
    srgb_oetf,
    srgb_to_linear,
)
from hdrkit.losses import ssim
from hdrkit.pano import PanoProjection, crop_set, merge_panorama
from hdrkit.render import compare_renders, default_scene_text, parse_scene, render_many


def test_hdr_image_rejects_bad_values():
    with pytest.raises(ValueError):
        HdrImage(np.full((2, 2, 3), -1.0))
    with pytest.raises(ValueError):
        HdrImage(np.full((2, 2, 3), np.inf))
    with pytest.raises(ValueError):
        HdrImage(np.zeros((2, 2)))


def test_hdr_image_of_integers_is_float32():
    img = HdrImage(np.array([[[0, 1, 2]]], dtype=np.int64))
    assert img.data.dtype == np.float32
    assert img.data.tolist() == [[[0.0, 1.0, 2.0]]]


def test_ldr_image_refuses_floats():
    with pytest.raises(ValueError, match=r"LDR image must be uint8 \(codes 0..255\)"):
        LdrImage(np.zeros((1, 1, 3), dtype=np.float64))


def test_linear_ldr_range_enforced():
    LinearLdr(np.zeros((1, 1, 3)))
    LinearLdr(np.ones((1, 1, 3)))
    with pytest.raises(ValueError):
        LinearLdr(np.full((1, 1, 3), 1.5))


def test_seg_mask_must_be_one_hot():
    ok = np.zeros((2, 2, 3), dtype=np.uint8)
    ok[..., 1] = 1
    SegMask(ok)
    bad = np.ones((2, 2, 3), dtype=np.uint8)
    with pytest.raises(ValueError):
        SegMask(bad)


def test_seg_mask_checks_values_before_the_uint8_cast():
    # as uint8, both of these would read [0, 1, 0]
    for values in ([0.5, 1.7, 0.0], [256, 1, 0]):
        with pytest.raises(ValueError, match="one-hot"):
            SegMask(np.array([[values]]))


def reduced_one_hot_check(arr):
    """The one-hot check as a reduction over the channel axis: the error
    message it raises, or None."""
    arr = np.ascontiguousarray(arr).astype(np.uint8, copy=False)
    if not np.all((arr == 0) | (arr == 1)):
        return "segmentation mask must be one-hot (0/1 values)"
    if not np.all(arr.sum(axis=2) == 1):
        return "segmentation mask channels must sum to 1 per pixel"
    return None


def seg_mask_error(arr):
    try:
        SegMask(arr)
    except ValueError as exc:
        return str(exc)
    return None


def seg_mask_cases():
    rng = np.random.default_rng(41)
    for shape in [(1, 1), (3, 5), (64, 128)]:
        valid = np.eye(3, dtype=np.uint8)[rng.integers(0, 3, shape)]
        yield valid
        yield valid.astype(np.int64)
        yield valid.astype(np.float32)
        yield valid.transpose(1, 0, 2)
        for value in (2, 255):
            bad = valid.copy()
            bad[-1, -1, rng.integers(3)] = value
            yield bad
            zeroed = bad.copy()
            zeroed[0, 0] = 0  # a value of 2 and an all-zero pixel: the value is named
            yield zeroed
        for hot in ([0, 0, 0], [1, 1, 0], [0, 1, 1], [1, 1, 1]):
            bad = valid.copy()
            bad[rng.integers(shape[0]), rng.integers(shape[1])] = hot
            yield bad


def test_seg_mask_check_matches_the_channel_reduction():
    errors = [(reduced_one_hot_check(arr), seg_mask_error(arr)) for arr in seg_mask_cases()]
    assert all(want == got for want, got in errors)
    assert {want for want, _ in errors} == {
        None, "segmentation mask must be one-hot (0/1 values)",
        "segmentation mask channels must sum to 1 per pixel"}


def test_srgb_extremes():
    codes = np.zeros((1, 2, 3), dtype=np.uint8)
    codes[0, 1] = 255
    lin = srgb_to_linear(LdrImage(codes))
    assert lin.data[0, 0, 0] == 0.0
    assert lin.data[0, 1, 0] == 1.0
    back = linear_to_srgb(lin)
    assert back.data[0, 0, 0] == 0 and back.data[0, 1, 0] == 255


def test_srgb_breakpoint_value():
    # the linear segment applies up to and including the 0.04045 knee
    assert srgb_eotf(0.04045) == pytest.approx(0.04045 / 12.92, abs=0, rel=1e-15)
    assert srgb_eotf(0.04045) == pytest.approx(0.0031308049535603713, rel=1e-12)


def test_srgb_roundtrip_all_codes():
    codes = np.arange(256, dtype=np.uint8).reshape(16, 16, 1).repeat(3, axis=2)
    back = linear_to_srgb(srgb_to_linear(LdrImage(codes)))
    assert np.array_equal(back.data, codes)


def test_srgb_to_linear_matches_elementwise_formula():
    # every code at unaligned offsets in each channel of an odd-sized image
    codes = (np.arange(37 * 29 * 3).reshape(37, 29, 3) * 7 + 3) % 256
    codes[5, 3:, 1] = np.arange(26) + 230
    want = np.clip(srgb_eotf(codes.astype(np.float64) / 255.0), 0.0, 1.0).astype(np.float32)
    got = srgb_to_linear(LdrImage(codes.astype(np.uint8))).data
    assert got.dtype == np.float32
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
    assert set(np.unique(codes)) == set(range(256))


def test_srgb_eotf_monotone_over_codes():
    lin = srgb_eotf(np.arange(256) / 255.0)
    assert np.all(np.diff(lin) > 0)


def test_linear_to_srgb_clamps():
    arr = np.array([[[-0.5, 0.5, 2.0]]])
    out = quantize_u8(srgb_oetf(arr))
    assert out[0, 0, 0] == 0
    assert out[0, 0, 2] == 255


def test_channel_mean():
    img = np.array([[[0.2, 0.4, 0.6], [1.0, 0.0, 0.0]]])
    m = channel_mean(img)
    assert m[0, 0] == pytest.approx(0.4)
    assert m[0, 1] == pytest.approx(1.0 / 3.0)


def test_channel_mean_constant():
    img = HdrImage(np.full((3, 4, 3), 2.5, dtype=np.float32))
    assert np.allclose(channel_mean(img), 2.5)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_channel_mean_equals_numpy_mean_bitwise(dtype):
    rng = np.random.default_rng(12)
    img = rng.lognormal(0.0, 2.0, (33, 47, 3)) * rng.choice([-1.0, 1.0], (33, 47, 3))
    img[rng.uniform(size=img.shape) < 0.2] = 0.0
    img[rng.uniform(size=img.shape) < 0.2] = -0.0
    img[0, 0] = -0.0  # mean gives +0.0 here, a plain three-plane sum -0.0
    img = img.astype(dtype)
    want = img.astype(np.float64).mean(axis=2)
    got = channel_mean(img)
    assert got.dtype == np.float64
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_channel_mean_rejects_other_channel_counts():
    with pytest.raises(ValueError, match="height, width, 3"):
        channel_mean(np.ones((2, 2, 4)))


def test_channel_mean_refuses_an_empty_image():
    with pytest.raises(ValueError, match="image must be at least 1x1"):
        channel_mean(np.ones((0, 4, 3)))


@pytest.mark.parametrize("shape", [(1, 1, 3), (7, 5, 3), (203, 97, 3), (40, 1024, 3)])
def test_exposure_preview_matches_whole_image_formula(shape):
    # several row bands, with a partial last band, must give the bytes of
    # the formula applied to the whole image at once
    rng = np.random.default_rng(shape[0])
    for data in (rng.lognormal(-3.0, 3.0, shape), rng.lognormal(-3.0, 3.0, shape).astype(np.float32)):
        for ev, window in [(0.0, 10.0), (2.5, 4.0), (-1.0, 12.0)]:
            scaled = data.astype(np.float64) * (2.0 ** ev)
            windowed = np.where(scaled < 2.0 ** -window, 0.0, np.minimum(scaled, 1.0))
            want = quantize_u8(srgb_oetf(windowed))
            assert np.array_equal(exposure_preview(HdrImage(data), ev, window).data, want)


def test_exposure_preview_saturation():
    h = HdrImage(np.ones((2, 2, 3), dtype=np.float32))
    out = exposure_preview(h, 0.0, 8.0)
    assert np.all(out.data == 255)


def test_exposure_preview_scaling():
    h = HdrImage(np.ones((2, 2, 3), dtype=np.float32))
    out = exposure_preview(h, -1.0, 8.0)
    expected = quantize_u8(srgb_oetf(np.full((2, 2, 3), 0.5)))
    assert np.array_equal(out.data, expected)


def test_exposure_preview_floor():
    window = 6.0
    v = 2.0 ** (-window - 1)  # half the window floor
    h = HdrImage(np.full((1, 1, 3), v, dtype=np.float32))
    assert np.all(exposure_preview(h, 0.0, window).data == 0)
    # a value exactly at the floor survives
    h2 = HdrImage(np.full((1, 1, 3), 2.0 ** -window, dtype=np.float32))
    assert np.all(exposure_preview(h2, 0.0, window).data > 0)


def test_exposure_preview_ev_additivity():
    rng = np.random.default_rng(11)
    base = rng.uniform(0.001, 4.0, (8, 8, 3)).astype(np.float32)
    for a, b in [(-3.0, 1.0), (2.0, -1.0), (0.0, 5.0)]:
        lhs = exposure_preview(HdrImage(base), a + b, 9.0)
        rhs = exposure_preview(HdrImage(base * np.float32(2.0 ** a)), b, 9.0)
        assert np.array_equal(lhs.data, rhs.data)


def test_exposure_preview_requires_positive_window():
    with pytest.raises(ValueError):
        exposure_preview(HdrImage(np.ones((1, 1, 3), dtype=np.float32)), 0.0, 0.0)


# The dtype rule of the image module's docstring, stage by stage: each
# stage's outputs from float32 inputs and from their float64 copies.
_MERGE_MASK = np.random.default_rng(15).uniform(0.0, 1.0, (32, 64))
_FLOAT_STAGES = {
    "crop_set": lambda a, b: [img for img, _ in crop_set(a, 16, 12)],
    "render_many": lambda a, b: [r.data for r in render_many(
        parse_scene(default_scene_text(16, 12)), [a, b])],
    "compare_renders": lambda a, b: list(compare_renders(a, b).values()),
    "ssim": lambda a, b: [ssim(a[..., 0], b[..., 0])],
    "merge_panorama": lambda a, b: [merge_panorama(
        b[:, :32], a, _MERGE_MASK, PanoProjection(64, 32, 32, 32))],
}


@pytest.mark.parametrize("stage", sorted(_FLOAT_STAGES))
def test_float32_inputs_give_the_bytes_of_their_float64_copies(stage):
    rng = np.random.default_rng(14)
    a, b = rng.lognormal(0.0, 1.0, (2, 32, 64, 3)).astype(np.float32)
    run = _FLOAT_STAGES[stage]
    got = run(a, b)
    want = run(a.astype(np.float64), b.astype(np.float64))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        g, w = np.asarray(g), np.asarray(w)
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
