import math
import tracemalloc

import numpy as np
import pytest

from hdrkit import pano as pano_module
from hdrkit.image import LdrImage, _row_bands, channel_mean, image_data
from hdrkit.pano import (
    DEFAULT_MERGE_TAU,
    MAX_PLANE_EXTENT,
    PanoProjection,
    apply_bilinear_map,
    bilinear_map,
    bilinear_sample,
    ceiling_to_pano,
    crop_perspective,
    crop_set,
    dir_equirect,
    equirect_dir,
    merge_mask,
    merge_panorama,
    pano_to_ceiling,
    plane_to_sphere,
    sphere_to_plane,
)

W, H = 256, 128
PROJ = PanoProjection(W, H, 512, 512)


def band_limited_pano(w=W, h=H):
    ys, xs = np.mgrid[0:h, 0:w]
    theta = np.pi * (ys + 0.5) / h
    phi = 2 * np.pi * (xs + 0.5) / w - np.pi
    pattern = 1.5 + 0.3 * np.sin(theta) * np.cos(phi) + 0.2 * np.cos(theta)
    return np.repeat(pattern[..., None], 3, axis=2)


# --- direction mapping ---------------------------------------------------------

def test_projection_validation():
    with pytest.raises(ValueError):
        PanoProjection(100, 60, 64, 64)
    with pytest.raises(ValueError):
        PanoProjection(128, 64, 64, 32)
    with pytest.raises(ValueError):
        PanoProjection(128, 64, 64, 64, camera_offset=1.5)
    for extent in [0.0, -1.0, 1e308, math.inf, math.nan]:
        with pytest.raises(ValueError, match="plane extent"):
            PanoProjection(128, 64, 64, 64, plane_extent=extent)


def test_largest_plane_extent_meets_no_float_error():
    proj = PanoProjection(32, 16, 16, 16, plane_extent=MAX_PLANE_EXTENT)
    with np.errstate(all="raise"):
        out = pano_to_ceiling(np.ones((16, 32, 3)), proj)
    # every pixel centre lies far outside the imaged unit disk
    assert np.all(out == 0.0)


def test_top_row_near_pole():
    d = equirect_dir(W // 2, 0, W, H)
    assert d[2] > 0.999
    assert abs(d[0]) < 0.05 and abs(d[1]) < 0.05


def test_direction_mapping_identity_on_pixel_centers():
    xs, ys = np.meshgrid(np.arange(W), np.arange(H))
    d = equirect_dir(xs, ys, W, H)
    assert np.allclose(np.linalg.norm(d, axis=-1), 1.0, atol=1e-12)
    x2, y2 = dir_equirect(d, W, H)
    assert np.abs(x2 - xs).max() < 1e-9
    assert np.abs(y2 - ys).max() < 1e-9


def test_equator_rows_straddle_symmetrically():
    up = equirect_dir(0, H // 2 - 1, W, H)
    down = equirect_dir(0, H // 2, W, H)
    assert up[2] == pytest.approx(-down[2], abs=1e-12)
    assert up[2] > 0


# --- stereographic plane mapping -----------------------------------------------

def test_plane_to_sphere_analytic_points():
    px, py, pz, valid = plane_to_sphere(0.0, 0.0)
    assert (px, py, pz) == (0.0, 0.0, 1.0) and valid
    px, py, pz, valid = plane_to_sphere(1.0, 0.0)
    assert abs(px - 1.0) < 1e-9 and abs(pz) < 1e-9 and valid


def test_plane_to_sphere_matches_inverse_stereographic():
    # default offset 1: p = (2cx, 2cy, 1 - r^2) / (1 + r^2)
    rng = np.random.default_rng(0)
    cx = rng.uniform(-1, 1, 100)
    cy = rng.uniform(-1, 1, 100)
    keep = cx ** 2 + cy ** 2 <= 1
    cx, cy = cx[keep], cy[keep]
    px, py, pz, valid = plane_to_sphere(cx, cy)
    r2 = cx ** 2 + cy ** 2
    assert valid.all()
    assert np.allclose(px, 2 * cx / (1 + r2), atol=1e-9)
    assert np.allclose(py, 2 * cy / (1 + r2), atol=1e-9)
    assert np.allclose(pz, (1 - r2) / (1 + r2), atol=1e-9)


def test_sphere_to_plane_round_trip():
    rng = np.random.default_rng(1)
    for offset in (1.0, 0.7, 0.4):
        cx = rng.uniform(-0.9, 0.9, 50)
        cy = rng.uniform(-0.9, 0.9, 50)
        keep = cx ** 2 + cy ** 2 < 1
        px, py, pz, _ = plane_to_sphere(cx[keep], cy[keep], offset)
        bx, by = sphere_to_plane(px, py, pz, offset)
        assert np.allclose(bx, cx[keep], atol=1e-12)
        assert np.allclose(by, cy[keep], atol=1e-12)


def test_outside_disk_is_invalid():
    _, _, _, valid = plane_to_sphere(np.array([1.01, 5.0]), np.array([0.0, 0.0]))
    assert not valid.any()


# --- bilinear sampling -----------------------------------------------------------

def test_bilinear_constant_is_exact():
    img = np.full((8, 16, 3), 0.37)
    xs = np.array([0.0, 3.3, 15.9, -0.4])
    ys = np.array([0.0, 2.7, 7.9, 3.5])
    out = bilinear_sample(img, xs, ys)
    assert np.all(out == 0.37)


def test_bilinear_wraps_horizontally():
    img = np.zeros((2, 4, 3))
    img[:, 0] = 1.0
    img[:, 3] = 3.0
    # halfway between the last and first columns
    out = bilinear_sample(img, np.array([3.5]), np.array([0.0]))
    assert out[0, 0] == pytest.approx(2.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("wrap_x", [True, False])
def test_bilinear_map_rejects_non_finite_coordinates(bad, wrap_x):
    good = np.array([1.0, 2.0])
    with pytest.raises(ValueError, match="finite"):
        bilinear_map(np.array([1.0, bad]), good, 8, 4, wrap_x)
    with pytest.raises(ValueError, match="finite"):
        bilinear_map(good, np.array([bad, 1.0]), 8, 4, wrap_x)


def lerp_gather(img, smap):
    """apply_bilinear_map as three out-of-place lerps."""
    a = np.asarray(img)
    i00, i10, i01, i11, fx, fy = smap
    flat = a.reshape((a.shape[0] * a.shape[1],) + a.shape[2:])
    if a.ndim == 3:
        fx = fx[..., None]
        fy = fy[..., None]
    v00, v10, v01, v11 = (np.take(flat, i, axis=0) for i in (i00, i10, i01, i11))
    top = v00 + fx * (v10 - v00)
    bottom = v01 + fx * (v11 - v01)
    return top + fy * (bottom - top)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("channels", [(3,), ()])
def test_apply_bilinear_map_matches_out_of_place_lerps(dtype, channels):
    # a float32 image samples to the bits of its float64 copy
    rng = np.random.default_rng(12)
    img = (rng.uniform(-3.0, 3.0, (9, 14) + channels) * 40).astype(dtype)
    for x, y in [(rng.uniform(-2, 16, (5, 7)), rng.uniform(-2, 10, (5, 7))),
                 (np.float64(3.3), np.float64(4.6))]:
        smap = bilinear_map(x, y, 14, 9)
        got, want = apply_bilinear_map(img, smap), lerp_gather(img.astype(np.float64), smap)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_integer_images_sample_as_their_float64_copies():
    # halfway between codes 200 and 10 is 105: a uint8 difference would wrap
    ldr = np.zeros((2, 4, 3), dtype=np.uint8)
    ldr[0, 1], ldr[0, 2] = 200, 10
    assert bilinear_sample(LdrImage(ldr), np.array([1.5]), np.array([0.0]))[0, 0] == 105.0
    rng = np.random.default_rng(13)
    images = [LdrImage(rng.integers(0, 256, (H, W, 3), dtype=np.uint8)),
              rng.integers(-30000, 30000, (H, W, 3)).astype(np.int16)]
    x, y = rng.uniform(-2, W + 2, 50), rng.uniform(-2, H + 2, 50)
    for img in images:
        ref = image_data(img).astype(np.float64)
        for run in (lambda a: bilinear_sample(a, x, y),
                    lambda a: crop_perspective(a, 0.3, 0.2, 1.0, 16, 12),
                    lambda a: pano_to_ceiling(a, PanoProjection(W, H, 64, 64))):
            got, want = run(img), run(ref)
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


def test_bilinear_clamps_vertically():
    img = np.zeros((2, 8, 3))
    img[0] = 1.0
    out = bilinear_sample(img, np.array([2.0]), np.array([-3.0]))
    assert out[0, 0] == 1.0


# --- p2c / c2p --------------------------------------------------------------------

def test_p2c_center_is_zenith():
    pano = band_limited_pano()
    zenith = pano[0].mean(axis=0)  # top row approximates the pole value
    ceil = pano_to_ceiling(pano, PROJ)
    c = PROJ.ceil_height // 2
    assert np.allclose(ceil[c, c], zenith, rtol=0.02)


def test_p2c_constant_inside_disk():
    pano = np.full((H, W, 3), 0.7)
    ceil = pano_to_ceiling(pano, PROJ)
    jj, ii = np.meshgrid(np.arange(512), np.arange(512))
    cx = (jj + 0.5) / 512 * 2 - 1
    cy = 1 - (ii + 0.5) / 512 * 2
    disk = cx ** 2 + cy ** 2 <= 1
    assert np.all(ceil[disk] == 0.7)
    assert np.all(ceil[~disk] == 0.0)


def test_c2p_zenith_pixel_reads_ceiling_center():
    # the top pano row samples within ~2 ceiling pixels of the center, so a
    # lit center block covers it entirely
    ceil = np.zeros((512, 512, 3))
    ceil[248:264, 248:264] = 5.0
    pano, valid = ceiling_to_pano(ceil, PROJ)
    assert np.all(pano[0, :, 0] == 5.0)
    assert valid[0].all()


def test_c2p_lower_hemisphere_is_invalid():
    ceil = np.full((512, 512, 3), 2.0)
    pano, valid = ceiling_to_pano(ceil, PROJ)
    assert np.all(valid[H // 2:] == 0.0)
    assert np.all(pano[H // 2:] == 0.0)
    assert np.all(valid[: H // 2] == 1.0)


def test_round_trip_on_band_limited_content():
    pano = band_limited_pano()
    ceil = pano_to_ceiling(pano, PROJ)
    back, valid = ceiling_to_pano(ceil, PROJ)
    mask = valid.astype(bool)
    rel = np.abs(back - pano)[mask] / pano[mask]
    assert rel.max() <= 0.02


def test_p2c_sample_positions_rotate_with_panorama_roll():
    # rolling the panorama a quarter turn must rotate the ceiling sampling
    # grid by exactly 90 degrees (pixel permutation for a square image)
    n = PROJ.ceil_height
    jj, ii = np.meshgrid(np.arange(n), np.arange(n))
    cx = ((jj + 0.5) / n * 2 - 1) * PROJ.plane_extent
    cy = (1 - (ii + 0.5) / n * 2) * PROJ.plane_extent
    px, py, pz, valid = plane_to_sphere(cx, cy)
    x, _ = dir_equirect(np.stack([px, py, pz], axis=-1), W, H)
    x_rot = np.rot90(x, k=-1)  # (i, j) -> (n-1-j, i)
    v_rot = np.rot90(valid, k=-1)
    expected = np.mod(x + W / 4 + 0.5, W) - 0.5
    diff = np.mod(x_rot - expected + W / 2, W) - W / 2
    assert np.abs(diff[v_rot & valid]).max() < 1e-9


def full_grid_ceiling_to_pano(ceil, proj):
    """ceiling_to_pano as it was before the cached valid-pixel plan: the
    whole panorama's geometry and gather, then invalid pixels zeroed."""
    a = np.asarray(ceil, dtype=np.float64)
    w, h = proj.pano_width, proj.pano_height
    xs, ys = np.meshgrid(np.arange(w), np.arange(h))
    dirs = equirect_dir(xs, ys, w, h)
    px, py, pz = dirs[..., 0], dirs[..., 1], dirs[..., 2]
    valid = pz >= 0
    cx, cy = sphere_to_plane(px, py, np.where(valid, pz, 0.0), proj.camera_offset)
    ext = proj.plane_extent
    valid &= (np.abs(cx) <= ext) & (np.abs(cy) <= ext)
    jc = (np.where(valid, cx, 0.0) / ext + 1.0) / 2.0 * proj.ceil_width - 0.5
    ic = (1.0 - np.where(valid, cy, 0.0) / ext) / 2.0 * proj.ceil_height - 0.5
    out = bilinear_sample(a, jc, ic, wrap_x=False)
    out[~valid] = 0.0
    return out, valid.astype(np.float64)


@pytest.mark.parametrize("pano_width", [32, 64, 30])
@pytest.mark.parametrize("ceil_size", [7, 16, 64])
@pytest.mark.parametrize("camera_d", [1.0, 0.5])
@pytest.mark.parametrize("extent", [0.5, 1.0, 3.0])
def test_c2p_matches_full_grid_oracle(pano_width, ceil_size, camera_d, extent):
    proj = PanoProjection(pano_width, pano_width // 2, ceil_size, ceil_size,
                          camera_offset=camera_d, plane_extent=extent)
    rng = np.random.default_rng(ceil_size)
    # the last ceiling is larger than proj's: the sampler clamps to the
    # image, the coordinates come from proj
    for ceil in (rng.lognormal(0.0, 1.0, (ceil_size, ceil_size, 3)),
                 rng.uniform(0.0, 1.0, (ceil_size, ceil_size)).astype(np.float32),
                 rng.uniform(0.0, 2.0, (ceil_size + 5, ceil_size + 5, 3))):
        got, got_valid = ceiling_to_pano(ceil, proj)
        want, want_valid = full_grid_ceiling_to_pano(ceil, proj)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(got_valid, want_valid)


def test_merge_builds_the_geometry_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return equirect_dir(*args, **kwargs)

    monkeypatch.setattr(pano_module, "equirect_dir", counted)
    pano_module._ceiling_plan.cache_clear()
    proj = PanoProjection(64, 32, 32, 32)
    ceil = np.full((32, 32, 3), 0.5)
    m = merge_mask(ceil, proj)
    merge_panorama(ceil, np.ones((32, 64, 3)), m, proj)
    assert len(calls) == 1


def reference_bilinear_map(x, y, width, height, wrap_x):
    """bilinear_map with each neighbour made from its own column and row."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    if wrap_x:
        x = np.mod(x, width)
        x0 = np.floor(x)
        fx = x - x0
        x0 = x0.astype(np.int64) % width
        x1 = (x0 + 1) % width
    else:
        x = np.clip(x, 0.0, width - 1.0)
        x0 = np.floor(x)
        fx = x - x0
        x0 = x0.astype(np.int64)
        x1 = np.minimum(x0 + 1, width - 1)
    y = np.clip(y, 0.0, height - 1.0)
    y0 = np.floor(y)
    fy = y - y0
    y0 = y0.astype(np.int64)
    y1 = np.minimum(y0 + 1, height - 1)
    return y0 * width + x0, y0 * width + x1, y1 * width + x0, y1 * width + x1, fx, fy


@pytest.mark.parametrize("wrap_x", [True, False])
def test_bilinear_map_is_the_reference(wrap_x):
    # the seam, both edges, and a tiny negative x that np.mod rounds to width
    rng = np.random.default_rng(13)
    x = np.concatenate((rng.uniform(-3.0, 20.0, 400), [-1e-20, 0.0, 12.5, 13.0, 13.25, 14.0, -0.5]))
    y = np.concatenate((rng.uniform(-2.0, 11.0, 400), [0.0, 8.0, 8.5, -1.0, 7.5, 3.0, 9.0]))
    want = reference_bilinear_map(x, y, 14, 9, wrap_x)
    for g, w in zip(bilinear_map(x, y, 14, 9, wrap_x), want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


@pytest.mark.parametrize("kind, proj", [
    ("disk", PanoProjection(256, 128, 96, 96)),
    ("disk", PanoProjection(256, 128, 64, 64, 0.5, 1e-3)),
    ("ceiling", PanoProjection(256, 128, 48, 48)),
    ("ceiling", PanoProjection(256, 128, 48, 48, 0.3, 0.02)),
], ids=["disk", "disk-tiny-extent", "ceiling", "ceiling-tiny-extent"])
def test_plan_bands_expand_to_bilinear_map(kind, proj, monkeypatch):
    # each band's compact entry, expanded as _gathered expands it, is the
    # reference map of the coordinates the plan was built from
    calls = []
    compact = pano_module._compact_map

    def recording(*args):
        calls.append(args)
        return compact(*args)

    build = getattr(pano_module, f"_{kind}_plan")
    source = (proj.pano_height, proj.pano_width) if kind == "disk" else (48, 48)
    build.cache_clear()
    monkeypatch.setattr(pano_module, "_compact_map", recording)
    plan = build(proj, *source)
    build.cache_clear()
    assert len(calls) == len(plan) and plan.wrap_x == (kind == "disk")
    seam = clamped = 0
    for (idx, base, fx, fy), (x, y, width, height, wrap_x) in zip(plan, calls):
        assert (height, width) == source and wrap_x == plan.wrap_x
        assert idx.dtype == base.dtype == np.int32 and len(idx) == len(base) == len(x)
        got = pano_module._neighbours(base, width, height, plan.wrap_x) + (fx, fy)
        for g, w in zip(got, reference_bilinear_map(x, y, width, height, wrap_x)):
            assert np.array_equal(g, w)
        last = base % width == width - 1
        seam += int(np.count_nonzero(last & (fx > 0)))
        clamped += int(np.count_nonzero(last))
    if proj.plane_extent == 1.0:
        assert (seam if kind == "disk" else clamped) > 0
    else:
        assert len(np.concatenate([band[0] for band in plan])) > 0


def test_cached_plan_is_read_only():
    proj = PanoProjection(64, 32, 16, 16)
    ceiling_to_pano(np.ones((16, 16, 3)), proj)
    for band in pano_module._ceiling_plan(proj, 16, 16):
        for arr in band:
            with pytest.raises(ValueError):
                arr[...] = arr


# --- merge ------------------------------------------------------------------------

def test_merge_mask_values():
    proj = PanoProjection(64, 32, 32, 32)
    for mean_val, expected in [(0.13, 0.0), (1.0, 1.0), (0.565, 0.5)]:
        ceil = np.full((32, 32, 3), mean_val)
        m = merge_mask(ceil, proj, tau=0.13)
        upper = m[:8]  # well inside the valid hemisphere
        assert np.allclose(upper, expected, atol=1e-9)
        assert m.min() >= 0.0 and m.max() <= 1.0


def test_merge_identity_when_mask_zero():
    rng = np.random.default_rng(2)
    proj = PanoProjection(64, 32, 32, 32)
    h_p = rng.uniform(0.1, 5.0, (32, 64, 3))
    h_c = rng.uniform(0.1, 5.0, (32, 32, 3))
    merged = merge_panorama(h_c, h_p, np.zeros((32, 64)), proj)
    assert np.array_equal(merged, h_p)


def test_merge_full_mask_uses_ceiling():
    rng = np.random.default_rng(3)
    proj = PanoProjection(64, 32, 32, 32)
    h_p = rng.uniform(0.1, 5.0, (32, 64, 3))
    h_c = rng.uniform(0.1, 5.0, (32, 32, 3))
    converted, valid = ceiling_to_pano(h_c, proj)
    merged = merge_panorama(h_c, h_p, valid, proj)
    vmask = valid.astype(bool)
    assert np.array_equal(merged[vmask], converted[vmask])
    assert np.array_equal(merged[~vmask], h_p[~vmask])


@pytest.mark.parametrize("shape", [(1, 1), (16, 1), (32, 32), (16, 32, 2), (1, 1, 3), (16, 32, 1, 1)])
def test_merge_refuses_a_mask_of_another_size(shape):
    # such masks used to broadcast over the panorama silently
    proj = PanoProjection(32, 16, 16, 16)
    h_c, h_p = np.ones((16, 16, 3)), np.ones((16, 32, 3))
    with pytest.raises(ValueError, match=r"merge mask of shape .* does not fit"):
        merge_panorama(h_c, h_p, np.full(shape, 0.5), proj)


@pytest.mark.parametrize("value", [1.5, -0.5, np.nan])
def test_merge_refuses_mask_values_outside_the_unit_interval(value):
    # such masks used to extrapolate: a mask of 1.5 gave -0.5 everywhere
    proj = PanoProjection(32, 16, 16, 16)
    h_c, h_p = np.zeros((16, 16, 3)), np.ones((16, 32, 3))
    with pytest.raises(ValueError, match=r"merge mask values must lie in \[0, 1\]"):
        merge_panorama(h_c, h_p, np.full((16, 32), value), proj)


def test_merge_of_single_channel_images_is_the_blend():
    # an (H, W) mask used to gain a channel axis that (H, W) images lack
    rng = np.random.default_rng(4)
    proj = PanoProjection(64, 32, 32, 32)
    h_p = rng.uniform(0.1, 5.0, (32, 64))
    h_c = rng.uniform(0.1, 5.0, (32, 32))
    m = rng.uniform(size=(32, 64))
    c = ceiling_to_pano(h_c, proj)[0]
    assert np.array_equal(merge_panorama(h_c, h_p, m, proj), m * c + (1.0 - m) * h_p)


def test_merge_refuses_a_channel_mask_for_a_single_channel_panorama():
    proj = PanoProjection(32, 16, 16, 16)
    with pytest.raises(ValueError, match=r"merge mask of shape \(16, 32, 1\) does not fit "
                                         r"the image's \(16, 32\)"):
        merge_panorama(np.ones((16, 16)), np.ones((16, 32)), np.full((16, 32, 1), 0.5), proj)


@pytest.mark.parametrize("tau", [-0.1, 1.0])
def test_merge_mask_refuses_tau_outside_the_unit_interval(tau):
    with pytest.raises(ValueError, match=r"tau must lie in \[0, 1\)"):
        merge_mask(np.zeros((16, 16, 3)), PanoProjection(32, 16, 16, 16), tau)


def test_merge_half_mask_blends():
    proj = PanoProjection(64, 32, 32, 32)
    h_c = np.full((32, 32, 3), 2.0)
    h_p = np.zeros((32, 64, 3))
    merged = merge_panorama(h_c, h_p, np.full((32, 64), 0.5), proj)
    converted, valid = ceiling_to_pano(h_c, proj)
    assert np.allclose(merged, 0.5 * converted)


# --- crops -------------------------------------------------------------------------

def test_crop_constant_panorama():
    pano = np.full((H, W, 3), 1.25)
    crop = crop_perspective(pano, 0.3, 0.1, math.radians(70), 64, 48)
    assert np.all(crop == 1.25)


def test_crop_forward_center_pixel():
    pano = band_limited_pano()
    crop = crop_perspective(pano, 0.0, 0.0, math.radians(60), 65, 49)
    fwd = bilinear_sample(pano, np.array([W / 2 - 0.5]), np.array([H / 2 - 0.5]))
    assert np.allclose(crop[24, 32], fwd[0], rtol=1e-9)


def test_crop_yaw_wrap_equivariance():
    pano = band_limited_pano()
    direct = crop_perspective(pano, math.pi, 0.0, math.radians(60), 64, 48)
    rolled = crop_perspective(np.roll(pano, W // 2, axis=1), 0.0, 0.0,
                              math.radians(60), 64, 48)
    assert np.allclose(direct, rolled, atol=1e-6)


@pytest.mark.parametrize("out_width, out_height", [(0, 48), (64, 0), (-1, 48)])
def test_crop_rejects_an_output_below_one_pixel(out_width, out_height):
    # as it rejects hfov: no HdrImage holds an empty crop
    pano = np.full((H, W, 3), 1.25)
    with pytest.raises(ValueError, match="at least 1x1"):
        crop_perspective(pano, 0.0, 0.0, math.radians(60), out_width, out_height)


@pytest.mark.parametrize("hfov", [0.0, math.pi, -1.0])
def test_crop_rejects_a_field_of_view_outside_zero_to_pi(hfov):
    pano = np.full((H, W, 3), 1.25)
    with pytest.raises(ValueError, match=r"horizontal field of view must lie in \(0, pi\)"):
        crop_perspective(pano, 0.0, 0.0, hfov, 64, 48)


def test_crop_set_counts_and_aspect():
    pano = band_limited_pano()
    indoor = crop_set(pano, 80, 60)
    outdoor = crop_set(pano, 80, 60, outdoor=True)
    assert len(indoor) == 9
    assert len(outdoor) == 6
    yaws = [p["yaw_deg"] for _, p in indoor]
    assert yaws == [0, 60, 120, 180, 240, 300, 0, 120, 240]
    pitches = [p["pitch_deg"] for _, p in indoor]
    assert pitches == [0] * 6 + [45] * 3
    assert all(img.shape == (60, 80, 3) for img, _ in indoor)


def test_crop_set_constant():
    pano = np.full((H, W, 3), 3.0)
    for img, _ in crop_set(pano, 40, 30):
        assert np.all(img == 3.0)


# --- plans in both directions, gathered in slices ------------------------------

def full_grid_pano_to_ceiling(pano, proj):
    """pano_to_ceiling sampling every ceiling pixel, then zeroing those
    outside the imaged disk."""
    a = np.asarray(pano, dtype=np.float64)
    ext = proj.plane_extent
    cx = ((np.arange(proj.ceil_width) + 0.5) / proj.ceil_width * 2.0 - 1.0) * ext
    cy = (1.0 - (np.arange(proj.ceil_height) + 0.5) / proj.ceil_height * 2.0) * ext
    cx, cy = np.meshgrid(cx, cy)
    px, py, pz, valid = plane_to_sphere(cx, cy, proj.camera_offset)
    x, y = dir_equirect(np.stack((px, py, pz), axis=-1), a.shape[1], a.shape[0])
    out = apply_bilinear_map(a, bilinear_map(x, y, a.shape[1], a.shape[0], wrap_x=True))
    out[~valid] = 0.0
    return out


@pytest.mark.parametrize("ceil_size", [7, 300, 512])
@pytest.mark.parametrize("camera_d", [1.0, 0.5])
@pytest.mark.parametrize("extent", [0.5, 3.0, MAX_PLANE_EXTENT])
def test_p2c_matches_full_grid_oracle(ceil_size, camera_d, extent):
    proj = PanoProjection(64, 32, ceil_size, ceil_size, camera_offset=camera_d,
                          plane_extent=extent)
    rng = np.random.default_rng(ceil_size)
    for pano in (rng.lognormal(0.0, 1.0, (32, 64, 3)).astype(np.float32),
                 rng.uniform(0.0, 2.0, (32, 64)),
                 rng.uniform(0.0, 2.0, (40, 80, 3))):  # not proj's panorama size
        got = pano_to_ceiling(pano, proj)
        want = full_grid_pano_to_ceiling(pano, proj)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("extent", [1.0, 0.5])
@pytest.mark.parametrize("mask_dims", [2, 3])
def test_merge_matches_the_full_grid_blend(extent, mask_dims):
    # a 384x192 panorama: its plan fills two of four 56-row bands; a
    # 1030x515 one: 13 of 25 bands of 21 rows, the equator inside the 13th
    for w, h, n in ((384, 192, 96), (1030, 515, 200)):
        proj = PanoProjection(w, h, n, n, plane_extent=extent)
        rng = np.random.default_rng(mask_dims)
        h_c = rng.lognormal(0.0, 1.0, (n, n, 3)).astype(np.float32)
        h_p = rng.lognormal(0.0, 1.0, (h, w, 3)).astype(np.float32)
        h_p[rng.uniform(size=(h, w, 3)) < 0.1] = -0.0
        m = rng.uniform(0.0, 1.0, (h, w) if mask_dims == 2 else (h, w, 3))
        m[rng.uniform(size=m.shape) < 0.2] = 0.0  # zeros inside the plan and out
        m[-1] = 1.0
        got = merge_panorama(h_c, h_p, m, proj)
        mb = m if mask_dims == 3 else m[..., None]
        want = mb * ceiling_to_pano(h_c, proj)[0] + (1.0 - mb) * h_p.astype(np.float64)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(bits(got), bits(want))


def test_merge_with_zero_mask_turns_negative_zero_positive():
    # m * c + (1 - m) * p with m = 0 is 0.0 + (-0.0) = +0.0 where p is -0.0,
    # so the merge is h_pano up to the sign of its zeros
    proj = PanoProjection(64, 32, 32, 32)
    h_p = np.random.default_rng(4).uniform(0.1, 5.0, (32, 64, 3))
    h_p[2, 3] = h_p[30, 40] = -0.0
    merged = merge_panorama(np.ones((32, 32, 3)), h_p, np.zeros((32, 64)), proj)
    assert np.array_equal(merged, h_p)
    assert not np.signbit(merged).any()


def test_merge_mask_matches_the_full_grid_mask():
    for w, h, n in ((384, 192, 96), (1030, 515, 200)):
        proj = PanoProjection(w, h, n, n)
        ldr = np.random.default_rng(5).uniform(0.0, 1.0, (n, n, 3)).astype(np.float32)
        for tau in (0.0, DEFAULT_MERGE_TAU, 0.9):
            mean = channel_mean(ceiling_to_pano(ldr, proj)[0])
            want = np.clip(np.maximum(0.0, mean - tau) / (1.0 - tau), 0.0, 1.0)
            assert np.array_equal(bits(merge_mask(ldr, proj, tau)), bits(want))


def test_merge_mask_matches_the_formula_on_every_band():
    # the formula on every band that _gathered yields, also the zero bands
    # past the ceiling plan's last, which merge_mask leaves at its initial 0.0
    proj = PanoProjection(1024, 512, 512, 512)
    ldr = np.random.default_rng(6).uniform(0.0, 1.0, (512, 512, 3)).astype(np.float32)
    plan = pano_module._ceiling_plan(proj, 512, 512)
    assert len(plan) < len(list(_row_bands((512, 1024, 3))))
    for tau in (0.0, DEFAULT_MERGE_TAU):
        want = np.empty((512, 1024))
        for rows, v in pano_module._gathered(ldr, plan, 512, 1024):
            want[rows] = np.clip(np.maximum(0.0, channel_mean(v) - tau) / (1.0 - tau), 0.0, 1.0)
        assert merge_mask(ldr, proj, tau).tobytes() == want.tobytes()


def test_disk_plan_is_read_only():
    proj = PanoProjection(64, 32, 16, 16)
    pano_to_ceiling(np.ones((32, 64, 3)), proj)
    for band in pano_module._disk_plan(proj, 32, 64):
        for arr in band:
            with pytest.raises(ValueError):
                arr[...] = arr


@pytest.fixture
def dataset_size_inputs():
    rng = np.random.default_rng(9)
    ldr = rng.uniform(0.0, 1.0, (512, 512, 3)).astype(np.float32)
    h_c = rng.uniform(0.1, 5.0, (512, 512, 3)).astype(np.float32)
    h_p = rng.uniform(0.1, 5.0, (512, 1024, 3)).astype(np.float32)
    return PanoProjection(1024, 512, 512, 512), ldr, h_c, h_p


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sliced_merge_memory_at_dataset_size(dataset_size_inputs):
    # Measured here (numpy 2.4): 25.4 MiB, the 12 MiB float64 result, the
    # compact ceiling plan of about 6 MiB, the 4 MiB float64 mask and one
    # band of temporaries. The bound leaves 15% over the measured peak.
    proj, ldr, h_c, h_p = dataset_size_inputs
    pano_module._ceiling_plan.cache_clear()
    peak = traced_peak(lambda: merge_panorama(h_c, h_p, merge_mask(ldr, proj), proj))
    assert peak < 29.2 * 2 ** 20


def test_p2c_memory_at_dataset_size(dataset_size_inputs):
    # Measured here (numpy 2.4): 13.6 MiB, the 6 MiB float64 ceiling, the
    # compact disk plan of about 4.7 MiB and one band of temporaries. The
    # bound leaves 15% over the measured peak.
    proj, _, _, h_p = dataset_size_inputs
    pano_module._disk_plan.cache_clear()
    assert traced_peak(lambda: pano_to_ceiling(h_p, proj)) < 15.7 * 2 ** 20
