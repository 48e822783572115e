"""Spherical panorama geometry: equirectangular mapping, ceiling-view
perspective conversion, merging, and the perspective cropping scheme.

Conventions, fixed throughout the toolkit:

* Equirectangular images have width = 2 * height. Colatitude theta runs
  from 0 at the +z pole (up) to pi at -z, theta = pi * (y + 0.5) / H.
  Azimuth phi = 2 * pi * (x + 0.5) / W - pi, so the left image edge is
  phi = -pi. Directions are (sin t * cos p, sin t * sin p, cos t).
* The ceiling view images the plane z = 0 through the sphere center. The
  projection camera sits at (0, 0, -d) below the center; with the default
  d = 1 the mapping is exactly the stereographic projection from the south
  pole and the upper hemisphere fills the inscribed unit disk.
* Ceiling pixel (row 0, col 0) is the plane corner (-extent, +extent);
  columns increase +x, rows decrease +y.
* Bilinear sampling wraps horizontally and clamps vertically.

Resampling is split into an image-independent map (bilinear_map) and a
gather (apply_bilinear_map). Both directions between panorama and ceiling
view go through a plan: for each RGB row band of the target, the flat
indices of the band's pixels the source can fill, and a compact map over
those pixels alone: the flat source index y0 * width + x0 of each pixel's
top-left neighbour and the two lerp weights, 24 bytes per pixel with int32
indices. The other three neighbours follow from that base by the wrap and
clamp rules of bilinear_map, which derives its own the same way, and are
made one band at a time when the band is gathered. pano_to_ceiling's plan
holds the ceiling pixels inside the imaged disk; ceiling_to_pano's holds
the panorama pixels the plane reaches, all on or above the equator, and
merge_mask and merge_panorama share it, so one merge builds the geometry
once. Each plan is cached per projection and source size, and every
consumer reads it through one band gather, _gathered, so the temporaries
stay band-sized. A resampled image is 0 outside its plan. _to_pano and
_merge, ceiling_to_pano's panorama and merge_panorama's blend with each
float64 band cast to a given dtype as it is made, exist for memory alone:
the CLI's float32 c2p and merge peak at 56.6 and 61.3 MiB VmHWM, against
67.2 and 69.7 with the public float64 results cast afterwards (a 1024x512
panorama, a 512x512 ceiling).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .image import _fitted_mask, _row_bands, channel_mean, image_data

__all__ = [
    "PanoProjection",
    "equirect_dir",
    "dir_equirect",
    "equirect_map",
    "bilinear_sample",
    "bilinear_map",
    "apply_bilinear_map",
    "plane_to_sphere",
    "sphere_to_plane",
    "pano_to_ceiling",
    "ceiling_to_pano",
    "merge_mask",
    "merge_panorama",
    "crop_perspective",
    "crop_set",
    "crop_views",
    "DEFAULT_MERGE_TAU",
    "MAX_PLANE_EXTENT",
    "CROP_YAWS_DEG",
    "CROP_ELEVATED_YAWS_DEG",
    "CROP_ELEVATED_PITCH_DEG",
]

DEFAULT_MERGE_TAU = 0.13
# the squared radius of a ceiling-plane corner, up to 2 * extent**2, must stay
# finite, or the ceiling grid meets the sphere at NaN points
MAX_PLANE_EXTENT = 1e150
CROP_YAWS_DEG = (0.0, 60.0, 120.0, 180.0, 240.0, 300.0)
CROP_ELEVATED_YAWS_DEG = (0.0, 120.0, 240.0)
CROP_ELEVATED_PITCH_DEG = 45.0


@dataclass(frozen=True)
class PanoProjection:
    """Geometry linking an equirectangular panorama and its ceiling view."""

    pano_width: int
    pano_height: int
    ceil_width: int
    ceil_height: int
    camera_offset: float = 1.0
    plane_extent: float = 1.0

    def __post_init__(self):
        if self.pano_width != 2 * self.pano_height:
            raise ValueError("panorama width must be twice its height")
        if self.ceil_width != self.ceil_height:
            raise ValueError("ceiling view must be square")
        if not 0 < self.camera_offset <= 1:
            raise ValueError("camera offset must lie in (0, 1]")
        if not 0 < self.plane_extent <= MAX_PLANE_EXTENT:
            raise ValueError(f"plane extent must lie in (0, {MAX_PLANE_EXTENT:g}]")


def equirect_dir(x, y, width: int, height: int) -> np.ndarray:
    """Unit direction(s) for pixel indices (x, y); stacks on the last axis."""
    theta = np.pi * (np.asarray(y, dtype=np.float64) + 0.5) / height
    phi = 2.0 * np.pi * (np.asarray(x, dtype=np.float64) + 0.5) / width - np.pi
    sin_t = np.sin(theta)
    return np.stack(
        np.broadcast_arrays(sin_t * np.cos(phi), sin_t * np.sin(phi), np.cos(theta)),
        axis=-1,
    )


def dir_equirect(v, width: int, height: int) -> tuple[np.ndarray, np.ndarray]:
    """Continuous pixel coordinates (x, y) of unit direction(s) v."""
    v = np.asarray(v, dtype=np.float64)
    vx, vy, vz = v[..., 0], v[..., 1], v[..., 2]
    x = (np.arctan2(vy, vx) + np.pi) / (2.0 * np.pi) * width - 0.5
    y = np.arctan2(np.hypot(vx, vy), vz) / np.pi * height - 0.5
    # wrap into [-0.5, width - 0.5) so pixel centers map to themselves
    return np.mod(x + 0.5, width) - 0.5, y


def equirect_map(dirs, width: int, height: int) -> tuple:
    """The bilinear_map that samples a width x height equirectangular image
    along unit directions `dirs`."""
    return bilinear_map(*dir_equirect(dirs, width, height), width, height, wrap_x=True)


def bilinear_sample(img: np.ndarray, x, y, wrap_x: bool = True) -> np.ndarray:
    """Bilinearly sample at continuous pixel-center coordinates (x, y).

    Horizontal coordinates wrap around the seam when wrap_x is set (the
    panorama case); vertical coordinates always clamp. The incremental
    lerp form keeps sampling a constant image bit-exact.
    """
    a = image_data(img)
    return apply_bilinear_map(a, bilinear_map(x, y, a.shape[1], a.shape[0], wrap_x))


def bilinear_map(x, y, width: int, height: int, wrap_x: bool = True) -> tuple:
    """The image-independent half of bilinear_sample: flat gather indices
    of the four neighbours and the two lerp weights, for sampling any
    width x height image at (x, y) with apply_bilinear_map."""
    base, fx, fy = _compact_map(x, y, width, height, wrap_x)
    return _neighbours(base, width, height, wrap_x) + (fx, fy)


def _compact_map(x, y, width: int, height: int, wrap_x: bool) -> tuple:
    """(base, fx, fy) of bilinear_map: the flat index y0 * width + x0 of
    the top-left neighbour, as int64, and the two lerp weights."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("sampling coordinates must be finite")
    if wrap_x:
        x = np.mod(x, width)
        x0 = np.floor(x)
        fx = x - x0
        # np.mod can round a tiny negative x up to width itself
        x0 = x0.astype(np.int64) % width
    else:
        x = np.clip(x, 0.0, width - 1.0)
        x0 = np.floor(x)
        fx = x - x0
        x0 = x0.astype(np.int64)
    y = np.clip(y, 0.0, height - 1.0)
    y0 = np.floor(y)
    fy = y - y0
    base = y0.astype(np.int64)
    base *= width
    base += x0
    return base, fx, fy


def _neighbours(base: np.ndarray, width: int, height: int, wrap_x: bool) -> tuple:
    """The flat indices (i00, i10, i01, i11) of the four bilinear
    neighbours of the top-left ones base = y0 * width + x0 in a width x
    height image: x0 + 1 wraps to 0 when wrap_x and clamps to width - 1
    otherwise, and y0 + 1 clamps to height - 1."""
    x0 = base % width
    x1 = (x0 + 1) % width if wrap_x else np.minimum(x0 + 1, width - 1)
    i10 = base - x0 + x1
    down = np.where(base < (height - 1) * width, width, 0)
    return base, i10, base + down, i10 + down


def apply_bilinear_map(img: np.ndarray, smap: tuple) -> np.ndarray:
    """Sample an (H, W) or (H, W, C) image through a bilinear_map."""
    a = image_data(img)
    i00, i10, i01, i11, fx, fy = smap
    flat = a.reshape((a.shape[0] * a.shape[1],) + a.shape[2:])
    if a.ndim == 3:
        fx = fx[..., None]
        fy = fy[..., None]
    # The lerps top = v00 + fx * (v10 - v00), bottom likewise, and
    # top + fy * (bottom - top), in place on the gathered copies, all in the
    # promoted dtype: the second gather of each pair is cast before the
    # subtraction, so an integer image does not wrap around. + and * commute
    # exactly, so the values are those of the three expressions on a copy
    # of the image in the promoted dtype, with fewer full-size temporaries.
    dtype = np.result_type(flat, fx)
    v00 = np.take(flat, i00, axis=0)
    top = np.take(flat, i10, axis=0).astype(dtype, copy=False)
    top -= v00
    top *= fx
    top += v00
    del v00
    v01 = np.take(flat, i01, axis=0)
    bottom = np.take(flat, i11, axis=0).astype(dtype, copy=False)
    bottom -= v01
    bottom *= fx
    bottom += v01
    del v01
    bottom -= top
    bottom *= fy
    bottom += top
    return bottom


def plane_to_sphere(cx, cy, offset: float = PanoProjection.camera_offset):
    """Upper-hemisphere point hit by the ray from (0,0,-offset) through (cx, cy, 0).

    Returns (px, py, pz, valid); points whose ray meets the sphere only in
    the lower hemisphere are flagged invalid. For any offset in (0, 1] the
    valid region is exactly the unit disk of the plane.
    """
    cx = np.asarray(cx, dtype=np.float64)
    cy = np.asarray(cy, dtype=np.float64)
    d = float(offset)
    rho2 = cx * cx + cy * cy
    disc = rho2 * (1.0 - d * d) + d * d
    t = (d * d + np.sqrt(disc)) / (rho2 + d * d)
    px = t * cx
    py = t * cy
    pz = d * (t - 1.0)
    return px, py, pz, pz >= 0


def sphere_to_plane(px, py, pz, offset: float = PanoProjection.camera_offset):
    """Plane point (cx, cy) imaging direction p from the offset camera.

    Only meaningful for pz >= -offset; the ceiling conversion masks
    everything below the equator anyway.
    """
    d = float(offset)
    denom = np.asarray(pz, dtype=np.float64) + d
    denom = np.where(denom == 0, np.nan, denom)
    s = d / denom
    return s * np.asarray(px, dtype=np.float64), s * np.asarray(py, dtype=np.float64)


class _Plan(tuple):
    """A resampling plan: one read-only entry (idx, base, fx, fy) per RGB
    row band of its target, and wrap_x, the horizontal rule by which the
    other neighbours of base are found in the source."""

    wrap_x: bool


def _banded_plan(height: int, width: int, source: tuple, wrap_x: bool, band_coords) -> _Plan:
    """The plan for a height x width target sampling a source of shape
    source = (source_height, source_width). band_coords(xs, ys), given the
    column and row indices of one band, returns the band's validity mask
    and the source coordinates (x, y) of its valid pixels. idx and base are
    int32 unless target or source has 2^31 pixels or more. Read-only, as
    every caller shares it."""
    sh, sw = source
    index = np.int32 if max(height * width, sh * sw) < 2 ** 31 else np.int64
    bands = []
    for rows in _row_bands((height, width, 3)):
        xs, ys = np.meshgrid(np.arange(width), np.arange(height)[rows])
        valid, (x, y) = band_coords(xs, ys)
        base, fx, fy = _compact_map(x, y, sw, sh, wrap_x)
        entry = (np.flatnonzero(valid).astype(index), base.astype(index), fx, fy)
        for arr in entry:
            arr.flags.writeable = False
        bands.append(entry)
    plan = _Plan(bands)
    plan.wrap_x = wrap_x
    return plan


def _gathered(a: np.ndarray, plan: _Plan, height: int, width: int):
    """(rows, values) for each RGB row band of the height x width image
    that the plan fills from a: sampled at the plan's pixels, 0 everywhere
    else, including the bands past the plan's last."""
    for band, rows in enumerate(_row_bands((height, width, 3))):
        values = np.zeros((len(range(height)[rows]), width) + a.shape[2:])
        if band < len(plan):
            idx, base, fx, fy = plan[band]
            smap = _neighbours(base, a.shape[1], a.shape[0], plan.wrap_x) + (fx, fy)
            values.reshape((-1,) + a.shape[2:])[idx] = apply_bilinear_map(a, smap)
        yield rows, values


def _gather(a: np.ndarray, plan: _Plan, height: int, width: int, dtype=np.float64) -> np.ndarray:
    """The height x width image that the plan fills from a, in dtype."""
    out = np.empty((height, width) + a.shape[2:], dtype=dtype)
    for rows, values in _gathered(a, plan, height, width):
        out[rows] = values
    return out


@functools.lru_cache(maxsize=1)
def _disk_plan(proj: PanoProjection, pano_height: int, pano_width: int) -> _Plan:
    """The plan of pano_to_ceiling for a pano_height x pano_width panorama:
    the ceiling pixels inside the imaged disk and the map that samples the
    panorama at them."""
    ext = proj.plane_extent

    def band_coords(xs, ys):
        cx = ((xs + 0.5) / proj.ceil_width * 2.0 - 1.0) * ext
        cy = (1.0 - (ys + 0.5) / proj.ceil_height * 2.0) * ext
        px, py, pz, valid = plane_to_sphere(cx, cy, proj.camera_offset)
        dirs = np.stack((px[valid], py[valid], pz[valid]), axis=-1)
        return valid, dir_equirect(dirs, pano_width, pano_height)

    return _banded_plan(proj.ceil_height, proj.ceil_width, (pano_height, pano_width), True,
                        band_coords)


def pano_to_ceiling(pano, proj: PanoProjection) -> np.ndarray:
    """Project the panorama's upper hemisphere onto the ceiling-view plane.

    Plane points outside the imaged hemisphere (the corners beyond the unit
    disk) are filled with 0.
    """
    pano = image_data(pano)
    plan = _disk_plan(proj, pano.shape[0], pano.shape[1])
    return _gather(pano, plan, proj.ceil_height, proj.ceil_width)


@functools.lru_cache(maxsize=1)
def _ceiling_plan(proj: PanoProjection, ceil_height: int, ceil_width: int) -> _Plan:
    """The plan of ceiling_to_pano for a ceil_height x ceil_width image:
    the panorama pixels the plane reaches and the map that samples the
    ceiling at them."""
    w, h = proj.pano_width, proj.pano_height
    ext = proj.plane_extent

    def band_coords(xs, ys):
        dirs = equirect_dir(xs, ys, w, h)
        pz = dirs[..., 2]
        cx, cy = sphere_to_plane(dirs[..., 0], dirs[..., 1], pz, proj.camera_offset)
        valid = (pz >= 0) & (np.abs(cx) <= ext) & (np.abs(cy) <= ext)
        # Divide only in-extent coordinates: the rest overflow for a tiny extent.
        jc = (cx[valid] / ext + 1.0) / 2.0 * proj.ceil_width - 0.5
        ic = (1.0 - cy[valid] / ext) / 2.0 * proj.ceil_height - 0.5
        return valid, (jc, ic)

    # Rows y >= (h + 1) // 2 lie a half row or more below the equator.
    return _banded_plan((h + 1) // 2, w, (ceil_height, ceil_width), False, band_coords)


def ceiling_to_pano(ceil, proj: PanoProjection) -> tuple[np.ndarray, np.ndarray]:
    """Resample a ceiling-view image back into panorama coordinates.

    Returns (panorama, validity): pixels below the equator or projecting
    outside the imaged plane region are 0 with validity 0.
    """
    ceil = image_data(ceil)
    # sampling a constant image is exact: the validity is the gather of ones
    return _to_pano(ceil, proj, np.float64), _to_pano(np.ones(ceil.shape[:2]), proj, np.float64)


def _to_pano(ceil: np.ndarray, proj: PanoProjection, dtype) -> np.ndarray:
    """ceiling_to_pano's panorama of ceil in dtype."""
    plan = _ceiling_plan(proj, ceil.shape[0], ceil.shape[1])
    return _gather(ceil, plan, proj.pano_height, proj.pano_width, dtype)


def merge_mask(i_ceil, proj: PanoProjection, tau: float = DEFAULT_MERGE_TAU) -> np.ndarray:
    """Soft highlight mask in panorama coordinates from a linear ceiling LDR.

    max(0, channel_mean - tau) / (1 - tau) of the back-projected ceiling
    image, clamped into [0, 1], computed one row band at a time: 0
    wherever the ceiling view does not reach. The bands past the plan's
    last keep the mask's initial 0.0, the +0.0 the formula gives there.
    """
    if not 0 <= tau < 1:
        raise ValueError("tau must lie in [0, 1)")
    ceil = image_data(i_ceil)
    plan = _ceiling_plan(proj, ceil.shape[0], ceil.shape[1])
    h, w = proj.pano_height, proj.pano_width
    m = np.zeros((h, w))
    for rows, v in itertools.islice(_gathered(ceil, plan, h, w), len(plan)):
        mean = channel_mean(v) if v.ndim == 3 else v
        m[rows] = np.clip(np.maximum(0.0, mean - tau) / (1.0 - tau), 0.0, 1.0)
    return m


def merge_panorama(h_ceil, h_pano, m_p: np.ndarray, proj: PanoProjection) -> np.ndarray:
    """Blend the ceiling-branch reconstruction into the panorama.

    m_p * c + (1 - m_p) * h_pano in float64, where c is c2p(h_ceil): 0
    wherever the ceiling view does not reach. Where m_p is 0 this is
    h_pano, except that a -0.0 there becomes +0.0. m_p has the panorama's
    shape, or is (H, W), or (H, W, 1) when the panorama has channels.
    """
    return _merge(h_ceil, h_pano, m_p, proj, np.float64)


def _merge(h_ceil, h_pano, m_p: np.ndarray, proj: PanoProjection, dtype) -> np.ndarray:
    """merge_panorama's blend in dtype, each float64 row band cast as it is
    made."""
    pano = image_data(h_pano)
    ceil = image_data(h_ceil)
    h, w = proj.pano_height, proj.pano_width
    if (h, w) + ceil.shape[2:] != pano.shape:
        raise ValueError(
            f"shape mismatch: converted ceiling {(h, w) + ceil.shape[2:]} vs panorama {pano.shape}"
        )
    m = _fitted_mask(m_p, pano.shape)
    plan = _ceiling_plan(proj, ceil.shape[0], ceil.shape[1])
    out = np.empty(pano.shape, dtype=dtype)
    for rows, c in _gathered(ceil, plan, h, w):
        mb = m[rows]
        out[rows] = mb * c + (1.0 - mb) * pano[rows]
    return out


def _camera_basis(yaw: float, pitch: float):
    cy, sy = math.cos(yaw), math.sin(yaw)
    cp, sp = math.cos(pitch), math.sin(pitch)
    forward = np.array([cp * cy, cp * sy, sp])
    right = np.array([-sy, cy, 0.0])
    up = np.array([-sp * cy, -sp * sy, cp])
    return forward, right, up


def crop_perspective(pano, yaw: float, pitch: float, hfov: float,
                     out_width: int, out_height: int) -> np.ndarray:
    """Pinhole crop of the panorama from the sphere center.

    yaw/pitch/hfov in radians; yaw 0, pitch 0 looks along the panorama
    center column, positive pitch tilts up. Vertical field of view follows
    from the output aspect ratio.
    """
    if not 0 < hfov < np.pi:
        raise ValueError("horizontal field of view must lie in (0, pi)")
    if out_width < 1 or out_height < 1:
        raise ValueError("output size must be at least 1x1")
    a = image_data(pano)
    forward, right, up = _camera_basis(yaw, pitch)
    tan_x = math.tan(hfov / 2.0)
    tan_y = tan_x * out_height / out_width
    u = (2.0 * (np.arange(out_width) + 0.5) / out_width - 1.0) * tan_x
    v = (1.0 - 2.0 * (np.arange(out_height) + 0.5) / out_height) * tan_y
    uu, vv = np.meshgrid(u, v)
    dirs = forward + uu[..., None] * right + vv[..., None] * up
    return apply_bilinear_map(a, equirect_map(dirs, a.shape[1], a.shape[0]))


def crop_set(pano, out_width: int = 320, out_height: int = 240,
             hfov_deg: float = 60.0, outdoor: bool = False):
    """The dataset cropping scheme: 4:3 views at fixed yaws.

    Six horizon-level crops at 60-degree yaw steps, plus three crops at
    45 degrees elevation (omitted for outdoor scenes). Returns a list of
    (image, params) pairs where params records yaw/pitch in degrees.
    """
    return [(crop_perspective(pano, math.radians(yaw), math.radians(pitch),
                              math.radians(hfov_deg), out_width, out_height),
             {"yaw_deg": yaw, "pitch_deg": pitch, "hfov_deg": hfov_deg,
              "width": out_width, "height": out_height})
            for yaw, pitch in crop_views(outdoor)]


def crop_views(outdoor: bool = False) -> list:
    """The (yaw, pitch) degrees of crop_set's views, in its order."""
    views = [(yaw, 0.0) for yaw in CROP_YAWS_DEG]
    if not outdoor:
        views += [(yaw, CROP_ELEVATED_PITCH_DEG) for yaw in CROP_ELEVATED_YAWS_DEG]
    return views
