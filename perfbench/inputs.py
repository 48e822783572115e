"""Seeded synthetic inputs and the closed-form geometry the checks use.

Every input is a pure function of the seed. Panoramas are a smooth
sky/ground field times a low-frequency lognormal texture and fine
per-pixel lognormal noise, plus a few small bright discs (lights) so that
auto-exposure clips, calibration masks pixels and the merge mask is
non-zero. Predictions are the ground truth times a global scale and
multiplicative lognormal noise.
"""

from __future__ import annotations

import numpy as np

import imgio

# The four-sphere 160x120 evaluation scene of the hdrkit README.
SCENE_TEXT = """\
camera 160 120 4.5 0 0.9
background on
sphere -3.3 0 0.9 0.9 diffuse 0.85 0.85 0.85
sphere -1.1 0 0.9 0.9 mirror
sphere 1.1 0 0.9 0.9 glossy 64 0.9 0.9 0.9
sphere 3.3 0 0.9 0.9 glossy 8 0.7 0.7 0.7
"""


def pano_dirs(w: int, h: int) -> np.ndarray:
    """(h, w, 3) unit directions of equirectangular pixel centres, +z up."""
    theta = np.pi * (np.arange(h) + 0.5) / h
    phi = 2.0 * np.pi * (np.arange(w) + 0.5) / w - np.pi
    st = np.sin(theta)[:, None]
    return np.stack(np.broadcast_arrays(st * np.cos(phi), st * np.sin(phi),
                                        np.cos(theta)[:, None]), axis=-1)


def _smooth_field(rng, h: int, w: int, cells: int, sigma: float) -> np.ndarray:
    """Bilinear upsampling of a coarse Gaussian grid, wrapped horizontally."""
    gh, gw = max(2, h // cells + 2), max(2, w // cells + 1)
    grid = rng.normal(0.0, sigma, (gh, gw))
    grid = np.concatenate((grid, grid[:, :1]), axis=1)
    ys = (np.arange(h) + 0.5) / h * (gh - 1)
    xs = (np.arange(w) + 0.5) / w * gw
    rows = np.stack([np.interp(xs, np.arange(gw + 1), g) for g in grid])
    return np.stack([np.interp(ys, np.arange(gh), col) for col in rows.T], axis=1)


def panorama(rng, w: int, h: int) -> np.ndarray:
    """(h, w, 3) float64 radiance of a synthetic indoor/outdoor panorama."""
    d = pano_dirs(w, h)
    z = d[..., 2]
    sky = (0.6 + 1.4 * np.clip(z, 0, 1))[..., None] * np.array([0.8, 0.9, 1.1])
    ground = (0.15 * np.clip(1 + z, 0, 1) ** 3 + 0.0004)[..., None] * np.array([1.0, 0.85, 0.7])
    field = np.where((z >= 0)[..., None], sky, ground)
    field = field * np.exp(_smooth_field(rng, h, w, 32, 0.5))[..., None]
    field = field * rng.lognormal(0.0, 0.05, field.shape)
    # lights: three high on the ceiling, one near the horizon
    elevations = np.concatenate((rng.uniform(20, 70, 3), rng.uniform(2, 10, 1)))
    for elev in np.radians(elevations):
        az = rng.uniform(-np.pi, np.pi)
        c = np.array([np.cos(elev) * np.cos(az), np.cos(elev) * np.sin(az), np.sin(elev)])
        radius = np.radians(rng.uniform(3.0, 6.0))
        disc = d @ c > np.cos(radius)
        field[disc] *= rng.uniform(80.0, 300.0)
    return field


def noisy_copy(rng, exact: np.ndarray, scale: float, sigma: float) -> np.ndarray:
    return exact.astype(np.float64) * scale * rng.lognormal(0.0, sigma, exact.shape)


def rgbe_exact(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """RGBE quadruples of the values, and the float32 radiance they decode to."""
    quads = imgio.rgbe_quantize(values)
    return quads, imgio.rgbe_values(quads)


def bilinear(img: np.ndarray, x: np.ndarray, y: np.ndarray, wrap_x: bool) -> np.ndarray:
    """Bilinear lookup at pixel-centre coordinates; x wraps or clamps, y clamps."""
    h, w = img.shape[:2]
    if wrap_x:
        x = np.mod(x, w)
    else:
        x = np.clip(x, 0.0, w - 1.0)
    y = np.clip(y, 0.0, h - 1.0)
    x0 = np.floor(x).astype(np.int64)
    y0 = np.floor(y).astype(np.int64)
    fx = (x - x0)[..., None]
    fy = (y - y0)[..., None]
    x1 = (x0 + 1) % w if wrap_x else np.minimum(x0 + 1, w - 1)
    x0 %= w
    y1 = np.minimum(y0 + 1, h - 1)
    img = img.astype(np.float64)
    top = img[y0, x0] * (1 - fx) + img[y0, x1] * fx
    bottom = img[y1, x0] * (1 - fx) + img[y1, x1] * fx
    return top * (1 - fy) + bottom * fy


def ceiling_source(n: int, pano_w: int, pano_h: int):
    """Stereographic ceiling view (projection from the south pole onto the
    plane z = 0, plane extent 1): for each of the n*n ceiling pixels, the
    panorama pixel coordinates it images and whether it lies inside the
    unit disk."""
    c = (np.arange(n) + 0.5) / n * 2.0 - 1.0
    cx, cy = np.meshgrid(c, -c)
    r2 = cx * cx + cy * cy
    p = np.stack((2 * cx, 2 * cy, 1 - r2), axis=-1) / (1 + r2)[..., None]
    phi = np.arctan2(p[..., 1], p[..., 0])
    theta = np.arccos(np.clip(p[..., 2], -1.0, 1.0))
    x = (phi + np.pi) / (2 * np.pi) * pano_w - 0.5
    y = theta / np.pi * pano_h - 0.5
    return x, y, r2 <= 1.0


def ceiling_view(pano: np.ndarray, n: int) -> np.ndarray:
    x, y, inside = ceiling_source(n, pano.shape[1], pano.shape[0])
    out = bilinear(pano, x, y, wrap_x=True)
    out[~inside] = 0.0
    return out


def pano_source(pano_w: int, pano_h: int, n: int):
    """Inverse of ceiling_source: for each panorama pixel, the ceiling pixel
    coordinates (col, row) that image it, and whether it is above the
    horizon (the only pixels the ceiling view holds)."""
    d = pano_dirs(pano_w, pano_h)
    upper = d[..., 2] >= 0
    s = 1.0 / (np.where(upper, d[..., 2], 0.0) + 1.0)
    cx, cy = d[..., 0] * s, d[..., 1] * s
    col = (cx + 1.0) / 2.0 * n - 0.5
    row = (1.0 - cy) / 2.0 * n - 0.5
    return col, row, upper
