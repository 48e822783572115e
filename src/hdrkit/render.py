"""Deterministic environment-light renderer for render-based evaluation.

Spheres of simple materials (diffuse, mirror, glossy), lit only by an
equirectangular environment map and seen by an orthographic camera looking
along -y. No shadows or interreflections: the
point is a reproducible relighting comparison, not photorealism.

Diffuse irradiance is the direct sum over environment texels, grouped per
row into arcs of lit columns and added row by row, so renders are
bit-deterministic and can be checked against a uniform environment's
analytic value. Every band of rows, pixels or normals is one of
image._row_bands. Glossy lobes use a fixed stratified sample grid (a
mirror's lobe is one sample); each pixel's lobe mean is one reduction over
all of its samples, so no band moves a byte. The environments of one
render are stacked once, channel-interleaved, and each lookup gathers all
of them. Ranges of camera pixels are hit-tested, shaded and written into
float32 results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .image import HdrImage, _check_shape, _pair, _row_bands, image_data
from .losses import log_psnr, preview_ssim
from .pano import apply_bilinear_map, dir_equirect, equirect_dir, equirect_map

__all__ = [
    "Material",
    "Sphere",
    "OrthoCamera",
    "SceneConfig",
    "SceneParseError",
    "parse_scene",
    "default_scene_text",
    "diffuse_irradiance",
    "render",
    "render_many",
    "compare_renders",
    "GLOSSY_GRID",
    "MAX_CAMERA_PIXELS",
    "MAX_SCENE_LENGTH",
]

GLOSSY_GRID = (16, 16)  # stratified samples per glossy shading point
# Rendering two 512 x 256 environments peaks at the 24 bytes per pixel of
# its float32 results plus one pixel range's temporaries (tracemalloc, numpy
# 2.4): 24.3 and 84.0 MiB for the default scene at 1024 x 768 and 2048 x
# 1536, and 28.3 and 84.0 MiB for one diffuse sphere that fills the frame.
# So this cap (2048 x 2048) bounds such a render near 0.11 GB whatever a
# scene file claims.
MAX_CAMERA_PIXELS = 1 << 22
# Bound on every scene length: sphere centres and radii, camera span and
# centre. Hit-testing squares coordinates up to span * height / width, which
# stays finite for lengths within this bound and cameras within the cap. A
# radius is also at least 1 / MAX_SCENE_LENGTH, so that its square does not
# underflow and the normals (hit offset / radius) stay unit length.
MAX_SCENE_LENGTH = 1e100
_VIEW_DIR = np.array([0.0, -1.0, 0.0])  # the orthographic camera looks along -y


@dataclass(frozen=True)
class Material:
    kind: str  # diffuse | mirror | glossy
    albedo: tuple[float, float, float] = (1.0, 1.0, 1.0)
    exponent: float = 1.0

    def __post_init__(self):
        if self.kind not in ("diffuse", "mirror", "glossy"):
            raise ValueError(f"unknown material kind {self.kind!r}")
        if any(not 0 <= a <= 1 for a in self.albedo):
            raise ValueError("albedo components must lie in [0, 1]")
        if self.kind == "glossy" and not (math.isfinite(self.exponent) and self.exponent >= 1):
            raise ValueError("glossy exponent must be finite and >= 1")


@dataclass(frozen=True)
class Sphere:
    center: tuple[float, float, float]
    radius: float
    material: Material

    def __post_init__(self):
        if not all(abs(c) <= MAX_SCENE_LENGTH for c in self.center):
            raise ValueError("sphere center coordinates must be at most "
                             f"{MAX_SCENE_LENGTH:g} in magnitude")
        if not 1 / MAX_SCENE_LENGTH <= self.radius <= MAX_SCENE_LENGTH:
            raise ValueError("sphere radius must lie in "
                             f"[{1 / MAX_SCENE_LENGTH:g}, {MAX_SCENE_LENGTH:g}]")


@dataclass(frozen=True)
class OrthoCamera:
    """Orthographic camera looking along -y at the x/z plane region
    [center_x - span, center_x + span] x [center_z - span*h/w, ...]."""

    width: int
    height: int
    span: float = 3.0
    center_x: float = 0.0
    center_z: float = 1.0

    def __post_init__(self):
        if self.width < 1 or self.height < 1 or not self.span > 0:
            raise ValueError("camera needs positive dimensions and span")
        if self.width * self.height > MAX_CAMERA_PIXELS:
            raise ValueError(f"camera has {self.width * self.height} pixels, "
                             f"more than the {MAX_CAMERA_PIXELS} allowed")
        if not all(abs(v) <= MAX_SCENE_LENGTH for v in (self.span, self.center_x, self.center_z)):
            raise ValueError("camera span and center must be at most "
                             f"{MAX_SCENE_LENGTH:g} in magnitude")


@dataclass(frozen=True)
class SceneConfig:
    camera: OrthoCamera
    spheres: tuple[Sphere, ...] = ()
    background: bool = True


class SceneParseError(ValueError):
    pass


_SWITCH_ON = ("on", "true", "1", "yes")
_SWITCH_OFF = ("off", "false", "0", "no")


def parse_scene(text: str) -> SceneConfig:
    """Parse the line-based scene description.

    Directives (one per line, '#' comments allowed):
      camera W H SPAN [CX CZ]
      sphere CX CY CZ RADIUS diffuse R G B
      sphere CX CY CZ RADIUS mirror
      sphere CX CY CZ RADIUS glossy EXPONENT R G B
      background on|off
    A scene has one camera line and at most one background line.
    """
    camera = None
    spheres: list[Sphere] = []
    background = True
    once: dict[str, int] = {}  # line of each camera or background directive
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        word, args = parts[0].lower(), parts[1:]
        try:
            if word == "camera":
                w, h = int(args[0]), int(args[1])
                span = float(args[2]) if len(args) > 2 else 3.0
                cx = float(args[3]) if len(args) > 3 else 0.0
                cz = float(args[4]) if len(args) > 4 else 1.0
                camera = OrthoCamera(w, h, span, cx, cz)
                used = 5
            elif word == "sphere":
                center = (float(args[0]), float(args[1]), float(args[2]))
                radius = float(args[3])
                kind = args[4].lower()
                if kind == "mirror":
                    mat = Material("mirror")
                    used = 5
                elif kind == "diffuse":
                    mat = Material("diffuse", (float(args[5]), float(args[6]), float(args[7])))
                    used = 8
                elif kind == "glossy":
                    mat = Material("glossy",
                                   (float(args[6]), float(args[7]), float(args[8])),
                                   exponent=float(args[5]))
                    used = 9
                else:
                    raise SceneParseError(f"unknown material {kind!r}")
                spheres.append(Sphere(center, radius, mat))
            elif word == "background":
                value = args[0].lower()
                if value not in _SWITCH_ON + _SWITCH_OFF:
                    raise SceneParseError(f"background must be on or off, not {args[0]!r}")
                background = value in _SWITCH_ON
                used = 1
            else:
                raise SceneParseError(f"unknown directive {word!r}")
            if len(args) > used:
                raise SceneParseError(f"unexpected {' '.join(args[used:])!r} after {word!r}")
            if word in once:
                raise SceneParseError(f"second {word!r} line (the first is line {once[word]})")
            if word != "sphere":
                once[word] = lineno
        except (IndexError, ValueError) as exc:
            if isinstance(exc, SceneParseError):
                raise SceneParseError(f"line {lineno}: {exc}") from None
            raise SceneParseError(f"line {lineno}: bad arguments for {word!r}: {exc}") from None
    if camera is None:
        raise SceneParseError("scene has no camera line")
    return SceneConfig(camera=camera, spheres=tuple(spheres), background=background)


def default_scene_text(width: int = 160, height: int = 120) -> str:
    """A small evaluation scene: a row of spheres with the four materials."""
    return "\n".join([
        f"camera {width} {height} 4.5 0 0.9",
        "background on",
        "sphere -3.3 0 0.9 0.9 diffuse 0.85 0.85 0.85",
        "sphere -1.1 0 0.9 0.9 mirror",
        "sphere 1.1 0 0.9 0.9 glossy 64 0.9 0.9 0.9",
        "sphere 3.3 0 0.9 0.9 glossy 8 0.7 0.7 0.7",
        "",
    ])


def _env_stack(arrs) -> np.ndarray:
    """One C-contiguous (h, w, K, 3) stack of K environments, each checked
    as an image and all of one shape, channel-interleaved, so that one
    gather through its (h, w, 3K) view looks up every environment. One
    C-contiguous environment is viewed, not copied."""
    for a in arrs:
        _check_shape(a.shape)
        _pair(arrs[0], a)
    if len(arrs) == 1:
        return np.ascontiguousarray(arrs[0])[:, :, None]
    return np.stack(arrs, axis=2)


def diffuse_irradiance(normals, env) -> np.ndarray:
    """Cosine-weighted irradiance E(n) summed over environment texels.

    normals: (..., 3) unit vectors. env: one (h, w, 3) environment, giving
    (..., 3) irradiance, or a (K, h, w, 3) stack of environments, giving
    (K, ..., 3). Outgoing diffuse radiance is albedo * E / pi. Under a
    uniform environment L0 the sum converges to pi * L0.

    The sum is grouped per environment row: a normal's lit texels in one
    row form one arc of columns, and the arc's weighted radiance is a
    difference of prefix sums along the row. Prefix sums are made one band
    of rows at a time, and gathered for a chunk of normals at a time, both
    sized by image._row_bands, so memory grows with neither the
    environment's resolution nor, beyond each normal's own sums, the number
    of normals. Each normal's sum under each environment is made on its
    own, row after row, so neither the other environments of a stack nor
    how the rows or normals are cut changes a byte of it, and an arc of
    zero texels sums to zero.
    """
    n = np.asarray(normals, dtype=np.float64)
    envs = image_data(env)
    stacked = envs.ndim == 4
    out = _irradiance(n, _env_stack(list(envs) if stacked else [envs]))
    return out if stacked else out[0]


def _irradiance(normals: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """(K, ..., 3) irradiance at float64 normals (..., 3) under the K
    environments of an _env_stack, summed as arcs of rows.

    With texel directions d(theta, phi) from equirect_dir, n . d is
    c + r cos(phi - phi0), with c = n_z cos(theta), r = sin(theta)
    hypot(n_x, n_y) and phi0 the normal's azimuth, so a normal's lit texels
    in one row are the columns of one arc around phi0: all of them when
    c >= r, none when c <= -r. Texels weighted by solid angle and by each
    component of their direction are prefix-summed along each row, so a
    row's share of a normal's irradiance is n times one difference of
    prefixes per component, plus the row's total when the arc wraps the
    seam. Prefixes are made and read in the _row_bands of rows and normals;
    each normal's sum is gathered on its own and added row by row, so no cut
    of either, and no other normal or environment, moves a bit of it."""
    h, w, k = stack.shape[:3]
    flat = normals.reshape(-1, 3)
    rho = np.hypot(flat[:, 0], flat[:, 1])
    # the column of each normal's azimuth; a NaN normal's sum is NaN anyway
    mid = np.nan_to_num(dir_equirect(flat, w, h)[0])
    sums = np.zeros((len(flat), 3, 3 * k))
    bands = [np.arange(h)[rows] for rows in _row_bands((h, (w + 1) * 9 * k))]
    prefix = np.zeros((max(map(len, bands), default=0), w + 1, 3, 3 * k))  # column 0 stays 0
    for y in bands:
        table = prefix[:len(y)]
        theta = np.pi * (y + 0.5) / h
        cos_t, sin_t = np.cos(theta), np.sin(theta)
        d_omega = (2.0 * np.pi / w) * (np.pi / h) * sin_t
        dirs = equirect_dir(np.arange(w), y[:, None], w, h) * d_omega[:, None, None]
        np.multiply(stack[y[0]:y[-1] + 1].reshape(len(y), w, 1, 3 * k), dirs[..., None],
                    out=table[:, 1:])
        np.cumsum(table, axis=1, out=table)
        lines = table.reshape(-1, 3, 3 * k)
        base = (w + 1) * np.arange(len(y))[:, None]
        for part in _row_bands((len(flat), len(y) * 9 * k)):  # the values a normal gathers
            # lit columns x of row y: |x - mid| < half, mod w
            c = np.multiply.outer(cos_t, flat[part, 2])
            r = np.multiply.outer(sin_t, rho[part])
            full = c >= r
            arc = (c > -r) & ~full
            half = np.divide(-c, r, out=np.zeros_like(c), where=arc)
            np.arccos(half, out=half, where=arc)
            half *= w / (2.0 * np.pi)
            start = np.floor(mid[part] - half).astype(np.intp) + 1
            count = np.where(full, w,
                             np.clip(np.ceil(mid[part] + half).astype(np.intp) - start, 0, w))
            start = np.where(start < 0, start + w, start)  # now 0 <= start <= w
            seam = np.where(start + count > w, w, 0)  # a wrapped arc adds the row's total
            lit = lines.take(base + start + count - seam, axis=0)
            lit -= lines.take(base + start, axis=0)
            lit += lines.take(base + seam, axis=0)
            acc = sums[part]
            for row in lit:  # one row at a time, so that no cut of the rows moves a bit
                acc += row
    out = (flat[:, 0, None] * sums[:, 0] + flat[:, 1, None] * sums[:, 1]
           + flat[:, 2, None] * sums[:, 2])
    return out.reshape(-1, k, 3).transpose(1, 0, 2).reshape((k,) + normals.shape)


def _orthonormal_basis(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two tangents per unit axis vector; branchless (Duff et al. style)."""
    z = axis[..., 2]
    sign = np.where(z >= 0, 1.0, -1.0)
    a = -1.0 / (sign + z)
    b = axis[..., 0] * axis[..., 1] * a
    t1 = np.stack([1.0 + sign * axis[..., 0] ** 2 * a, sign * b, -sign * axis[..., 0]],
                  axis=-1)
    t2 = np.stack([b, sign + axis[..., 1] ** 2 * a, -axis[..., 1]], axis=-1)
    return t1, t2


def _glossy_dirs(reflect: np.ndarray, exponent: float) -> np.ndarray:
    """(N, S, 3) directions of a fixed cos^k lobe sample grid per axis."""
    n1, n2 = GLOSSY_GRID
    u1 = (np.arange(n1) + 0.5) / n1
    u2 = (np.arange(n2) + 0.5) / n2
    uu1, uu2 = np.meshgrid(u1, u2)
    cos_a = uu1.ravel() ** (1.0 / (exponent + 1.0))
    sin_a = np.sqrt(np.maximum(0.0, 1.0 - cos_a ** 2))
    phi = 2.0 * np.pi * uu2.ravel()
    local = np.stack([sin_a * np.cos(phi), sin_a * np.sin(phi), cos_a], axis=-1)

    t1, t2 = _orthonormal_basis(reflect)
    return (local[None, :, 0, None] * t1[:, None, :]
            + local[None, :, 1, None] * t2[:, None, :]
            + local[None, :, 2, None] * reflect[:, None, :])


def _hits(cam: OrthoCamera, spheres, band: slice):
    """(sphere, flat pixel indices, unit normals) for each sphere that is
    the nearest hit of some of the camera's row-major pixels in the range
    `band`, in pixel order. Each value is made elementwise from its pixel's
    index, so no cut of the pixels changes a bit."""
    w, h = cam.width, cam.height
    pixels = np.arange(band.start, min(band.stop, w * h))
    rows, cols = np.divmod(pixels, w)
    x = cam.center_x + (2.0 * (cols + 0.5) / w - 1.0) * cam.span
    z = cam.center_z + (1.0 - 2.0 * (rows + 0.5) / h) * (cam.span * h / w)
    hit_y = np.full(len(pixels), -np.inf)
    hit_index = np.full(len(pixels), -1)
    for si, sphere in enumerate(spheres):
        cx, cy, cz = sphere.center
        rr = sphere.radius ** 2 - (x - cx) ** 2 - (z - cz) ** 2
        visible = rr >= 0
        y = np.where(visible, cy + np.sqrt(np.maximum(rr, 0.0)), -np.inf)
        closer = visible & (y > hit_y)
        hit_y[closer] = y[closer]
        hit_index[closer] = si
    hits = []
    for si, sphere in enumerate(spheres):
        mask = hit_index == si
        if mask.any():
            cx, cy, cz = sphere.center
            normals = np.stack([x[mask] - cx, hit_y[mask] - cy, z[mask] - cz], axis=-1)
            hits.append((sphere, pixels[mask], normals / sphere.radius))
    return hits


def _shade(material: Material, normals: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """(K, n, 3) radiance at the float64 normals (n, 3) of one material under
    each of the K environments of the _env_stack `stack`. A mirror or glossy
    pixel is its albedo times one mean over all of its lobe samples' lookups
    (a mirror has one, along the reflected direction), taken in row bands of
    (n, samples, 3K) with one gather for all K environments, whose lookups
    are freed in turn. A diffuse pixel's irradiance is summed on its own,
    so no cut of the normals changes a byte of any material."""
    albedo = np.asarray(material.albedo)
    if material.kind == "diffuse":
        return albedo * _irradiance(normals, stack) / np.pi
    env_h, env_w, k = stack.shape[:3]
    envs = stack.reshape(env_h, env_w, 3 * k)
    # reflect the view direction about the normal
    dot = normals @ _VIEW_DIR
    reflect = _VIEW_DIR[None, :] - 2.0 * dot[:, None] * normals
    reflect /= np.linalg.norm(reflect, axis=-1, keepdims=True)
    mirror = material.kind == "mirror"
    out = np.empty((len(reflect), k, 3))
    for band in _row_bands((len(reflect), 1 if mirror else math.prod(GLOSSY_GRID), 3 * k)):
        lookup = equirect_map(reflect[band, None] if mirror
                              else _glossy_dirs(reflect[band], material.exponent), env_w, env_h)
        mean = apply_bilinear_map(envs, lookup).mean(axis=1)
        del lookup  # before the next band's is built
        out[band] = albedo * mean.reshape(-1, k, 3)
    return out.transpose(1, 0, 2)


def render_many(scene: SceneConfig, envs) -> list[HdrImage]:
    """Render the scene under each environment map; deterministic.

    The environments, which must share one shape, are stacked once,
    channel-interleaved, so each lookup gathers all of them. The camera's
    flat pixels are taken in ranges of at most 21845 (the _row_bands of
    their RGB values); each range is hit-tested, shaded and written into
    the float32 results, so a render keeps only those and one range's
    temporaries. No cut of the pixels changes a byte, and each result is
    byte-identical to rendering its environment alone.
    """
    arrs = [image_data(e) for e in envs]
    if not arrs:
        return []
    stack = _env_stack(arrs)
    env_h, env_w, k = stack.shape[:3]
    out = np.zeros((k, scene.camera.height, scene.camera.width, 3), dtype=np.float32)
    if scene.background:
        # the camera is orthographic: one lookup colours the whole background
        out[:] = np.maximum(apply_bilinear_map(stack.reshape(env_h, env_w, 3 * k),
                                               equirect_map(_VIEW_DIR, env_w, env_h)),
                            0.0).reshape(k, 1, 1, 3)
    flat = out.reshape(k, -1, 3)
    for band in _row_bands((flat.shape[1], 3)):
        for sphere, pixels, normals in _hits(scene.camera, scene.spheres, band):
            flat[:, pixels] = np.maximum(_shade(sphere.material, normals, stack), 0.0)
    return [HdrImage(image) for image in out]


def render(scene: SceneConfig, env) -> HdrImage:
    """Render the scene under the environment map; deterministic."""
    return render_many(scene, [env])[0]


def compare_renders(a, b) -> dict:
    """Metric bundle for two renders: linear MSE, log-domain PSNR, and the
    preview_ssim of the pair."""
    pa, pb = _pair(a, b)
    return {
        "mse": float((np.subtract(pa, pb, dtype=np.float64) ** 2).mean()),
        "log_psnr": log_psnr(pa, pb),
        "ssim": preview_ssim(pa, pb),
    }
