"""Deterministic environment-light renderer for render-based evaluation.

Spheres of simple materials (diffuse, mirror, glossy), lit only by an
equirectangular environment map and seen by an orthographic camera looking
along -y. No shadows or interreflections: the
point is a reproducible relighting comparison, not photorealism.

Diffuse irradiance is a direct sum over environment texels, so renders are
bit-deterministic and can be checked against the analytic uniform-
environment value. Glossy lobes use a fixed stratified sample grid (a
mirror's lobe is one sample), shaded in bands of pixels; each pixel's lobe
mean is one reduction over all of its samples, so bands move no byte.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .image import HdrImage, _row_bands, image_data
from .losses import log_psnr, preview_ssim
from .pano import apply_bilinear_map, equirect_dir, equirect_map

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
# Rendering two 512 x 256 environments peaks at about 100 MiB per million
# camera pixels (tracemalloc, default scene), so this cap (2048 x 2048)
# bounds a render near 0.4 GB whatever size a scene file claims.
MAX_CAMERA_PIXELS = 1 << 22
# Bound on every scene length: sphere centres and radii, camera span and
# centre. Hit-testing squares coordinates up to span * height / width, which
# stays finite for lengths within this bound and cameras within the cap. A
# radius is also at least 1 / MAX_SCENE_LENGTH, so that its square does not
# underflow and the normals (hit offset / radius) stay unit length.
MAX_SCENE_LENGTH = 1e100
# One clamped-cosine tile is 512 x 256 float64 = 1 MiB, which stays in a
# 2 MiB L2 cache while it is reduced against each environment.
_NORMAL_TILE = 512
_TEXEL_TILE = 256
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
    """
    camera = None
    spheres: list[Sphere] = []
    background = True
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


def _env_texel_table(envs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Texel directions (3, T) and solid-angle-weighted radiance (K, T, 3)
    of a (K, h, w, 3) stack of environments sharing one resolution."""
    k, h, w = envs.shape[:3]
    dirs = equirect_dir(np.arange(w)[None, :], np.arange(h)[:, None], w, h)
    d_omega = (2.0 * np.pi / w) * (np.pi / h) * np.sin(np.pi * (np.arange(h) + 0.5) / h)
    weighted = envs * d_omega[:, None, None]
    return np.ascontiguousarray(dirs.reshape(-1, 3).T), weighted.reshape(k, -1, 3)


def diffuse_irradiance(normals, env) -> np.ndarray:
    """Cosine-weighted irradiance E(n) summed over environment texels.

    normals: (..., 3) unit vectors. env: one (h, w, 3) environment, giving
    (..., 3) irradiance, or a (K, h, w, 3) stack of environments, giving
    (K, ..., 3). Outgoing diffuse radiance is albedo * E / pi. Under a
    uniform environment L0 the sum converges to pi * L0.

    The sum runs over tiles of normals x texels small enough for the
    clamped-cosine tile to stay in cache, so memory does not grow with the
    environment's resolution. Each tile is computed once and reduced against
    every environment with one same-shaped product, so an environment's
    result does not depend on the others in the stack.
    """
    n = np.asarray(normals, dtype=np.float64)
    envs = image_data(env)
    stacked = envs.ndim == 4
    if not stacked:
        envs = envs[None]
    out = _irradiance(n, _env_texel_table(envs))
    return out if stacked else out[0]


def _irradiance(normals: np.ndarray, texels: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """(K, ..., 3) irradiance at float64 normals (..., 3) under the K
    environments of an _env_texel_table, summed tile by tile."""
    dirs, weighted = texels
    flat = normals.reshape(-1, 3)
    out = np.zeros((len(weighted), len(flat), 3))
    for n0 in range(0, len(flat), _NORMAL_TILE):
        chunk = flat[n0:n0 + _NORMAL_TILE]
        acc = out[:, n0:n0 + _NORMAL_TILE]
        for t0 in range(0, dirs.shape[1], _TEXEL_TILE):
            cos = chunk @ dirs[:, t0:t0 + _TEXEL_TILE]
            np.maximum(cos, 0.0, out=cos)
            for k in range(len(weighted)):
                acc[k] += cos @ weighted[k, t0:t0 + _TEXEL_TILE]
    return out.reshape((len(weighted),) + normals.shape)


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


@dataclass(frozen=True)
class _SpherePlan:
    """What shading one sphere needs, independent of the environment."""

    pixels: np.ndarray   # (N,) flat indices of the pixels where it is the nearest hit
    material: Material
    normals: np.ndarray  # (N, 3) unit normals at those pixels


def _plan_scene(scene: SceneConfig, env_w: int, env_h: int):
    """Everything in a render that depends on the scene and the environment
    resolution but not on its values: the background lookup and one
    _SpherePlan per visible sphere."""
    cam = scene.camera
    w, h = cam.width, cam.height
    span_z = cam.span * h / w
    xs = cam.center_x + (2.0 * (np.arange(w) + 0.5) / w - 1.0) * cam.span
    zs = cam.center_z + (1.0 - 2.0 * (np.arange(h) + 0.5) / h) * span_z
    X, Z = np.meshgrid(xs, zs)

    hit_y = np.full((h, w), -np.inf)
    hit_index = np.full((h, w), -1, dtype=np.int64)
    for si, sphere in enumerate(scene.spheres):
        cx, cy, cz = sphere.center
        dx = X - cx
        dz = Z - cz
        rr = sphere.radius ** 2 - dx ** 2 - dz ** 2
        visible = rr >= 0
        y = np.where(visible, cy + np.sqrt(np.maximum(rr, 0.0)), -np.inf)
        closer = visible & (y > hit_y)
        hit_y[closer] = y[closer]
        hit_index[closer] = si

    background = equirect_map(_VIEW_DIR, env_w, env_h) if scene.background else None
    spheres = []
    for si, sphere in enumerate(scene.spheres):
        mask = hit_index == si
        if not mask.any():
            continue
        cx, cy, cz = sphere.center
        normals = np.stack([(X[mask] - cx), (hit_y[mask] - cy), (Z[mask] - cz)],
                           axis=-1) / sphere.radius
        spheres.append(_SpherePlan(np.flatnonzero(mask), sphere.material, normals))
    return background, spheres


def _shade(sp: _SpherePlan, part: slice, stack: np.ndarray, texels) -> np.ndarray:
    """(K, n, 3) radiance of the pixels `part` of one sphere under each of
    the K environments in `stack`, whose _env_texel_table is `texels`
    (None unless the sphere is diffuse). A mirror or glossy pixel is its
    albedo times one mean over all of its lobe samples' lookups (a mirror
    has one, along the reflected direction), taken in row bands of
    (n, samples, 3) whose lookups are freed in turn. A diffuse part that
    starts at a multiple of _NORMAL_TILE runs the same irradiance tiles as
    the whole sphere, so it gets the same bytes; other cuts may not (a
    one-row matrix product rounds differently)."""
    mat = sp.material
    albedo = np.asarray(mat.albedo)
    normals = sp.normals[part]
    if mat.kind == "diffuse":
        return albedo * _irradiance(normals, texels) / np.pi
    env_h, env_w = stack.shape[1:3]
    # reflect the view direction about the normal
    dot = normals @ _VIEW_DIR
    reflect = _VIEW_DIR[None, :] - 2.0 * dot[:, None] * normals
    reflect /= np.linalg.norm(reflect, axis=-1, keepdims=True)
    mirror = mat.kind == "mirror"
    out = np.empty((len(stack), len(reflect), 3))
    for band in _row_bands((len(reflect), 1 if mirror else math.prod(GLOSSY_GRID), 3)):
        lookup = equirect_map(reflect[band, None] if mirror
                              else _glossy_dirs(reflect[band], mat.exponent), env_w, env_h)
        for radiance, arr in zip(out, stack):
            radiance[band] = albedo * apply_bilinear_map(arr, lookup).mean(axis=1)
        del lookup  # before the next band's is built
    return out


# Shading tasks of every render in the process run on this one pool, sized
# to the usable CPUs when first needed. Tasks never submit tasks, so
# renders on several threads at once share it without deadlock.
_POOL = None
_POOL_LOCK = threading.Lock()


def _shading_pool() -> ThreadPoolExecutor:
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            if hasattr(os, "sched_getaffinity"):
                workers = len(os.sched_getaffinity(0))
            else:
                workers = os.cpu_count() or 1
            _POOL = ThreadPoolExecutor(max_workers=workers,
                                       thread_name_prefix="hdrkit-render")
        return _POOL


def render_many(scene: SceneConfig, envs) -> list[HdrImage]:
    """Render the scene under each environment map; deterministic.

    The scene is hit-tested once, and the environments' texel table is
    built once for all diffuse chunks. Each visible sphere's pixels are cut
    into chunks of at most _NORMAL_TILE, one irradiance tile, and each chunk
    is shaded under every environment as one task on a shared thread pool.
    Results are written back in task order, so no byte depends on the
    number of workers, and each result is byte-identical to rendering its
    environment alone. The environments must share one shape.
    """
    arrs = [image_data(e) for e in envs]
    if not arrs:
        return []
    shapes = {a.shape for a in arrs}
    if len(shapes) > 1:
        raise ValueError(f"environments differ in shape: {sorted(shapes)}")
    stack = np.stack(arrs)
    env_h, env_w = stack.shape[1:3]
    background, spheres = _plan_scene(scene, env_w, env_h)
    cam = scene.camera
    outs = np.zeros((len(stack), cam.height, cam.width, 3))
    if background is not None:
        for out, arr in zip(outs, stack):
            out[:, :] = apply_bilinear_map(arr, background)
    # Diffuse chunks go first, and only their tasks hold the texel table, so
    # it is freed once they have run, not kept beside the glossy chunks'
    # temporaries. It is built on a pool thread, like the tasks that free
    # it: built on the calling thread, more of its freed heap stayed
    # resident (eval-ibl's peak RSS rose by up to 7 MB). Spheres' pixels
    # are disjoint, so the task order moves no byte.
    tasks = sorted(((sp, slice(n0, n0 + _NORMAL_TILE))
                    for sp in spheres for n0 in range(0, len(sp.pixels), _NORMAL_TILE)),
                   key=lambda task: task[0].material.kind != "diffuse")
    diffuse = [sp.material.kind == "diffuse" for sp, _ in tasks]
    texels = None
    if any(diffuse):
        texels = _shading_pool().submit(_env_texel_table, stack).result()
    shaded = _shading_pool().map(lambda task, table: _shade(*task, stack, table), tasks,
                                 [texels if d else None for d in diffuse])
    del texels
    flat = outs.reshape(len(stack), -1, 3)
    for (sp, part), radiance in zip(tasks, shaded):
        flat[:, sp.pixels[part]] = radiance
    return [HdrImage(np.maximum(out, 0.0).astype(np.float32)) for out in outs]


def render(scene: SceneConfig, env) -> HdrImage:
    """Render the scene under the environment map; deterministic."""
    return render_many(scene, [env])[0]


def compare_renders(a, b) -> dict:
    """Metric bundle for two renders: linear MSE, log-domain PSNR, and the
    preview_ssim of the pair."""
    pa, pb = image_data(a), image_data(b)
    if pa.shape != pb.shape:
        raise ValueError(f"shape mismatch: {pa.shape} vs {pb.shape}")
    return {
        "mse": float((np.subtract(pa, pb, dtype=np.float64) ** 2).mean()),
        "log_psnr": log_psnr(pa, pb),
        "ssim": preview_ssim(pa, pb),
    }
