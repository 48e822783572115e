"""Virtual camera: synthesize realistic 8-bit LDR images from HDR sources.

The pipeline draws a random dynamic range and response-curve shape, finds a
mean-value auto-exposure, applies the camera's noise floor and response
curve, and quantizes to 8 bits. Everything is deterministic given the
image and the seed, so datasets can be reproduced from their manifests.

Auto-exposure is defined by a fixed 90-step bisection of the clipped mean.
It is computed by replaying those steps: one sort of the image as it is
(float32 stays float32) gives the exact root of the piecewise-linear mean,
two evaluations bracket it, and only the steps inside the bracket touch
the image, so the exposure is bit-identical to the plain bisection at
about a tenth of its cost. Every evaluation refills one float64 buffer, so
a call holds one float64 copy of the image at its peak.

The random generator is numpy's PCG64 (``np.random.default_rng``); a batch
master seed is split into per-file seeds with ``np.random.SeedSequence``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .image import HdrImage, LdrImage, _row_bands, image_data, quantize_u8

__all__ = [
    "DYNAMIC_RANGE_EV",
    "CRF_SIGMA_RANGE",
    "CRF_N_RANGE",
    "DEFAULT_TARGET_MEAN",
    "AutoExposureError",
    "CameraSample",
    "sample_camera",
    "identity_camera",
    "auto_expose",
    "apply_dynamic_range",
    "apply_crf",
    "synth_ldr",
    "split_seeds",
]

# Parameter ranges of the simulated camera population.
DYNAMIC_RANGE_EV = (9.6, 14.8)
CRF_SIGMA_RANGE = (0.3, 0.5)
CRF_N_RANGE = (0.8, 1.0)
DEFAULT_TARGET_MEAN = 0.18  # photographic middle gray in linear light

_BISECT_ITERS = 90
_BRACKET_LOG2 = 40
# Relative half-widths tried, in order, to bracket the sorted root.
_BRACKET_WIDTHS = (1e-14, 1e-12, 1e-9, 1e-6, 1e-3)
# Values per block of the sorted root's float64 prefix sums.
_ROOT_BLOCK = 1 << 12


class AutoExposureError(ValueError):
    """The requested mean brightness cannot be reached on this image."""


@dataclass(frozen=True)
class CameraSample:
    """One virtual-camera draw; exposure is filled in by synth_ldr.

    crf_sigma/crf_n of None select the identity response curve, which the
    sampler never produces but calibration cross-checks rely on.
    """

    dynamic_range_ev: float
    crf_sigma: float | None
    crf_n: float | None
    seed: int | None = None
    exposure: float | None = None

    @property
    def is_identity_crf(self) -> bool:
        return self.crf_sigma is None or self.crf_n is None


def sample_camera(seed) -> CameraSample:
    """Draw camera parameters uniformly from their ranges (PCG64, fixed order).

    Draw order: dynamic range, then sigma, then n. Deterministic per seed.
    """
    rng = np.random.default_rng(seed)
    dr = float(rng.uniform(*DYNAMIC_RANGE_EV))
    sigma = float(rng.uniform(*CRF_SIGMA_RANGE))
    n = float(rng.uniform(*CRF_N_RANGE))
    return CameraSample(dynamic_range_ev=dr, crf_sigma=sigma, crf_n=n,
                        seed=None if seed is None else int(seed))


def identity_camera(dynamic_range_ev: float = DYNAMIC_RANGE_EV[1]) -> CameraSample:
    """A camera with the identity response curve, for calibration checks."""
    return CameraSample(dynamic_range_ev=dynamic_range_ev, crf_sigma=None, crf_n=None)


def auto_expose(h, target_mean: float = DEFAULT_TARGET_MEAN, tol: float = 1e-4) -> float:
    """Exposure multiplier e such that mean(clamp(e*h, 0, 1)) = target_mean.

    Defined as a fixed-count bisection on a mean-normalized copy g of the
    image, which makes the result deterministic and insensitive to a global
    rescaling of the input (relative-luminance behavior).

    The bisection is replayed, not run blind. The float clipped mean never
    decreases as the multiplier grows (rounding, clipping and numpy's
    fixed-order pairwise sum are each monotone on non-negative values), so
    two evaluations that bracket the exact root of the piecewise-linear mean
    decide every step outside the bracket, and only the steps inside it
    evaluate the image. The root, solved from one sort of the image as it
    is, only chooses where to bracket: a step is either decided by
    monotonicity from an evaluated bracket end or evaluated itself, so the
    result is bit-identical to the plain bisection however the root rounds.

    Each evaluation refills one float64 buffer with g = x / mu, value for
    value the mean-normalized float64 copy, so every evaluation is the
    plain bisection's. The call holds the sorted image, then that one
    buffer, never both at once.
    """
    if not 0 < target_mean < 1:
        raise ValueError("target_mean must lie in (0, 1)")
    x = image_data(h)
    root = _sorted_root(x, target_mean)
    buf = np.array(x, dtype=np.float64)
    mu = float(buf.mean())
    if not mu > 0:
        raise AutoExposureError("image has no positive pixels")

    def clipped_mean(m: float) -> float:
        np.divide(x, mu, out=buf, dtype=np.float64)
        np.multiply(m, buf, out=buf)
        return float(np.clip(buf, 0.0, 1.0, out=buf).mean())

    below, above = _bracket(clipped_mean, root * mu, target_mean)

    def under_target(m: float) -> bool:
        if m <= below:
            return True
        if m >= above:
            return False
        return clipped_mean(m) < target_mean

    lo, hi = 2.0 ** -_BRACKET_LOG2, 2.0 ** _BRACKET_LOG2
    if under_target(hi):
        raise AutoExposureError(
            f"target mean {target_mean} unreachable: too few positive pixels"
        )
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if under_target(mid):
            lo = mid
        else:
            hi = mid
    m = 0.5 * (lo + hi)
    if abs(clipped_mean(m) - target_mean) > tol:
        raise AutoExposureError("auto-exposure did not converge to the target mean")
    return m / mu


def _sorted_root(x: np.ndarray, target_mean: float) -> float:
    """The exact root r of mean(min(r*x, 1)) = target_mean, from one sort
    of x as it is (a float32 image is sorted as float32), or nan when the
    unsaturated pixels sum to zero.

    With x sorted ascending as s, the pixels k.. saturate at the root for
    the smallest k with sum(s[:k])/s[k] + n - k <= n*target_mean (a zero
    s[k] never saturates), and then r = (n*target_mean - (n - k)) / sum(s[:k]).
    Each sum(s[:k]) is a float64 prefix sum over whole blocks of s plus one
    block-local float64 sum, so the search reads each value about once.
    """
    s = np.sort(x, axis=None)
    n = s.size
    whole = n - n % _ROOT_BLOCK
    blocks = s[:whole].reshape(-1, _ROOT_BLOCK).sum(axis=1, dtype=np.float64)
    prefix = np.concatenate(([0.0], np.cumsum(blocks)))

    def head_sum(k: int) -> float:
        b = k // _ROOT_BLOCK
        return float(prefix[b] + s[b * _ROOT_BLOCK:k].sum(dtype=np.float64))

    goal = n * target_mean
    lo, hi = 1, n  # k = 0 would saturate every pixel, k = n none
    while lo < hi:
        k = (lo + hi) // 2
        pivot = float(s[k])
        if pivot > 0 and head_sum(k) / pivot + (n - k) <= goal:
            hi = k
        else:
            lo = k + 1
    covered = head_sum(lo)
    return (goal - (n - lo)) / covered if covered > 0 else math.nan


def _bracket(clipped_mean, root: float, target_mean: float) -> tuple[float, float]:
    """Multipliers (below, above) with clipped_mean(below) < target_mean
    <= clipped_mean(above), found by evaluating around `root` at the
    relative widths of _BRACKET_WIDTHS. A side that no width bounds stays
    at 0 or inf, and the bisection then evaluates every step there; so do
    both sides when root is not a positive finite number."""
    below, above = 0.0, math.inf
    if not 0 < root < math.inf:
        return below, above
    for delta in _BRACKET_WIDTHS:
        if below == 0.0 and clipped_mean(root * (1.0 - delta)) < target_mean:
            below = root * (1.0 - delta)
        if above == math.inf and clipped_mean(root * (1.0 + delta)) >= target_mean:
            above = root * (1.0 + delta)
        if below > 0.0 and above < math.inf:
            break
    return below, above


def apply_dynamic_range(h_exposed: np.ndarray, dr_ev: float) -> np.ndarray:
    """Clamp an exposed image to [0, 1] and zero values under the noise floor.

    The floor is 2**(-dr_ev); a value exactly at the floor is kept.
    """
    clamped = np.clip(np.asarray(h_exposed, dtype=np.float64), 0.0, 1.0)
    floor = 2.0 ** (-float(dr_ev))
    return np.where(clamped < floor, 0.0, clamped)


def apply_crf(linear: np.ndarray, sigma: float, n: float) -> np.ndarray:
    """Parametric camera response curve (1+sigma) * v**n / (v**n + sigma).

    Fixes f(0)=0 and f(1)=1 and is strictly increasing on [0, 1] for any
    sigma > 0, n > 0.
    """
    if sigma <= 0 or n <= 0:
        raise ValueError("sigma and n must be positive")
    v = np.asarray(linear, dtype=np.float64)
    vn = v ** n
    return (1.0 + sigma) * vn / (vn + sigma)


def synth_ldr(
    h: HdrImage,
    sample: CameraSample,
    target_mean: float = DEFAULT_TARGET_MEAN,
) -> tuple[LdrImage, CameraSample]:
    """Run the full virtual camera on an HDR image.

    Auto-exposure is computed before the noise floor is applied. The
    response-curve output is quantized directly (value*255, halves up) with
    no extra transfer function: the curve itself plays the role of the
    camera nonlinearity. Returns the LDR image and the sample with its
    resolved exposure.

    The per-pixel stages run one row band at a time, so their temporaries
    stay band-sized and every code is the one the whole image would get;
    auto-exposure, whose mean is one reduction over the whole image, sets
    the peak memory at one float64 copy of the image, after one sort of
    the image as it is.
    """
    exposure = auto_expose(h, target_mean)
    data = image_data(h)
    out = np.empty(data.shape, dtype=np.uint8)
    for rows in _row_bands(data.shape):
        exposed = data[rows].astype(np.float64, copy=False) * exposure
        linear = apply_dynamic_range(exposed, sample.dynamic_range_ev)
        if sample.is_identity_crf:
            signal = linear
        else:
            signal = apply_crf(linear, sample.crf_sigma, sample.crf_n)
        out[rows] = quantize_u8(signal)
    return LdrImage(out), replace(sample, exposure=exposure)


def split_seeds(master_seed: int, count: int) -> list[int]:
    """Derive independent per-file seeds from a master seed.

    Uses ``SeedSequence(master_seed).spawn(count)`` and collapses each child
    to a single 64-bit integer, so batch items are reproducible from the
    master seed and their position alone.
    """
    children = np.random.SeedSequence(master_seed).spawn(count)
    return [int(c.generate_state(1, dtype=np.uint64)[0]) for c in children]
