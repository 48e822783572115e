"""Virtual camera: synthesize realistic 8-bit LDR images from HDR sources.

The pipeline draws a random dynamic range and response-curve shape, finds a
mean-value auto-exposure, applies the camera's noise floor and response
curve, and quantizes to 8 bits. Everything is deterministic given the
image and the seed, so datasets can be reproduced from their manifests.

Auto-exposure is defined by a fixed 90-step bisection of the clipped mean.
It is computed by replaying those steps: saturation passes over the image
find the exact root of the piecewise-linear mean, two evaluations bracket
it, and only the steps inside the bracket touch the image, so the exposure
is bit-identical to the plain bisection at about a tenth of its cost. A pass
counts the values that saturate at the current multiplier and moves it to
the root of the linear piece they make; it climbs to the root, where the
count repeats, or stops short at a fixed cap, which only widens the bracket.
Every mean is numpy's float64 pairwise sum made band by band
(image._exact_sum), so a call holds band-sized temporaries only.

The random generator is numpy's PCG64 (``np.random.default_rng``); a batch
master seed is split into per-file seeds with ``np.random.SeedSequence``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .image import (
    HdrImage,
    LdrImage,
    _exact_sum,
    _row_bands,
    image_data,
    quantize_u8,
)

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
_MEAN_TOL = 1e-4  # the most the final clipped mean may miss the target by
_BRACKET_LOG2 = 40
# Relative half-widths tried, in order, to bracket the root.
_BRACKET_WIDTHS = (1e-14, 1e-12, 1e-9, 1e-6, 1e-3)
# The most band passes of the saturation root.
_ROOT_PASSES = 16


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


def auto_expose(h, target_mean: float = DEFAULT_TARGET_MEAN) -> float:
    """Exposure multiplier e such that mean(clamp(e*h, 0, 1)) = target_mean.

    Defined as a fixed-count bisection on a mean-normalized copy g of the
    image, which makes the result deterministic and insensitive to a global
    rescaling of the input (relative-luminance behavior). A clipped mean
    that ends more than 1e-4 from the target raises AutoExposureError.

    The bisection is replayed, not run blind. The float clipped mean never
    decreases as the multiplier grows (rounding, clipping and numpy's
    fixed-order pairwise sum are each monotone on non-negative values), so
    two evaluations that bracket the exact root of the piecewise-linear mean
    decide every step outside the bracket, and only the steps inside it
    evaluate the image. The root, from _saturation_root, only chooses where
    to bracket: a step is either decided by monotonicity from an evaluated
    bracket end or evaluated itself, so the result is bit-identical to the
    plain bisection wherever the root lands, pass cap or not.

    The mean mu and every clipped mean are _exact_sum over bands of the
    mean-normalized float64 copy g = x / mu, value for value, so each is the
    plain bisection's .mean() of the whole copy, which is never made.
    """
    if not 0 < target_mean < 1:
        raise ValueError("target_mean must lie in (0, 1)")
    x = image_data(h)
    flat = x.ravel(order="K")  # the order in which numpy sums a copy of x
    n = flat.size

    def values(lo: int, hi: int) -> np.ndarray:
        return flat[lo:hi].astype(np.float64)

    mu = _exact_sum(n, values) / max(n, 1)
    if not mu > 0:
        raise AutoExposureError("image has no positive pixels")

    def clipped_mean(m: float) -> float:
        def leaf(lo: int, hi: int) -> np.ndarray:
            g = values(lo, hi)
            g /= mu
            g *= m
            return np.clip(g, 0.0, 1.0, out=g)

        return _exact_sum(n, leaf) / n

    root = _saturation_root(flat, target_mean, mu)
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
    if abs(clipped_mean(m) - target_mean) > _MEAN_TOL:
        raise AutoExposureError("auto-exposure did not converge to the target mean")
    return m / mu


def _saturation_root(flat: np.ndarray, target_mean: float, mu: float) -> float:
    """The root r of mean(clip(r*x, 0, 1)) = target_mean over the values x
    of the 1-D array flat, of mean mu: nan if none, inf past the largest float.

    From target_mean / mu, the root if nothing saturated, each pass counts
    the values x >= 1/r, which saturate, sums the positive parts of the
    others, band by band, and moves r to the root of that linear piece of
    the mean, which lies on or above it. So every pass leaves r at or below
    the root, exact once the count repeats; r is returned when not positive,
    as inf after a pass telling inf from nan, or after _ROOT_PASSES passes.
    Negative values lower mu and can put the start above the root; a pass
    that counts more saturated values than the goal restarts r from goal
    over the sum of all positive parts (one more pass), at or below the root.
    """
    goal = flat.size * target_mean
    r, last = _root(goal, 0, flat.size * mu), -1
    for _ in range(_ROOT_PASSES):
        if not r > 0:
            break
        edge = 1.0 / r if r < math.inf else math.ulp(0.0)  # any positive x at r = inf
        saturated, unsaturated = 0, 0.0
        for rows in _row_bands(flat.shape):
            band = np.maximum(flat[rows], 0.0, dtype=np.float64)
            high = band >= edge
            saturated += int(np.count_nonzero(high))
            band[high] = 0.0
            unsaturated += float(band.sum())
        if r == math.inf:
            return r if saturated > goal else math.nan
        if saturated > goal:
            positive = sum(float(np.maximum(flat[rows], 0.0, dtype=np.float64).sum())
                           for rows in _row_bands(flat.shape))
            last, r = -1, _root(goal, 0, positive)
        elif saturated == last:
            break
        else:
            last, r = saturated, _root(goal, saturated, unsaturated)
    return r


def _root(goal: float, saturated: int, unsaturated_sum: float) -> float:
    """r with r * unsaturated_sum + saturated = goal, or nan when the sum is 0."""
    return (goal - saturated) / unsaturated_sum if unsaturated_sum > 0 else math.nan


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
    stay band-sized and every code is the one the whole image would get.
    Auto-exposure is band-sized too: its means are exact float64 sums made
    over bands, and its root's passes go band by band, so no copy of the
    image is made.
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
