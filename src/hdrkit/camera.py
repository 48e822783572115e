"""Virtual camera: synthesize realistic 8-bit LDR images from HDR sources.

The pipeline draws a random dynamic range and response-curve shape, finds a
mean-value auto-exposure, applies the camera's noise floor and response
curve, and quantizes to 8 bits. Everything is deterministic given the
image and the seed, so datasets can be reproduced from their manifests.

Auto-exposure is defined by a fixed 90-step bisection of the clipped mean.
It is computed by replaying those steps: a radix select over the bit
patterns of the image's values gives the exact root of the piecewise-linear
mean, two evaluations bracket it, and only the steps inside the bracket
touch the image, so the exposure is bit-identical to the plain bisection at
about a tenth of its cost. Every mean, the image's own and each clipped
one, is numpy's float64 pairwise sum made band by band (image._exact_sum),
so a call holds band-sized temporaries only, whatever the image's values.

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
_BRACKET_LOG2 = 40
# Relative half-widths tried, in order, to bracket the root.
_BRACKET_WIDTHS = (1e-14, 1e-12, 1e-9, 1e-6, 1e-3)
# Key bits per level of the radix root, and the most values of a boundary
# bucket that it sorts rather than splits on the next bits.
_RADIX_BITS = 16
_SORT_LIMIT = 1 << 16


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
    evaluate the image. The root, from _radix_root, only chooses where to
    bracket: a step is either decided by monotonicity from an evaluated
    bracket end or evaluated itself, so the result is bit-identical to the
    plain bisection however the root rounds.

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

    below, above = _bracket(clipped_mean, _radix_root(flat, target_mean) * mu, target_mean)

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


def _radix_root(flat: np.ndarray, target_mean: float) -> float:
    """The exact root r of mean(clip(r*x, 0, 1)) = target_mean over the
    values x of the 1-D array flat, or nan when the unsaturated pixels sum
    to zero.

    F(v) = sum(clip(x/v, 0, 1)) never increases with v. The pixels x >= v
    saturate at the root for the smallest pixel value v > 0 with
    F(v) <= goal = n*target_mean, and then r = (goal - count(x >= v)) /
    sum(x < v). v is found by a radix select on the bit patterns of the
    values as they are (float32 as float32, anything else as float64), which
    order the values >= +0.0 as unsigned integers; the others add nothing
    and are left out:
    - one band-wise pass counts and sums the values per bucket of the top
      16 bits, which gives F at every bucket's lower edge; v lies in the
      boundary bucket, the last whose edge has F > goal, or is the first
      value after it (an image of at most _SORT_LIMIT values is one bucket);
    - a boundary bucket of at most _SORT_LIMIT values is gathered in one
      more pass and sorted; a larger one is split on its next 16 bits in one
      more pass, and so on;
    - an empty bucket, or one whose bits are all fixed (one repeated value,
      whose F is its edge's), cannot hold v.
    So a float32 image takes at most two passes, a float64 one four, and
    every temporary is band-sized whatever the values.
    """
    float_t, uint_t = (np.float32, np.uint32) if flat.dtype == np.float32 else (np.float64, np.uint64)
    width = 8 * np.dtype(uint_t).itemsize
    goal = flat.size * target_mean

    def bands():
        for rows in _row_bands(flat.shape):
            band = flat[rows].astype(float_t, copy=False)
            yield band.view(uint_t), band

    def parts(k: np.ndarray, values: np.ndarray) -> list:
        """Float parts of the values whose float64 sums within a bucket are
        exact: float32 values as they are, float64 ones as a 24-bit head and
        the rest (a float64 sum of many equal values drifts by more than the
        bracket's 1e-14)."""
        if width == 32:
            return [values]
        head = (k & ~uint_t((1 << 29) - 1)).view(float_t)
        return [head, values - head]

    below, above = 0.0, 0  # the sum under the bucket and the count over it
    prefix, shift, m = 0, width - 1, flat.size  # the bucket of the values >= +0.0
    while m > _SORT_LIMIT:
        low = (shift - 1) // _RADIX_BITS * _RADIX_BITS
        counts = np.zeros(1 << _RADIX_BITS, np.int64)
        sums = np.zeros((width // 32, 1 << _RADIX_BITS))  # a row per part
        for k, values in bands():
            digit = k >> uint_t(low)
            if shift < width - 1:  # below the top, the bucket's values only
                inside = digit >> uint_t(_RADIX_BITS) == prefix
                k, values, digit = k[inside], values[inside], digit[inside] & uint_t(0xFFFF)
            digit = digit.astype(np.intp)
            _add_bincount(counts, digit)
            for row, part in zip(sums, parts(k, values)):
                _add_bincount(row, digit, part)
        nb = 1 << (shift - low)  # at the top, a set sign bit lands past nb
        counts, sums = counts[:nb], sums[:, :nb].sum(axis=0)
        prefix <<= shift - low
        edges = ((prefix | np.arange(nb)) << low).astype(uint_t).view(float_t)
        head = below + np.concatenate(([0.0], np.cumsum(sums)[:-1]))
        tail = above + np.cumsum(counts[::-1])[::-1]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            f = head / edges + tail
        f[edges == 0] = np.inf
        b = int(np.flatnonzero(f > goal)[-1])
        m = int(counts[b])
        below, above = float(head[b]), int(tail[b]) - m
        if m == 0 or low == 0:
            return _root(goal, above, below + float(sums[b]))
        prefix, shift = prefix | b, low
    u = np.sort(np.concatenate([k[k >> uint_t(shift) == prefix] for k, _ in bands()]))
    m = u.size
    head = below + sum(np.concatenate(([0.0], np.cumsum(part, dtype=np.float64)))
                       for part in parts(u, u.view(float_t)))
    with np.errstate(divide="ignore", invalid="ignore"):
        fits = np.flatnonzero(head[:-1] / u.view(float_t) + (above + m - np.arange(m)) <= goal)
    j = int(fits[0]) if fits.size else m
    return _root(goal, above + m - j, float(head[j]))


def _add_bincount(total: np.ndarray, digit: np.ndarray, weights=None) -> None:
    """Add np.bincount(digit, weights) to the front of total."""
    found = np.bincount(digit, weights)
    total[:found.size] += found


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
    over bands, and its root a radix select whose histograms are made band
    by band, so no copy of the image is made.
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
