"""Training losses and HDR evaluation metrics.

The central quantity is the scale-invariant squared log error: because HDR
images in relative luminance are defined only up to a positive factor, the
error between two images is measured after the optimal global log-offset,
which has a closed form. All reductions accumulate in double precision and
reduce sequentially per image, so results do not depend on chunking.

optimal_scale, scale_invariant_loss, log_psnr, preview_ssim and
metric_report make no whole-image float64 array but the two channel means
that SSIM compares. Their private passes read the input arrays and float64
factors, and make each band of an image times its factor k as the
whole-image np.multiply(a, k, dtype=np.float64) would (a k of 1 gives a's
values exactly). Each sum over an image is image._exact_sum over fresh
float64 leaves, read from flat C-order ranges of the inputs, so it has the
bits of numpy's pairwise sum of the whole array. A variance is the mean,
then the mean of squared deviations from it, as ndarray.var takes it; min
and max are taken band by band, which is exact in any order.

The evaluation protocol is fixed by constants: LOG_PSNR_CAP_DB, the previews'
PREVIEW_EV and PREVIEW_WINDOW_EV, SSIM's SSIM_*, and the anchor's DISPLAY_PEAK.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .image import (
    _banded_preview,
    _check_shape,
    _exact_sum,
    _fitted_mask,
    _float_finite,
    _row_bands,
    channel_mean,
    image_data,
)

__all__ = [
    "LossConfig",
    "optimal_scale",
    "scale_invariant_loss",
    "si_mse",
    "seg_cross_entropy",
    "total_loss",
    "pano_loss",
    "display_anchor",
    "log_psnr",
    "ssim",
    "preview_ssim",
    "metric_report",
    "LOG_PSNR_CAP_DB",
]

LOG_PSNR_CAP_DB = 99.0
PREVIEW_EV = 0.0  # exposure of the SSIM previews
PREVIEW_WINDOW_EV = 10.0  # their exposure window
SSIM_DATA_RANGE = 255.0  # L of SSIM's stabilizers (k1 * L)^2 and (k2 * L)^2
SSIM_K1, SSIM_K2 = 0.01, 0.03
SSIM_WIN_SIZE, SSIM_SIGMA = 11, 1.5  # its Gaussian window's width and sigma
DISPLAY_PEAK = 255.0  # cd/m2 of the display anchor


@dataclass(frozen=True)
class LossConfig:
    """Weights and the log-guard for the combined training losses.

    seg_cross_entropy is a plain sum over pixels and channels; total_loss
    divides it by the pixel count so that alpha keeps its meaning across
    resolutions.
    """

    epsilon: float = 1e-6
    alpha: float = 0.05
    beta1: float = 0.2
    beta2: float = 0.01

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if min(self.alpha, self.beta1, self.beta2) < 0:
            raise ValueError("loss weights must be non-negative")


def _pair(pred, gt) -> tuple[np.ndarray, np.ndarray]:
    """The pixel buffers of pred and gt, uncopied, of one shape."""
    p, g = image_data(pred), image_data(gt)
    if p.shape != g.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {g.shape}")
    return p, g


def _log_diff(pred, gt, eps: float) -> np.ndarray:
    """log(pred + eps) - log(gt + eps) in float64, built in place."""
    p, g = _pair(pred, gt)
    d = np.add(p, eps, dtype=np.float64)
    np.log(d, out=d)
    lg = np.add(g, eps, dtype=np.float64)
    d -= np.log(lg, out=lg)
    return d


def optimal_scale(pred, gt, eps: float = 1e-6) -> float:
    """Positive multiplier for pred minimizing the mean squared log error.

    Closed form: log k is the mean over all elements of
    log(gt + eps) - log(pred + eps).
    """
    return float(math.exp(-_log_diff_mean(*_pair(pred, gt), eps)))


def scale_invariant_loss(pred, gt, eps: float = 1e-6) -> float:
    """Mean squared log difference minus the squared mean log difference.

    Equals the minimum over all positive rescalings of pred of the mean
    squared log error, so it is invariant to a global rescaling of either
    image. Always >= 0 (it is a variance).
    """
    return _log_diff_moments(*_pair(pred, gt), eps)[1]


def _log_diff_mean(p: np.ndarray, g: np.ndarray, eps: float) -> float:
    """d.mean() of d = _log_diff(p, g, eps), bit for bit, from d's flat
    C-order bands. The flat values are views of contiguous inputs and a
    copy of any other, made once per pass."""
    flat_p, flat_g = p.reshape(-1), g.reshape(-1)
    total = _exact_sum(p.size, lambda lo, hi: _log_diff(flat_p[lo:hi], flat_g[lo:hi], eps))
    # np.divide, so that an empty d gives nan, as ndarray.mean does
    return float(np.divide(total, p.size))


def _log_diff_moments(p: np.ndarray, g: np.ndarray, eps: float) -> tuple[float, float]:
    """d.mean() and d.var() of d = _log_diff(p, g, eps), bit for bit: the
    mean, then the mean of d's squared deviations from it, band by band."""
    mean = _log_diff_mean(p, g, eps)
    flat_p, flat_g = p.reshape(-1), g.reshape(-1)

    def squared_deviation(lo, hi):
        dev = _log_diff(flat_p[lo:hi], flat_g[lo:hi], eps)
        dev -= mean
        return np.multiply(dev, dev, out=dev)

    return mean, float(np.divide(_exact_sum(p.size, squared_deviation), p.size))


def si_mse(pred, gt, eps: float = 1e-6) -> float:
    """Scale-invariant MSE metric (same quantity as the training loss).

    Returned raw; reporting layers may rescale into display units.
    """
    return scale_invariant_loss(pred, gt, eps)


def seg_cross_entropy(pred, gt, eps: float = 1e-6) -> float:
    """Binary cross-entropy summed over pixels and channels.

    pred holds per-channel probabilities and is clamped into
    [eps, 1 - eps]; gt is a one-hot mask.
    """
    p, g = (a.astype(np.float64, copy=False) for a in _pair(pred, gt))
    p = np.clip(p, eps, 1.0 - eps)
    ce = -(g * np.log(p) + (1.0 - g) * np.log(1.0 - p))
    return float(ce.sum())


def total_loss(pred_hdr, gt_hdr, pred_mask, gt_mask, cfg: LossConfig = LossConfig()) -> float:
    """Combined reconstruction objective: scale-invariant + weighted segmentation."""
    si = scale_invariant_loss(pred_hdr, gt_hdr, cfg.epsilon)
    ce = seg_cross_entropy(pred_mask, gt_mask, cfg.epsilon)
    shape = image_data(gt_mask).shape
    ce /= shape[0] * shape[1]
    return si + cfg.alpha * ce


def pano_loss(pred, gt, merge_mask, cfg: LossConfig = LossConfig()) -> float:
    """Panorama objective weighting highlight and background regions separately.

    With d the guarded log difference and m the merge mask broadcast over
    channels: beta1 * mean((m*d)**2) + beta2 * mean(((1-m)*d)**2). The
    mask has the images' shape, or is (H, W), or (H, W, 1) when they have channels.
    """
    d = _log_diff(pred, gt, cfg.epsilon)
    m = _fitted_mask(merge_mask, d.shape)
    if m.min() < 0 or m.max() > 1:
        raise ValueError("merge mask values must lie in [0, 1]")
    high = float(((m * d) ** 2).mean())
    low = float((((1.0 - m) * d) ** 2).mean())
    return cfg.beta1 * high + cfg.beta2 * low


def display_anchor(pred, gt, ldr_linear, eps: float = 1e-6):
    """Bring a predicted/ground-truth HDR pair onto an absolute display scale.

    pred is first multiplied by its optimal alignment scale against gt;
    both are then scaled so the gt value at the linear LDR's brightest
    element maps to DISPLAY_PEAK (255 cd/m2).
    Returns (pred_anchored, gt_anchored) as float64 arrays.
    """
    p, g = _pair(pred, gt)
    k = optimal_scale(p, g, eps)
    s = _anchor_scale(g, ldr_linear)
    return np.multiply(p, k * s, dtype=np.float64), np.multiply(g, s, dtype=np.float64)


def _anchor_scale(g, ldr_linear) -> float:
    """The factor of display_anchor: DISPLAY_PEAK over g at the LDR's brightest
    element (the first one, as np.argmax finds it)."""
    ldr = image_data(ldr_linear)
    if ldr.shape != g.shape:
        raise ValueError("LDR anchor shape differs from the HDR pair")
    if float(ldr.max()) <= 0:
        raise ValueError("cannot anchor against an all-black LDR image")
    ref = float(g.flat[int(np.argmax(ldr))])
    if ref <= 0:
        raise ValueError("ground truth is zero at the LDR's brightest element")
    return DISPLAY_PEAK / ref


def log_psnr(pred, gt, eps: float = 1e-6) -> float:
    """PSNR in dB between log-domain images normalized to gt's log-range.

    Both images are log-transformed with an epsilon guard and mapped by the
    affine transform that sends gt's log range onto [0, 1] (peak 1). A zero
    MSE, or any value beyond it, reports LOG_PSNR_CAP_DB. A constant gt
    (empty log-range) falls back to unit span.
    """
    return _log_psnr(*_pair(pred, gt), 1.0, 1.0, eps)


def _log_psnr(p: np.ndarray, g: np.ndarray, kp: float, kg: float, eps: float) -> float:
    """log_psnr of p * kp against g * kg: gt's log range from one pass of
    band minima and maxima, then the mean of the squared normalized
    differences in another, each value made per flat C-order band in the
    whole-image operation order."""
    flat_p, flat_g = p.reshape(-1), g.reshape(-1)
    n = flat_p.size

    def log(a, k, key):
        v = np.multiply(a[key], k, dtype=np.float64)
        v += eps
        return np.log(v, out=v)

    lows, highs = [], []
    for band in _row_bands((n,)):
        lg = log(flat_g, kg, band)
        lows.append(lg.min())
        highs.append(lg.max())
    low = float(np.min(lows))
    span = float(np.max(highs)) - low
    if span <= 0:
        span = 1.0

    def squared(lo, hi):
        lp = log(flat_p, kp, slice(lo, hi))
        lp -= low
        lp /= span
        lg = log(flat_g, kg, slice(lo, hi))
        lg -= low
        lg /= span
        np.subtract(lp, lg, out=lg)
        return np.square(lg, out=lg)

    mse = _exact_sum(n, squared) / n
    if mse == 0.0:
        return LOG_PSNR_CAP_DB
    return min(-10.0 * math.log10(mse), LOG_PSNR_CAP_DB)


def _gaussian_taps(size: int, sigma: float) -> np.ndarray:
    x = np.arange(size, dtype=np.float64) - (size - 1) / 2
    k = np.exp(-(x ** 2) / (2.0 * sigma ** 2))
    return k / k.sum()


def _correlate_valid(img: np.ndarray, taps: np.ndarray, axis: int) -> np.ndarray:
    """Correlate img with the symmetric taps along axis, at the positions
    where every tap falls inside img: len(taps) - 1 fewer along axis.

    The sum runs in the order of ndimage's correlate1d for symmetric taps:
    the centre first, then each mirrored pair added before it is weighted,
    farthest pair first. Each value is bit-identical to correlate1d's at
    the same position, whatever its mode, since no tap reaches the border.
    """
    half = len(taps) // 2
    n = img.shape[axis] - 2 * half

    def shifted(offset):
        return img[(slice(None),) * axis + (slice(half + offset, half + offset + n),)]

    out = shifted(0) * taps[half]
    pair = np.empty_like(out)
    for j in range(half, 0, -1):
        np.add(shifted(-j), shifted(j), out=pair)
        pair *= taps[half - j]
        out += pair
    return out


def ssim(a, b) -> float:
    """Structural similarity of two single-channel images.

    Gaussian-weighted 11x11 local statistics (sigma 1.5), stabilizers
    (k1*L)^2 and (k2*L)^2, averaged over the region where the window fits
    entirely inside the image: the SSIM_* constants.

    Only that region of the SSIM map is computed, one row band at a time,
    each band read with a halo of SSIM_WIN_SIZE // 2 rows, so the statistics
    stay band-sized. The values are those of filtering the whole image
    with edge padding: no window in the region reaches the padding.
    """
    x, y = _pair(a, b)
    if x.ndim != 2:
        raise ValueError("ssim expects single-channel (H, W) images")
    pad = SSIM_WIN_SIZE // 2
    if min(x.shape) < SSIM_WIN_SIZE:
        raise ValueError(f"image smaller than the {SSIM_WIN_SIZE}x{SSIM_WIN_SIZE} window")
    taps = _gaussian_taps(SSIM_WIN_SIZE, SSIM_SIGMA)
    c1 = (SSIM_K1 * SSIM_DATA_RANGE) ** 2
    c2 = (SSIM_K2 * SSIM_DATA_RANGE) ** 2

    def smooth(img):
        return _correlate_valid(_correlate_valid(img, taps, 0), taps, 1)

    h, w = x.shape
    inner = h - 2 * pad
    # The mean is taken over the same view of an (H, W) map as a whole-image
    # SSIM's: a contiguous (H - 2 pad, W - 2 pad) map sums in another order.
    s = np.zeros((h, w))
    for rows in _row_bands((inner, w)):
        lo, hi = rows.start, min(rows.stop, inner)
        xb = x[lo:hi + 2 * pad].astype(np.float64, copy=False)
        yb = y[lo:hi + 2 * pad].astype(np.float64, copy=False)
        mu_x = smooth(xb)
        mu_y = smooth(yb)
        var_x = smooth(xb * xb) - mu_x ** 2
        var_y = smooth(yb * yb) - mu_y ** 2
        cov = smooth(xb * yb) - mu_x * mu_y
        s[lo + pad:hi + pad, pad:w - pad] = ((2 * mu_x * mu_y + c1) * (2 * cov + c2)) / (
            (mu_x ** 2 + mu_y ** 2 + c1) * (var_x + var_y + c2)
        )
    return float(s[pad:-pad, pad:-pad].mean())


def preview_ssim(a, b) -> float:
    """SSIM of the channel means of identical exposure previews of a and b.

    Both images are scaled by 1/max(b), so that b's peak maps to 1, and a
    is clamped at 0. Each then gets exposure_preview at PREVIEW_EV through
    a PREVIEW_WINDOW_EV window, checked as HdrImage checks it in that pass.
    """
    return _preview_ssim(*_pair(a, b), 1.0, 1.0)


def _preview_ssim(a: np.ndarray, b: np.ndarray, ka: float, kb: float) -> float:
    """preview_ssim of a * ka against b * kb, two images of one shape, its
    scale taken from max(b) * kb (b * kb's maximum for a positive kb)
    before any shape check. Each preview is freed once it is averaged."""
    scale = 1.0 / max(float(b.max()) * kb, 1e-30)
    mean_a = channel_mean(_scaled_preview(a, ka, scale, True))
    return ssim(mean_a, channel_mean(_scaled_preview(b, kb, scale, False)))


def _scaled_preview(a: np.ndarray, k: float, scale: float, clamp: bool):
    """exposure_preview(HdrImage(s), PREVIEW_EV, PREVIEW_WINDOW_EV) of
    s = (a * k) * scale, clamped at 0 first when clamp, made one row band at
    a time. HdrImage's errors come in its order: the shape, a non-finite
    value as soon as its band is made (before the preview's uint8 cast),
    then a negative one."""
    _check_shape(a.shape)
    lows = []

    def scaled(rows):
        s = np.multiply(a[rows], k, dtype=np.float64)
        s *= scale
        s = np.clip(s, 0, None, out=s) if clamp else s
        lows.append(_float_finite(s, "HDR image").min())
        return s

    preview = _banded_preview(a.shape, scaled, PREVIEW_EV, PREVIEW_WINDOW_EV)
    if min(lows) < 0:
        raise ValueError("HDR image contains negative values")
    return preview


def metric_report(pred, gt, ldr_linear=None, eps: float = 1e-6) -> dict:
    """The standard metric bundle: si_mse, log_psnr, ssim, and kappa.

    pred is aligned to gt by its optimal scale before log_psnr; when a
    linear LDR anchor is given, both are display-anchored to DISPLAY_PEAK.
    SSIM is that of preview_ssim. kappa and si_mse come from one log
    difference d, as in optimal_scale and scale_invariant_loss: exp of
    -d.mean() and d.var(), bit for bit.

    No whole-image float64 array is made: d is summed band by band twice,
    for its mean and then for its squared deviations from it, and log_psnr
    and the previews read pred and gt with the factors kappa * s and s, s
    being the display anchor's factor, or 1 without an anchor.
    """
    p, g = _pair(pred, gt)
    mean, si = _log_diff_moments(p, g, eps)
    k = math.exp(-mean)
    s = 1.0 if ldr_linear is None else _anchor_scale(g, ldr_linear)
    return {
        "si_mse": si,
        "log_psnr": _log_psnr(p, g, k * s, s, eps),
        "ssim": _preview_ssim(p, g, k * s, s),
        "kappa": k,
    }
