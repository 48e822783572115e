"""Training losses and HDR evaluation metrics.

The central quantity is the scale-invariant squared log error: because HDR
images in relative luminance are defined only up to a positive factor, the
error between two images is measured after the optimal global log-offset,
which has a closed form. All reductions accumulate in double precision and
reduce sequentially per image, so results do not depend on chunking.

scale_invariant_loss, log_psnr, preview_ssim and metric_report make no
whole-image float64 array but the two channel means that SSIM compares.
Each sum over an image is image._exact_sum over fresh float64 leaves, read
from flat C-order ranges of the inputs, so it has the bits of numpy's
pairwise sum of the whole array. A variance is the mean, then the mean of
squared deviations from it, as ndarray.var takes it; min and max are taken
band by band, which is exact in any order. metric_report makes its aligned
and display-anchored images per band from the inputs, with the whole-image
expressions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .image import (
    _banded_preview,
    _check_hdr_bands,
    _exact_sum,
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


@dataclass(frozen=True)
class LossConfig:
    """Weights and the log-guard for the combined training losses.

    seg_cross_entropy is a plain sum over pixels and channels; total_loss
    divides it by the pixel count when normalize_seg is set so that alpha
    keeps its meaning across resolutions.
    """

    epsilon: float = 1e-6
    alpha: float = 0.05
    beta1: float = 0.2
    beta2: float = 0.01
    normalize_seg: bool = True

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
    return float(math.exp(-_log_diff(pred, gt, eps).mean()))


def scale_invariant_loss(pred, gt, eps: float = 1e-6) -> float:
    """Mean squared log difference minus the squared mean log difference.

    Equals the minimum over all positive rescalings of pred of the mean
    squared log error, so it is invariant to a global rescaling of either
    image. Always >= 0 (it is a variance).
    """
    return _log_diff_moments(*_pair(pred, gt), eps)[1]


def _log_diff_moments(p: np.ndarray, g: np.ndarray, eps: float) -> tuple[float, float]:
    """d.mean() and d.var() of d = _log_diff(p, g, eps), bit for bit, without
    a whole d: _exact_sum of d's flat C-order bands, then of their squared
    deviations from that mean, as ndarray.var takes them. The flat values
    are views of contiguous inputs and a copy of any other."""
    flat_p, flat_g = p.reshape(-1), g.reshape(-1)
    n = p.size

    def d(lo, hi):
        return _log_diff(flat_p[lo:hi], flat_g[lo:hi], eps)

    # np.divide, so that an empty d gives nan, as ndarray.mean does
    mean = float(np.divide(_exact_sum(n, d), n))

    def squared_deviation(lo, hi):
        dev = d(lo, hi)
        dev -= mean
        return np.multiply(dev, dev, out=dev)

    return mean, float(np.divide(_exact_sum(n, squared_deviation), n))


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
    if cfg.normalize_seg:
        shape = image_data(gt_mask).shape
        ce /= shape[0] * shape[1]
    return si + cfg.alpha * ce


def pano_loss(pred, gt, merge_mask, cfg: LossConfig = LossConfig(), eps: float | None = None) -> float:
    """Panorama objective weighting highlight and background regions separately.

    With d the guarded log difference and m the merge mask broadcast over
    channels: beta1 * mean((m*d)**2) + beta2 * mean(((1-m)*d)**2).
    """
    eps = cfg.epsilon if eps is None else eps
    d = _log_diff(pred, gt, eps)
    m = np.asarray(image_data(merge_mask), dtype=np.float64)
    if m.ndim == 2:
        m = m[..., None]
    if m.min() < 0 or m.max() > 1:
        raise ValueError("merge mask values must lie in [0, 1]")
    high = float(((m * d) ** 2).mean())
    low = float((((1.0 - m) * d) ** 2).mean())
    return cfg.beta1 * high + cfg.beta2 * low


def display_anchor(pred, gt, ldr_linear, eps: float = 1e-6, peak: float = 255.0):
    """Bring a predicted/ground-truth HDR pair onto an absolute display scale.

    pred is first multiplied by its optimal alignment scale against gt;
    both are then scaled so the gt value at the linear LDR's brightest
    element maps to `peak` (cd/m2 for the conventional 255 anchor).
    Returns (pred_anchored, gt_anchored) as float64 arrays.
    """
    p, g = _pair(pred, gt)
    k = optimal_scale(p, g, eps)
    s = _anchor_scale(g, ldr_linear, peak)
    return np.multiply(p, k * s, dtype=np.float64), np.multiply(g, s, dtype=np.float64)


def _anchor_scale(g, ldr_linear, peak: float = 255.0) -> float:
    """The factor of display_anchor: peak over g at the LDR's brightest
    element (the first one, as np.argmax finds it)."""
    ldr = image_data(ldr_linear)
    if ldr.shape != g.shape:
        raise ValueError("LDR anchor shape differs from the HDR pair")
    if float(ldr.max()) <= 0:
        raise ValueError("cannot anchor against an all-black LDR image")
    ref = float(g.flat[int(np.argmax(ldr))])
    if ref <= 0:
        raise ValueError("ground truth is zero at the LDR's brightest element")
    return peak / ref


def log_psnr(pred, gt, eps: float = 1e-6, cap_db: float = LOG_PSNR_CAP_DB) -> float:
    """PSNR in dB between log-domain images normalized to gt's log-range.

    Both images are log-transformed with an epsilon guard and mapped by the
    affine transform that sends gt's log range onto [0, 1] (peak 1). A zero
    MSE, or any value beyond it, reports the documented cap. A constant gt
    (empty log-range) falls back to unit span.
    """
    p, g = _pair(pred, gt)
    return _log_psnr(p.size, _scaled(p.reshape(-1), 1.0), _scaled(g.reshape(-1), 1.0), eps,
                     cap_db)


def _scaled(a: np.ndarray, scale: float):
    """values(key): a[key] * scale in float64; a scale of 1 gives a[key]'s
    values exactly."""
    return lambda key: np.multiply(a[key], scale, dtype=np.float64)


def _logs(values, eps: float):
    """leaf(lo, hi): log(values(slice(lo, hi)) + eps) as a fresh float64 array."""
    def leaf(lo, hi):
        v = np.add(values(slice(lo, hi)), eps, dtype=np.float64)
        return np.log(v, out=v)
    return leaf


def _log_psnr(n: int, pred, gt, eps: float, cap_db: float) -> float:
    """log_psnr of the two images of n values whose flat values `key` are
    pred(key) and gt(key): gt's log range from one pass of band minima and
    maxima, then the mean of the squared normalized differences in another,
    each value made in the whole-image operation order."""
    log_pred, log_gt = _logs(pred, eps), _logs(gt, eps)
    lows, highs = [], []
    for band in _row_bands((n,)):
        lg = log_gt(band.start, min(band.stop, n))
        lows.append(lg.min())
        highs.append(lg.max())
    low = float(np.min(lows))
    span = float(np.max(highs)) - low
    if span <= 0:
        span = 1.0

    def squared(lo, hi):
        lp = log_pred(lo, hi)
        lp -= low
        lp /= span
        lg = log_gt(lo, hi)
        lg -= low
        lg /= span
        np.subtract(lp, lg, out=lg)
        return np.square(lg, out=lg)

    mse = _exact_sum(n, squared) / n
    if mse == 0.0:
        return cap_db
    return min(-10.0 * math.log10(mse), cap_db)


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


def ssim(
    a,
    b,
    data_range: float = 255.0,
    k1: float = 0.01,
    k2: float = 0.03,
    win_size: int = 11,
    sigma: float = 1.5,
) -> float:
    """Structural similarity of two single-channel images.

    Gaussian-weighted 11x11 local statistics (sigma 1.5), stabilizers
    (k1*L)^2 and (k2*L)^2, averaged over the region where the window fits
    entirely inside the image.

    Only that region of the SSIM map is computed, one row band at a time,
    each band read with a halo of win_size // 2 rows, so the statistics
    stay band-sized. The values are those of filtering the whole image
    with edge padding: no window in the region reaches the padding.
    """
    x, y = image_data(a), image_data(b)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    if x.ndim != 2:
        raise ValueError("ssim expects single-channel (H, W) images")
    pad = win_size // 2
    if min(x.shape) < win_size:
        raise ValueError(f"image smaller than the {win_size}x{win_size} window")
    taps = _gaussian_taps(win_size, sigma)
    c1 = (k1 * data_range) ** 2
    c2 = (k2 * data_range) ** 2

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


def preview_ssim(a, b, preview_ev: float = 0.0, preview_window_ev: float = 10.0) -> float:
    """SSIM of the channel means of identical exposure previews of a and b.

    Both images are scaled by 1/max(b), so that b's peak maps to 1, and a
    is clamped at 0 before its preview.
    """
    x, y = _pair(a, b)
    return _preview_ssim(x.shape, _scaled(x, 1.0), _scaled(y, 1.0), float(y.max()),
                         preview_ev, preview_window_ev)


def _preview_ssim(shape: tuple, a_rows, b_rows, b_max: float,
                  preview_ev: float, preview_window_ev: float) -> float:
    """preview_ssim of the two images of one shape whose rows `rows` are
    a_rows(rows) and b_rows(rows), b's largest value being b_max."""
    scale = 1.0 / max(b_max, 1e-30)
    pa = _scaled_preview(shape, a_rows, scale, True, preview_ev, preview_window_ev)
    pb = _scaled_preview(shape, b_rows, scale, False, preview_ev, preview_window_ev)
    return ssim(channel_mean(pa), channel_mean(pb))


def _scaled_preview(shape: tuple, values, scale: float, clamp: bool,
                    preview_ev: float, preview_window_ev: float):
    """exposure_preview(HdrImage(s), ...) of s = x * scale, where values(rows)
    is x[rows], clamped at 0 first when clamp, without a full-size s: each
    row band of s is made once for HdrImage's checks (the same errors in the
    same order) and once for the preview."""

    def scaled(rows):
        s = np.multiply(values(rows), scale, dtype=np.float64)
        return np.clip(s, 0, None, out=s) if clamp else s

    _check_hdr_bands(shape, scaled)
    return _banded_preview(shape, scaled, preview_ev, preview_window_ev)


def metric_report(pred, gt, ldr_linear=None, eps: float = 1e-6,
                  preview_ev: float = 0.0, preview_window_ev: float = 10.0) -> dict:
    """The standard metric bundle: si_mse, log_psnr, ssim, and kappa.

    pred is aligned to gt by its optimal scale before log_psnr; when a
    linear LDR anchor is given, both images are display-anchored first.
    SSIM is that of preview_ssim. kappa and si_mse come from one log
    difference d, as in optimal_scale and scale_invariant_loss: exp of
    -d.mean() and d.var(), bit for bit.

    No whole-image float64 array is made: d is summed band by band twice,
    for its mean and then for its squared deviations from it, and the
    aligned and anchored images are made per band from pred and gt with the
    whole-image expressions pred * (kappa * s) and gt * s, s being the
    display anchor's factor, or 1 without an anchor (an exact product), for
    log_psnr's two passes and the previews. The previews' scale comes from
    max(gt) * s, the maximum of gt * s since s is positive.
    """
    p, g = _pair(pred, gt)
    mean, si = _log_diff_moments(p, g, eps)
    k = math.exp(-mean)
    s = 1.0 if ldr_linear is None else _anchor_scale(g, ldr_linear)
    return {
        "si_mse": si,
        "log_psnr": _log_psnr(p.size, _scaled(p.reshape(-1), k * s), _scaled(g.reshape(-1), s),
                              eps, LOG_PSNR_CAP_DB),
        "ssim": _preview_ssim(p.shape, _scaled(p, k * s), _scaled(g, s), float(g.max()) * s,
                              preview_ev, preview_window_ev),
        "kappa": k,
    }
