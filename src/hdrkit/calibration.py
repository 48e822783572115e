"""Luminance-scale calibration of HDR images and automatic segmentation labels.

An HDR image stored in relative luminance is defined only up to a positive
scale factor. Calibration rescales it so that its non-overexposed pixels
sum-match the corresponding linear LDR image, which pins all images of a
dataset to a common luminance level and makes threshold-based labeling
meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .image import HdrImage, LinearLdr, SegMask, _pair, _row_bands, channel_mean, image_data

__all__ = [
    "DEFAULT_TAU",
    "DEFAULT_T_LOW",
    "DEFAULT_T_HIGH",
    "UncalibratableError",
    "CalibrationResult",
    "overexposure_mask",
    "calibrate_hdr",
    "luminance_seg_labels",
]

DEFAULT_TAU = 0.83
DEFAULT_T_LOW = math.exp(-5.5)
DEFAULT_T_HIGH = math.exp(0.1)


class UncalibratableError(ValueError):
    """No usable non-overexposed pixels to derive a calibration scale from."""


@dataclass
class CalibrationResult:
    calibrated: HdrImage
    scale_factor: float


def overexposure_mask(i: LinearLdr, tau: float = DEFAULT_TAU) -> np.ndarray:
    """Binary (H, W) mask: 1 where the pixel's channel mean is below tau."""
    return _anchor_mask(image_data(i), tau).view(np.uint8)


def _anchor_mask(ld: np.ndarray, tau: float) -> np.ndarray:
    """The (H, W) bool mask of overexposure_mask, made one row band at a
    time."""
    if not 0 < tau <= 1:
        raise ValueError("tau must lie in (0, 1]")
    mask = np.empty(ld.shape[:2], dtype=bool)
    for rows in _row_bands(ld.shape):
        mask[rows] = channel_mean(ld[rows]) < tau
    return mask


def calibrate_hdr(h: HdrImage, i: LinearLdr, tau: float = DEFAULT_TAU) -> CalibrationResult:
    """Rescale an HDR image to the luminance level of its linear LDR reference.

    The scale factor is the ratio of the masked channel sums of the LDR and
    HDR images, where the mask keeps non-overexposed pixels only. Sums are
    accumulated in double precision regardless of the input dtype. The mask
    is made as bool and the HDR image is rescaled in float64 into an array
    of its own dtype, both one row band at a time, so no full-size float64
    array is made.

    Raises UncalibratableError when every pixel is overexposed or the masked
    HDR sum vanishes.
    """
    hd, ld = _pair(h, i)
    mask = _anchor_mask(ld, tau)
    if not mask.any():
        raise UncalibratableError("all pixels are overexposed; no calibration anchor")
    # a 1-D mask over pixel rows selects the same values without index arrays
    s_ldr = float(ld.reshape(-1, 3)[mask.ravel()].sum(dtype=np.float64))
    s_hdr = float(hd.reshape(-1, 3)[mask.ravel()].sum(dtype=np.float64))
    if s_hdr <= 0:
        raise UncalibratableError("masked HDR sum is zero; scale is undefined")
    scale = s_ldr / s_hdr
    out = np.empty(hd.shape, dtype=hd.dtype)
    for rows in _row_bands(hd.shape):
        out[rows] = np.multiply(hd[rows], scale, dtype=np.float64)
    calibrated = HdrImage(out)
    return CalibrationResult(calibrated=calibrated, scale_factor=scale)


def luminance_seg_labels(
    h_cal: HdrImage,
    t_low: float = DEFAULT_T_LOW,
    t_high: float = DEFAULT_T_HIGH,
) -> SegMask:
    """Three-class one-hot labels (dim / mid / bright) from a calibrated HDR.

    A pixel whose channel mean is <= t_low is dim (class 0), >= t_high is
    bright (class 2), and strictly between is mid (class 1). Thresholds are
    calibrated-domain luminances, so inputs should come from calibrate_hdr.
    """
    if not 0 < t_low < t_high:
        raise ValueError("thresholds must satisfy 0 < t_low < t_high")
    mean = channel_mean(h_cal)
    dim = mean <= t_low
    bright = mean >= t_high
    return SegMask(np.stack((dim, ~(dim | bright), bright), axis=-1).view(np.uint8))
