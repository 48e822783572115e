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

from .image import HdrImage, LinearLdr, SegMask, channel_mean, image_data

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
    if not 0 < tau <= 1:
        raise ValueError("tau must lie in (0, 1]")
    return (channel_mean(i) < tau).astype(np.uint8)


def calibrate_hdr(h: HdrImage, i: LinearLdr, tau: float = DEFAULT_TAU) -> CalibrationResult:
    """Rescale an HDR image to the luminance level of its linear LDR reference.

    The scale factor is the ratio of the masked channel sums of the LDR and
    HDR images, where the mask keeps non-overexposed pixels only. Sums are
    accumulated in double precision regardless of the input dtype.

    Raises UncalibratableError when every pixel is overexposed or the masked
    HDR sum vanishes.
    """
    hd = image_data(h)
    ld = image_data(i)
    if hd.shape != ld.shape:
        raise ValueError(f"shape mismatch: HDR {hd.shape} vs LDR {ld.shape}")
    mask = overexposure_mask(i, tau).astype(bool)
    if not mask.any():
        raise UncalibratableError("all pixels are overexposed; no calibration anchor")
    s_ldr = float(ld[mask].sum(dtype=np.float64))
    s_hdr = float(hd[mask].sum(dtype=np.float64))
    if s_hdr <= 0:
        raise UncalibratableError("masked HDR sum is zero; scale is undefined")
    scale = s_ldr / s_hdr
    calibrated = HdrImage(np.multiply(hd, scale, dtype=np.float64).astype(hd.dtype))
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
