"""Image value types, sRGB conversions, and exposure-window previews.

All buffers are numpy arrays of shape (height, width, 3), row-major with
row 0 at the top of the image. HDR data is linear radiance in relative
luminance units; LDR data is 8-bit sRGB-encoded; LinearLdr is the
linearized [0, 1] float counterpart of an LDR image.

Stages read buffers of any dtype as they are and compute in float64: each
ufunc that first touches an input promotes it with dtype=np.float64, or
the input is cast one gather or row band at a time, so a float32 or
integer image gets the values its float64 copy would give, without that
copy. (A float32 array times a Python float stays float32, so the
promotion must be explicit.) Per-pixel stages run in the row bands of
_row_bands, and a float64 sum over the whole image is made band by band
by _exact_sum, with the bits of numpy's sum over a float64 copy. The one
exception is calibrate_hdr's masked sums: numpy sums float32 data reduced
with dtype=np.float64 in buffers of 8192 values, so the scale factor of a
float32 pair can differ in its last bits from that of its float64 copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HdrImage",
    "LdrImage",
    "LinearLdr",
    "SegMask",
    "image_data",
    "srgb_eotf",
    "srgb_oetf",
    "quantize_u8",
    "srgb_to_linear",
    "linear_to_srgb",
    "channel_mean",
    "exposure_preview",
]

# Two-piece sRGB transfer function constants.
_SRGB_LINEAR_MAX = 0.04045
_SRGB_SLOPE = 12.92
_SRGB_A = 1.055
_SRGB_B = 0.055
_SRGB_GAMMA = 2.4
_SRGB_EOTF_BREAK = _SRGB_LINEAR_MAX / _SRGB_SLOPE  # 0.0031308...
# values per row band of a per-pixel stage: 512 KiB per float64 temporary
_BAND_VALUES = 1 << 16


@dataclass(eq=False)
class _Image:
    """An (height, width, 3) pixel buffer; each subclass checks its values
    and may coerce their dtype in _checked."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data)
        _check_shape(arr.shape)
        self.data = self._checked(np.ascontiguousarray(arr))

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]


def _check_shape(shape: tuple) -> None:
    if len(shape) != 3 or shape[2] != 3:
        raise ValueError(f"expected (height, width, 3) array, got shape {shape}")
    if shape[0] < 1 or shape[1] < 1:
        raise ValueError("image must be at least 1x1")


def _float_finite(arr: np.ndarray, what: str) -> np.ndarray:
    """arr as floats (float32 unless already floating), all finite."""
    if not np.issubdtype(arr.dtype, np.floating):
        arr = arr.astype(np.float32)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite values")
    return arr


class HdrImage(_Image):
    """Linear radiance image in relative luminance units.

    Values must be finite and non-negative; the absolute scale carries no
    meaning until the image is calibrated against an LDR reference.
    """

    def _checked(self, arr):
        arr = _float_finite(arr, "HDR image")
        if arr.min() < 0:
            raise ValueError("HDR image contains negative values")
        return arr


class LdrImage(_Image):
    """8-bit sRGB-encoded image (stored display codes, 0..255)."""

    def _checked(self, arr):
        if arr.dtype != np.uint8:
            if np.issubdtype(arr.dtype, np.integer) and arr.min() >= 0 and arr.max() <= 255:
                arr = arr.astype(np.uint8)
            else:
                raise ValueError("LDR image must be uint8 (codes 0..255)")
        return arr


class LinearLdr(_Image):
    """Linear-light float image with every value in [0, 1]."""

    def _checked(self, arr):
        arr = _float_finite(arr, "linear LDR")
        if arr.min() < 0 or arr.max() > 1:
            raise ValueError("linear LDR values must lie in [0, 1]")
        return arr


class SegMask(_Image):
    """One-hot three-class luminance map (dim / mid / bright per pixel)."""

    def _checked(self, arr):
        # checked before the cast, which would wrap 256 to 0 and cut 1.7 to 1
        if not np.all((arr == 0) | (arr == 1)):
            raise ValueError("segmentation mask must be one-hot (0/1 values)")
        arr = arr.astype(np.uint8, copy=False)
        # the values are 0 or 1, so the uint8 sum of the planes cannot overflow
        if not np.all(arr[..., 0] + arr[..., 1] + arr[..., 2] == 1):
            raise ValueError("segmentation mask channels must sum to 1 per pixel")
        return arr


def _row_bands(shape: tuple):
    """Row slices covering an (H, W) or (H, W, 3) shape, each of at most
    _BAND_VALUES values but at least one row. A per-pixel stage run band
    by band gives every value the bits it gets on the whole image, and its
    temporaries stay band-sized."""
    band = max(1, _BAND_VALUES // max(1, math.prod(shape[1:])))
    for r in range(0, shape[0], band):
        yield slice(r, r + band)


def _exact_sum(n: int, leaf) -> float:
    """np.add.reduce of the float64 array of n values whose values lo:hi
    are leaf(lo, hi), bit for bit, without making that array.

    numpy sums a contiguous float64 array pairwise: a piece of more than
    128 values splits at n2 = n // 2 less n2 % 8, and its halves are summed
    apart. Splitting the same way down to pieces of at most _BAND_VALUES
    values, and reducing each piece, a fresh contiguous float64 band, in one
    np.add.reduce, makes the same additions in the same order. (Reducing
    float32 data with dtype=np.float64 does not: numpy casts it in buffers
    of 8192 values and sums each buffer apart.) A mean is this sum over n.
    _pairwise recurses at module level, so no cycle keeps leaf alive.
    """
    return _pairwise(leaf, 0, n)


def _pairwise(leaf, lo: int, count: int) -> float:
    if count <= _BAND_VALUES:
        return float(np.add.reduce(leaf(lo, lo + count)))
    half = count // 2
    half -= half % 8
    return _pairwise(leaf, lo, half) + _pairwise(leaf, lo + half, count - half)


def image_data(img) -> np.ndarray:
    """Return the pixel buffer of a wrapper type, or the array itself."""
    if isinstance(img, np.ndarray):
        return img
    if hasattr(img, "data"):
        return np.asarray(img.data)
    return np.asarray(img)


def _fitted_mask(mask, shape: tuple) -> np.ndarray:
    """The float64 merge mask, shaped to broadcast over an image of `shape`:
    the image's shape, (H, W), or (H, W, 1) when the image has channels."""
    m = np.asarray(image_data(mask), dtype=np.float64)
    fits = [shape, shape[:2]] + ([shape[:2] + (1,)] if len(shape) == 3 else [])
    if m.shape not in fits:
        raise ValueError(f"merge mask of shape {m.shape} does not fit the image's {shape}")
    return m[..., None] if m.ndim < len(shape) else m


def srgb_eotf(x: np.ndarray) -> np.ndarray:
    """Decode sRGB-encoded values in [0, 1] to linear light."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(
        x <= _SRGB_LINEAR_MAX,
        x / _SRGB_SLOPE,
        ((x + _SRGB_B) / _SRGB_A) ** _SRGB_GAMMA,
    )


def srgb_oetf(x: np.ndarray) -> np.ndarray:
    """Encode linear-light values to sRGB in [0, 1]; input is clamped first."""
    x = np.clip(np.asarray(x, dtype=np.float64), 0.0, 1.0)
    return np.where(
        x <= _SRGB_EOTF_BREAK,
        x * _SRGB_SLOPE,
        _SRGB_A * x ** (1.0 / _SRGB_GAMMA) - _SRGB_B,
    )


def quantize_u8(x: np.ndarray) -> np.ndarray:
    """Quantize [0, 1] values to 0..255 bytes, rounding halves up."""
    codes = np.floor(np.asarray(x, dtype=np.float64) * 255.0 + 0.5)
    return np.clip(codes, 0, 255).astype(np.uint8)


def srgb_to_linear(img: LdrImage) -> LinearLdr:
    """Convert stored 8-bit sRGB codes to linear RGB in [0, 1]."""
    lut = np.clip(srgb_eotf(np.arange(256) / 255.0), 0.0, 1.0).astype(np.float32)
    return LinearLdr(lut[image_data(img)])


def linear_to_srgb(img: LinearLdr) -> LdrImage:
    """Encode linear RGB to 8-bit sRGB codes (exact inverse on the 256 codes)."""
    return LdrImage(quantize_u8(srgb_oetf(image_data(img))))


def channel_mean(img) -> np.ndarray:
    """Per-pixel arithmetic mean of the three channels, as (H, W) float64.

    Bit-identical to mean(axis=2), which sums from +0.0 in channel order
    but runs as a slow strided reduction over the 3-long axis.
    """
    d = image_data(img)
    if d.ndim != 3 or d.shape[2] != 3:
        raise ValueError(f"expected (height, width, 3) array, got shape {d.shape}")
    total = np.add(0.0, d[..., 0], dtype=np.float64)
    total += d[..., 1]
    total += d[..., 2]
    total /= 3
    return total


def exposure_preview(h: HdrImage, exposure_ev: float, dr_window_ev: float) -> LdrImage:
    """Map an HDR image into an LDR preview through a limited exposure window.

    The image is scaled by 2**exposure_ev, values below 2**(-dr_window_ev)
    are floored to 0, the rest are clamped to [0, 1], and the result is
    sRGB-encoded. Deterministic; useful for visual inspection only.
    """
    data = image_data(h)
    return _banded_preview(data.shape, lambda rows: data[rows], exposure_ev, dr_window_ev)


def _banded_preview(shape: tuple, values, exposure_ev: float, dr_window_ev: float) -> LdrImage:
    """exposure_preview of the image whose rows `rows` are values(rows),
    made one row band at a time."""
    if not dr_window_ev > 0:
        raise ValueError("dr_window_ev must be positive")
    gain = 2.0 ** exposure_ev
    floor = 2.0 ** (-dr_window_ev)
    out = np.empty(shape, dtype=np.uint8)
    for rows in _row_bands(shape):
        scaled = values(rows).astype(np.float64, copy=False) * gain
        windowed = np.where(scaled < floor, 0.0, np.minimum(scaled, 1.0))
        out[rows] = quantize_u8(srgb_oetf(windowed))
    return LdrImage(out)
