"""The benchmark's own image codecs: Radiance RGBE (new-style RLE), colour
PFM and binary PPM, plus the sRGB transfer function.

Inputs are written with these encoders rather than with hdrkit's writers,
so a change to hdrkit's writers cannot change what a workload reads, and
outputs are decoded with these decoders so the checks do not trust the
reader under test. RGBE values follow the convention
value = mantissa * 2**(exponent - 136), exponent byte 0 meaning black.
"""

from __future__ import annotations

import re

import numpy as np

_RLE_MIN_WIDTH = 8
_RLE_MAX_WIDTH = 32767


# ---------------------------------------------------------------------------
# RGBE


def rgbe_quantize(rgb: np.ndarray) -> np.ndarray:
    """(H, W, 3) non-negative floats -> (H, W, 4) uint8 RGBE quadruples."""
    rgb = np.asarray(rgb, dtype=np.float64)
    top = rgb.max(axis=-1)
    _, e = np.frexp(top)
    live = (top > 0) & (e + 128 >= 1)
    if np.any(e[live] > 127):
        raise ValueError("value too large for RGBE")
    out = np.zeros(rgb.shape[:-1] + (4,), dtype=np.uint8)
    out[live, :3] = np.floor(rgb[live] * np.exp2(8 - e[live])[:, None]).astype(np.uint8)
    out[live, 3] = (e[live] + 128).astype(np.uint8)
    return out


def rgbe_values(quads: np.ndarray) -> np.ndarray:
    """Exact float32 radiance of RGBE quadruples."""
    e = quads[..., 3].astype(np.int64)
    vals = np.ldexp(quads[..., :3].astype(np.float64), (e - 136)[..., None])
    vals[e == 0] = 0.0
    return vals.astype(np.float32)


def _rle_channel(b: np.ndarray) -> bytes:
    """One scanline channel: runs of 4+ equal bytes as run packets, the
    rest as literal packets of at most 128 bytes."""
    n = len(b)
    change = np.flatnonzero(b[1:] != b[:-1]) + 1
    starts = np.concatenate(([0], change))
    lengths = np.diff(np.concatenate((starts, [n])))
    long = lengths >= 4
    out = bytearray()

    def literals(a: int, z: int) -> None:
        for s in range(a, z, 128):
            e = min(s + 128, z)
            out.append(e - s)
            out.extend(b[s:e].tobytes())

    lit_from = 0
    for s, ln in zip(starts[long].tolist(), lengths[long].tolist()):
        literals(lit_from, s)
        lit_from = s + ln
        while ln > 0:
            k = min(ln, 127)
            out.extend((128 + k, int(b[s])))
            ln -= k
    literals(lit_from, n)
    return bytes(out)


def encode_rgbe(quads: np.ndarray) -> bytes:
    """RGBE file bytes for (H, W, 4) quadruples, RLE when the width allows."""
    h, w = quads.shape[:2]
    parts = [b"#?RADIANCE\nFORMAT=32-bit_rle_rgbe\n\n", f"-Y {h} +X {w}\n".encode()]
    rle = _RLE_MIN_WIDTH <= w <= _RLE_MAX_WIDTH
    for row in quads:
        if not rle:
            parts.append(row.tobytes())
            continue
        parts.append(bytes((2, 2, w >> 8, w & 0xFF)))
        parts.extend(_rle_channel(row[:, c]) for c in range(4))
    return b"".join(parts)


def decode_rgbe(data: bytes) -> np.ndarray:
    """Float32 (H, W, 3) radiance of an RGBE file (flat or RLE scanlines)."""
    head_end = data.index(b"\n\n")
    res_end = data.index(b"\n", head_end + 2)
    m = re.fullmatch(rb"-Y (\d+) \+X (\d+)", data[head_end + 2:res_end])
    if m is None:
        raise ValueError("unsupported RGBE resolution line")
    h, w = int(m.group(1)), int(m.group(2))
    buf = np.frombuffer(data, dtype=np.uint8)
    pos = res_end + 1
    quads = np.empty((h, w, 4), dtype=np.uint8)
    for y in range(h):
        if not (buf[pos] == 2 and buf[pos + 1] == 2 and _RLE_MIN_WIDTH <= w <= _RLE_MAX_WIDTH):
            quads[y] = buf[pos:pos + 4 * w].reshape(w, 4)
            pos += 4 * w
            continue
        pos += 4
        for c in range(4):
            x = 0
            while x < w:
                count = int(buf[pos])
                if count > 128:
                    quads[y, x:x + count - 128, c] = buf[pos + 1]
                    x += count - 128
                    pos += 2
                else:
                    quads[y, x:x + count, c] = buf[pos + 1:pos + 1 + count]
                    x += count
                    pos += 1 + count
    return rgbe_values(quads)


# ---------------------------------------------------------------------------
# PFM and PPM


def encode_pfm(rgb: np.ndarray) -> bytes:
    h, w = rgb.shape[:2]
    return f"PF\n{w} {h}\n-1.0\n".encode() + np.asarray(rgb, "<f4")[::-1].tobytes()


def decode_pfm(data: bytes) -> np.ndarray:
    m = re.match(rb"PF\s+(\d+)\s+(\d+)\s+(\S+)\s", data)
    if m is None:
        raise ValueError("not a colour PFM")
    w, h, scale = int(m.group(1)), int(m.group(2)), float(m.group(3))
    dtype = "<f4" if scale < 0 else ">f4"
    arr = np.frombuffer(data, dtype=dtype, count=w * h * 3, offset=m.end())
    return arr.reshape(h, w, 3)[::-1].astype(np.float32)


def encode_ppm(codes: np.ndarray) -> bytes:
    h, w = codes.shape[:2]
    return f"P6\n{w} {h}\n255\n".encode() + np.asarray(codes, np.uint8).tobytes()


def decode_ppm(data: bytes) -> np.ndarray:
    m = re.match(rb"P6\s+(\d+)\s+(\d+)\s+255\s", data)
    if m is None:
        raise ValueError("not an 8-bit P6 PPM")
    w, h = int(m.group(1)), int(m.group(2))
    return np.frombuffer(data, np.uint8, count=w * h * 3, offset=m.end()).reshape(h, w, 3)


# ---------------------------------------------------------------------------
# sRGB


def srgb_decode_lut() -> np.ndarray:
    """float32 linear value of each of the 256 sRGB codes (IEC 61966-2-1)."""
    c = np.arange(256) / 255.0
    lin = np.where(c <= 0.04045, c / 12.92, ((c + 0.055) / 1.055) ** 2.4)
    return np.clip(lin, 0.0, 1.0).astype(np.float32)


def srgb_encode_codes(linear: np.ndarray) -> np.ndarray:
    """8-bit sRGB codes of linear values, clamped to [0, 1], halves up."""
    v = np.clip(np.asarray(linear, dtype=np.float64), 0.0, 1.0)
    s = np.where(v <= 0.0031308, v * 12.92, 1.055 * v ** (1 / 2.4) - 0.055)
    return np.clip(np.floor(s * 255.0 + 0.5), 0, 255).astype(np.uint8)
