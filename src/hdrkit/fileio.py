"""Readers and writers for the Radiance RGBE, PFM, and binary PPM formats.

All functions are pure bytes <-> image transforms; file handles belong to
the caller. PFM and PPM round-trips are bit-exact; the RGBE shared-exponent
encoding is lossy with relative error at most 2**-7 on the per-pixel max
channel.
"""

from __future__ import annotations

import enum
import re

import numpy as np

from .image import HdrImage, LdrImage, image_data

__all__ = [
    "FileFormat",
    "HdrIoError",
    "MalformedHeaderError",
    "UnsupportedOrientationError",
    "TruncatedDataError",
    "UnsupportedPixelFormatError",
    "InvalidPixelValueError",
    "detect_format",
    "read_rgbe",
    "write_rgbe",
    "read_pfm",
    "write_pfm",
    "read_ppm",
    "write_ppm",
    "read_image",
    "write_image",
]


class HdrIoError(ValueError):
    """Base error for malformed or unsupported image files."""


class MalformedHeaderError(HdrIoError):
    pass


class UnsupportedOrientationError(HdrIoError):
    pass


class TruncatedDataError(HdrIoError):
    pass


class UnsupportedPixelFormatError(HdrIoError):
    pass


class InvalidPixelValueError(HdrIoError):
    """Decoded pixels that no HDR image may hold (NaN, infinite, negative)."""


class FileFormat(enum.Enum):
    RADIANCE_RGBE = "rgbe"
    PFM = "pfm"
    PPM6 = "ppm"


def detect_format(data: bytes) -> FileFormat:
    """Identify one of the three supported formats from its magic bytes."""
    if data.startswith(b"#?RADIANCE") or data.startswith(b"#?RGBE"):
        return FileFormat.RADIANCE_RGBE
    if data.startswith(b"PF"):
        return FileFormat.PFM
    if data.startswith(b"P6"):
        return FileFormat.PPM6
    if data.startswith(b"Pf"):
        raise UnsupportedPixelFormatError("grayscale PFM ('Pf') is not supported")
    raise MalformedHeaderError("unrecognized file format (not RGBE, PFM, or PPM)")


# ---------------------------------------------------------------------------
# Radiance RGBE

_RGBE_RESOLUTION_RE = re.compile(rb"^-Y (\d+) \+X (\d+)$")
# New-style RLE needs the scanline width to fit in the two-byte header.
_RLE_MIN_WIDTH = 8
_RLE_MAX_WIDTH = 32767


def _rgbe_to_float(rgbe: np.ndarray) -> np.ndarray:
    """Decode (..., 4) uint8 quadruples to (..., 3) float32 radiance."""
    mantissa = rgbe[..., :3].astype(np.float64)
    exponent = rgbe[..., 3].astype(np.int32)
    # value = mantissa * 2**(e-128) / 256; exponent byte 0 means black
    scaled = np.ldexp(mantissa, (exponent - 136)[..., None])
    scaled[exponent == 0] = 0.0
    return scaled.astype(np.float32)


def _float_to_rgbe(rgb: np.ndarray) -> np.ndarray:
    """Encode (..., 3) float radiance to (..., 4) uint8 quadruples."""
    rgb = np.asarray(rgb, dtype=np.float64)
    if not np.all(np.isfinite(rgb)):
        raise ValueError("cannot encode non-finite values as RGBE")
    v = rgb.max(axis=-1)
    _, exp = np.frexp(v)
    if np.any(exp > 127):
        raise ValueError("value too large for RGBE encoding (>= 2**127)")
    out = np.zeros(rgb.shape[:-1] + (4,), dtype=np.uint8)
    # Values below the representable exponent range encode as true black.
    live = (v > 0) & (exp + 128 >= 1)
    mant = np.floor(np.ldexp(rgb[live], (8 - exp[live])[..., None]))
    out[live, :3] = np.clip(mant, 0, 255).astype(np.uint8)
    out[live, 3] = (exp[live] + 128).astype(np.uint8)
    return out


def read_rgbe(data: bytes) -> HdrImage:
    """Decode a Radiance RGBE stream (flat or new-style RLE scanlines)."""
    if not (data.startswith(b"#?RADIANCE") or data.startswith(b"#?RGBE")):
        raise MalformedHeaderError("missing '#?RADIANCE' / '#?RGBE' magic")
    try:
        header_end = data.index(b"\n\n")
    except ValueError:
        raise MalformedHeaderError("RGBE header is not terminated by a blank line")
    header_lines = data[:header_end].split(b"\n")
    fmt_ok = any(line.strip() == b"FORMAT=32-bit_rle_rgbe" for line in header_lines)
    if not fmt_ok:
        raise MalformedHeaderError("missing FORMAT=32-bit_rle_rgbe header line")

    rest = data[header_end + 2:]
    try:
        res_end = rest.index(b"\n")
    except ValueError:
        raise MalformedHeaderError("missing resolution line")
    res_line = rest[:res_end]
    m = _RGBE_RESOLUTION_RE.match(res_line)
    if m is None:
        if re.match(rb"^[-+][XY] \d+ [-+][XY] \d+$", res_line):
            raise UnsupportedOrientationError(
                f"unsupported orientation {res_line.decode('ascii', 'replace')!r}; "
                "only '-Y h +X w' is handled"
            )
        raise MalformedHeaderError(f"bad resolution line {res_line!r}")
    height, width = int(m.group(1)), int(m.group(2))
    if width < 1 or height < 1:
        raise MalformedHeaderError("image dimensions must be positive")

    payload = memoryview(rest[res_end + 1:])
    if len(payload) < _rgbe_min_payload(height, width):
        raise TruncatedDataError(
            f"RGBE payload of {len(payload)} bytes cannot hold {height}x{width} pixels")
    pos = 0
    rows = np.empty((height, width, 4), dtype=np.uint8)
    for y in range(height):
        pos = _read_scanline(payload, pos, rows[y], width)
    return HdrImage(_rgbe_to_float(rows))


def _rgbe_min_payload(height: int, width: int) -> int:
    """Fewest payload bytes that can encode the image. An RLE scanline has a
    4-byte header, then per channel blocks of at least 2 bytes that each
    cover at most 128 pixels; a flat scanline has 4 bytes per pixel."""
    if _RLE_MIN_WIDTH <= width <= _RLE_MAX_WIDTH:
        return height * (4 + 4 * 2 * -(-width // 128))
    return height * width * 4


def _read_scanline(buf: memoryview, pos: int, out: np.ndarray, width: int) -> int:
    if pos + 4 > len(buf):
        raise TruncatedDataError("truncated RGBE scanline header")
    b0, b1, b2, b3 = buf[pos], buf[pos + 1], buf[pos + 2], buf[pos + 3]
    is_rle = (
        b0 == 2 and b1 == 2 and ((b2 << 8) | b3) == width
        and _RLE_MIN_WIDTH <= width <= _RLE_MAX_WIDTH
    )
    if not is_rle:
        end = pos + 4 * width
        if end > len(buf):
            raise TruncatedDataError("truncated flat RGBE scanline")
        out[:] = np.frombuffer(buf[pos:end], dtype=np.uint8).reshape(width, 4)
        return end

    pos += 4
    for c in range(4):
        x = 0
        while x < width:
            if pos >= len(buf):
                raise TruncatedDataError("truncated RLE RGBE scanline")
            count = buf[pos]
            pos += 1
            if count > 128:
                run = count - 128
                if x + run > width or pos >= len(buf):
                    raise TruncatedDataError("RGBE run overflows scanline")
                out[x:x + run, c] = buf[pos]
                pos += 1
                x += run
            else:
                if count == 0:
                    raise TruncatedDataError("zero-length RGBE literal block")
                if x + count > width or pos + count > len(buf):
                    raise TruncatedDataError("RGBE literal overflows scanline")
                out[x:x + count, c] = np.frombuffer(buf[pos:pos + count], dtype=np.uint8)
                pos += count
                x += count
    return pos


def write_rgbe(h: HdrImage) -> bytes:
    """Encode an HDR image as Radiance RGBE, RLE-compressed when possible."""
    arr = image_data(h)
    height, width = arr.shape[:2]
    rgbe = _float_to_rgbe(arr)
    parts = [b"#?RADIANCE\n", b"FORMAT=32-bit_rle_rgbe\n", b"\n",
             f"-Y {height} +X {width}\n".encode("ascii")]
    use_rle = _RLE_MIN_WIDTH <= width <= _RLE_MAX_WIDTH
    for y in range(height):
        row = rgbe[y]
        if not use_rle:
            parts.append(row.tobytes())
            continue
        parts.append(bytes((2, 2, width >> 8, width & 0xFF)))
        for c in range(4):
            parts.append(_encode_component(row[:, c]))
    return b"".join(parts)


def _encode_component(values: np.ndarray) -> bytes:
    """RLE-encode one scanline component (runs of >= 4, literals up to 128)."""
    n = len(values)
    boundaries = np.flatnonzero(np.diff(values)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [n]))
    lengths = ends - starts
    long_runs = np.flatnonzero(lengths >= 4)

    out = bytearray()

    def emit_literals(a: int, b: int) -> None:
        for i in range(a, b, 128):
            chunk = values[i:min(i + 128, b)]
            out.append(len(chunk))
            out.extend(chunk.tobytes())

    cursor = 0
    for idx in long_runs:
        start, length = int(starts[idx]), int(lengths[idx])
        if start > cursor:
            emit_literals(cursor, start)
        value = int(values[start])
        remaining = length
        while remaining > 0:
            run = min(remaining, 127)
            out.append(128 + run)
            out.append(value)
            remaining -= run
        cursor = start + length
    if cursor < n:
        emit_literals(cursor, n)
    return bytes(out)


# ---------------------------------------------------------------------------
# PFM

_PFM_HEADER_RE = re.compile(rb"^(P[Ff])\s+(\d+)\s+(\d+)\s+([-+]?[0-9.eE+-]+)\s")


def read_pfm(data: bytes) -> HdrImage:
    """Decode a color PFM stream (rows stored bottom-to-top)."""
    m = _PFM_HEADER_RE.match(data)
    if m is None:
        raise MalformedHeaderError("bad PFM header")
    magic = m.group(1)
    if magic == b"Pf":
        raise UnsupportedPixelFormatError("grayscale PFM ('Pf') is not supported")
    width, height = int(m.group(2)), int(m.group(3))
    if width < 1 or height < 1:
        raise MalformedHeaderError("image dimensions must be positive")
    scale = float(m.group(4))
    if scale == 0:
        raise MalformedHeaderError("PFM scale must be nonzero")
    dtype = np.dtype("<f4") if scale < 0 else np.dtype(">f4")
    count = width * height * 3
    payload = data[m.end():]
    if len(payload) < count * 4:
        raise TruncatedDataError("truncated PFM payload")
    arr = np.frombuffer(payload[:count * 4], dtype=dtype).reshape(height, width, 3)
    arr = arr.astype(np.float32)  # native byte order
    if not np.all(np.isfinite(arr)) or arr.min(initial=0.0) < 0:
        raise InvalidPixelValueError("PFM holds NaN, infinite or negative values")
    return HdrImage(np.ascontiguousarray(arr[::-1]))  # bottom-up -> top-down


def write_pfm(h: HdrImage) -> bytes:
    """Encode an HDR image as little-endian color PFM."""
    arr = image_data(h).astype(np.float32, copy=False)
    height, width = arr.shape[:2]
    header = f"PF\n{width} {height}\n-1.0\n".encode("ascii")
    return header + arr[::-1].astype("<f4").tobytes()


# ---------------------------------------------------------------------------
# PPM (type 6, maxval 255)


def _ppm_tokens(data: bytes, count: int):
    """Yield `count` whitespace-separated tokens, skipping '#' comments.

    Returns (tokens, offset_of_first_payload_byte). A single whitespace
    character terminates the last token per the PPM specification.
    """
    tokens = []
    pos = 0
    n = len(data)
    while len(tokens) < count:
        while pos < n and data[pos:pos + 1].isspace():
            pos += 1
        if pos < n and data[pos:pos + 1] == b"#":
            while pos < n and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < n and not data[pos:pos + 1].isspace():
            pos += 1
        if pos == start:
            raise TruncatedDataError("unexpected end of PPM header")
        tokens.append(data[start:pos])
    if pos >= n:
        raise TruncatedDataError("PPM header not followed by payload")
    return tokens, pos + 1  # consume the single whitespace after maxval


def read_ppm(data: bytes) -> LdrImage:
    """Decode a binary PPM (P6) stream with maxval 255."""
    if not data.startswith(b"P6"):
        raise MalformedHeaderError("missing 'P6' magic")
    tokens, offset = _ppm_tokens(data[2:], 3)
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError:
        raise MalformedHeaderError(f"bad PPM header tokens {tokens!r}")
    if width < 1 or height < 1:
        raise MalformedHeaderError("image dimensions must be positive")
    if maxval != 255:
        raise UnsupportedPixelFormatError(f"PPM maxval {maxval} unsupported (need 255)")
    count = width * height * 3
    payload = data[2 + offset:]
    if len(payload) < count:
        raise TruncatedDataError("truncated PPM payload")
    arr = np.frombuffer(payload[:count], dtype=np.uint8).reshape(height, width, 3)
    return LdrImage(arr.copy())


def write_ppm(img: LdrImage) -> bytes:
    """Encode an 8-bit image as binary PPM (P6)."""
    arr = image_data(img)
    if arr.dtype != np.uint8:
        raise ValueError("PPM writer requires uint8 data")
    height, width = arr.shape[:2]
    return f"P6\n{width} {height}\n255\n".encode("ascii") + arr.tobytes()


# ---------------------------------------------------------------------------
# Dispatch helpers used by the CLI


def read_image(data: bytes):
    """Decode any supported format, returning HdrImage or LdrImage."""
    fmt = detect_format(data)
    if fmt is FileFormat.RADIANCE_RGBE:
        return read_rgbe(data)
    if fmt is FileFormat.PFM:
        return read_pfm(data)
    return read_ppm(data)


def write_image(img, fmt: FileFormat) -> bytes:
    """Encode an image wrapper in the requested format."""
    if fmt is FileFormat.RADIANCE_RGBE:
        return write_rgbe(img)
    if fmt is FileFormat.PFM:
        return write_pfm(img)
    return write_ppm(img)
