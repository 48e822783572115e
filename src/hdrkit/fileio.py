"""Readers and writers for the Radiance RGBE, PFM, and binary PPM formats.

All functions are pure bytes <-> image transforms; file handles belong to
the caller. PFM and PPM round-trips are bit-exact; the RGBE shared-exponent
encoding is lossy with relative error at most 2**-7 on the per-pixel max
channel.
"""

from __future__ import annotations

import enum
import re
from array import array

import numpy as np

from .image import HdrImage, LdrImage, _row_bands, image_data

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


def _rgbe_to_float(rgbe: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Decode (..., 4) uint8 quadruples to (..., 3) float32 radiance."""
    # value = mantissa * 2**(e-128) / 256, and exponent byte 0 means black.
    # An 8-bit mantissa times a power of two >= 2**-135 is exact in float32.
    scale = np.ldexp(1.0, np.arange(-136, 120)).astype(np.float32)
    scale[0] = 0.0
    return np.multiply(rgbe[..., :3], scale[rgbe[..., 3]][..., None], out=out, dtype=np.float32)


def _encodable(rgb: np.ndarray) -> np.ndarray:
    """rgb as float32 when that holds its values exactly, else float64;
    raises unless every value is finite and below 2**127."""
    rgb = np.asarray(rgb)
    exact = rgb.dtype in (np.float16, np.float32)
    rgb = rgb.astype(np.float32 if exact else np.float64, copy=False)
    if not np.all(np.isfinite(rgb)):
        raise ValueError("cannot encode non-finite values as RGBE")
    if rgb.max(initial=0.0) >= 2.0 ** 127:  # frexp exponent above 127
        raise ValueError("value too large for RGBE encoding (>= 2**127)")
    return rgb


def _float_to_rgbe(rgb: np.ndarray) -> np.ndarray:
    """Encode (..., 3) radiance that _encodable returned to (..., 4) uint8
    quadruples. Scaling by a power of two is exact, so float32 and float64
    inputs quantize alike."""
    v = np.maximum(np.maximum(rgb[..., 0], rgb[..., 1]), rgb[..., 2])
    _, exp = np.frexp(v)
    # Values below the representable exponent range encode as true black:
    # scaling by 2**-200 takes all their channels below 1.
    live = (v > 0) & (exp >= -127)
    mant = np.ldexp(rgb, np.where(live, 8 - exp, -200)[..., None])
    np.maximum(mant, 0, out=mant)  # below 256 already; the cast truncates
    out = np.empty(rgb.shape[:-1] + (4,), dtype=np.uint8)
    out[..., :3] = mant
    out[..., 3] = np.where(live, exp + 128, 0)
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

    try:
        res_end = data.index(b"\n", header_end + 2)
    except ValueError:
        raise MalformedHeaderError("missing resolution line")
    res_line = data[header_end + 2:res_end]
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

    payload = memoryview(data)[res_end + 1:]
    if len(payload) < _rgbe_min_payload(height, width):
        raise TruncatedDataError(
            f"RGBE payload of {len(payload)} bytes cannot hold {height}x{width} pixels")
    out = np.empty((height, width, 3), dtype=np.float32)
    for rows, quads in _rgbe_bands(payload, height, width):
        _rgbe_to_float(quads, out[rows])
    return HdrImage(out)


def _rgbe_min_payload(height: int, width: int) -> int:
    """Fewest payload bytes that can encode the image. An RLE scanline has a
    4-byte header, then per channel blocks of at least 2 bytes that each
    cover at most 128 pixels; a flat scanline has 4 bytes per pixel."""
    if _RLE_MIN_WIDTH <= width <= _RLE_MAX_WIDTH:
        return height * (4 + 4 * 2 * -(-width // 128))
    return height * width * 4


def _rgbe_bands(payload: memoryview, height: int, width: int):
    """Yield (rows, quadruples) for each row band of the image, so the
    codec's per-byte index arrays stay band-sized."""
    buf = np.frombuffer(payload, dtype=np.uint8)
    if not _RLE_MIN_WIDTH <= width <= _RLE_MAX_WIDTH:  # flat scanlines only
        quads = buf[:4 * height * width].reshape(height, width, 4)
        for rows in _row_bands((height, width)):
            yield rows, quads[rows]
        return
    scan = _scanline_blocks(payload, height, width)
    for rows in _row_bands((height, width)):
        yield rows, _expand_blocks(buf, scan, rows.start, min(rows.stop, height), width)


def _scanline_blocks(payload: memoryview, height: int, width: int):
    """Walk the scanlines of a payload whose width allows RLE, in stream
    order, and raise at the first malformed one. Returns (control-byte
    offsets of the RLE blocks in decode order, index of each scanline's
    first block, {scanline: payload offset} of the flat scanlines)."""
    n = len(payload)
    header = bytes((2, 2, width >> 8, width & 0xFF))
    blocks, first, flat = array("q"), array("q"), {}
    append = blocks.append
    pos = 0
    try:
        for y in range(height):
            first.append(len(blocks))
            if pos + 4 > n:
                raise TruncatedDataError("truncated RGBE scanline header")
            if payload[pos:pos + 4] != header:
                flat[y] = pos
                pos += 4 * width
                if pos > n:
                    raise TruncatedDataError("truncated flat RGBE scanline")
                continue
            pos += 4
            x = 0
            for end in (width, 2 * width, 3 * width, 4 * width):  # one per component
                while x < end:
                    count = payload[pos]  # past the end: IndexError
                    append(pos)
                    if count > 128:
                        x += count - 128
                        pos += 2
                        if x > end or pos > n:
                            raise TruncatedDataError("RGBE run overflows scanline")
                    elif count:
                        x += count
                        pos += count + 1
                        if x > end or pos > n:
                            raise TruncatedDataError("RGBE literal overflows scanline")
                    else:
                        raise TruncatedDataError("zero-length RGBE literal block")
    except IndexError:
        raise TruncatedDataError("truncated RLE RGBE scanline") from None
    first.append(len(blocks))
    return np.frombuffer(blocks, dtype=np.int64), first, flat


def _expand_blocks(buf: np.ndarray, scan, y0: int, y1: int, width: int) -> np.ndarray:
    """(y1-y0, width, 4) quadruples of scanlines y0..y1 from their blocks;
    a band that holds a flat scanline is filled row by row."""
    blocks, first, flat = scan
    if flat and not flat.keys().isdisjoint(range(y0, y1)):
        quads = np.empty((y1 - y0, width, 4), dtype=np.uint8)
        for y in range(y0, y1):
            if y in flat:
                quads[y - y0] = buf[flat[y]:flat[y] + 4 * width].reshape(width, 4)
            else:
                quads[y - y0] = _expand_blocks(buf, scan, y, y + 1, width)[0]
        return quads
    ctrl = blocks[first[y0]:first[y1]]
    count = buf[ctrl]
    lit = count <= 128
    span = np.where(lit, count, count - 128)
    # Source offset of each decoded byte: step 1 inside a literal, 0 inside
    # a run, and a jump to the block's first data byte at its start.
    src0 = ctrl + 1
    last = src0 + lit * (span - 1)
    step = np.repeat(lit.astype(np.int64), span)
    step[np.cumsum(span) - span] = src0 - np.concatenate(([0], last[:-1]))
    planes = buf[np.cumsum(step, out=step)]
    return planes.reshape(y1 - y0, 4, width).transpose(0, 2, 1)


def write_rgbe(h: HdrImage) -> bytes:
    """Encode an HDR image as Radiance RGBE, RLE-compressed when possible."""
    arr = _encodable(image_data(h))
    height, width = arr.shape[:2]
    parts = [b"#?RADIANCE\n", b"FORMAT=32-bit_rle_rgbe\n", b"\n",
             f"-Y {height} +X {width}\n".encode("ascii")]
    use_rle = _RLE_MIN_WIDTH <= width <= _RLE_MAX_WIDTH
    for rows in _row_bands((height, width)):
        quads = _float_to_rgbe(arr[rows])
        parts.append(_encode_scanlines(quads) if use_rle else quads.tobytes())
    return b"".join(parts)


def _encode_scanlines(quads: np.ndarray) -> bytes:
    """New-style RLE of (rows, width, 4) quadruples: per scanline a 4-byte
    header, then each component as runs of >= 4 equal bytes (at most 127
    per block) and the literal spans between them (at most 128 per block)."""
    width = quads.shape[1]
    flat = np.ascontiguousarray(quads.transpose(0, 2, 1)).reshape(-1)
    n = flat.size
    # same[i]: byte i repeats byte i-1 of its component row.
    same = np.empty(n, dtype=bool)
    np.equal(flat[1:], flat[:-1], out=same[1:])
    same[::width] = False
    # in_run[i]: byte i lies in a run of >= 4 equal bytes.
    four = same[1:-2] & same[2:-1] & same[3:]  # bytes j..j+3 equal
    in_run = np.zeros(n, dtype=bool)
    for lag in range(4):
        in_run[lag:n - 3 + lag] |= four
    # Segments: each run of >= 4, and each literal span within a row.
    cut = in_run.copy()
    cut[1:] ^= in_run[:-1]
    cut |= in_run & ~same
    cut[::width] = True
    seg_start = np.flatnonzero(cut)
    seg_len = np.diff(seg_start, append=n)
    seg_cap = np.where(in_run[seg_start], 127, 128)
    # Blocks: each segment cut into pieces of at most its cap.
    pieces = -(-seg_len // seg_cap)
    seg = np.repeat(np.arange(seg_start.size), pieces)
    cap = seg_cap[seg]
    start = seg_start[seg] + (np.arange(seg.size) - (np.cumsum(pieces) - pieces)[seg]) * cap
    length = np.minimum(cap, seg_start[seg] + seg_len[seg] - start)
    run = cap == 127
    # Byte offsets: a block is its control byte plus its data, and the first
    # block of each scanline follows the 4-byte scanline header.
    header = start % (4 * width) == 0
    size = np.where(run, 2, 1 + length) + 4 * header
    end = np.cumsum(size)
    ctrl = end - size + 4 * header
    out = np.empty(end[-1], dtype=np.uint8)
    head = ctrl[header] - 4
    for i, byte in enumerate((2, 2, width >> 8, width & 0xFF)):
        out[head + i] = byte
    out[ctrl] = np.where(run, 128 + length, length)
    # Destination of every byte: step 1 inside a literal block, 0 inside a
    # run (all of its bytes land on its one data byte), and a jump to the
    # block's first data byte at its start.
    first = ctrl + 1
    last = first + ~run * (length - 1)
    step = (~in_run).astype(np.int64)
    step[start] = first - np.concatenate(([0], last[:-1]))
    out[np.cumsum(step, out=step)] = flat
    return out.tobytes()


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
    try:
        scale = float(m.group(4))
    except ValueError:
        raise MalformedHeaderError(f"bad PFM scale {m.group(4)!r}") from None
    if scale == 0:
        raise MalformedHeaderError("PFM scale must be nonzero")
    dtype = np.dtype("<f4") if scale < 0 else np.dtype(">f4")
    count = width * height * 3
    if len(data) - m.end() < count * 4:
        raise TruncatedDataError("truncated PFM payload")
    rows = np.frombuffer(data, dtype, count, offset=m.end()).reshape(height, width, 3)
    # the one copy: bottom-up -> top-down, in native byte order
    arr = np.array(rows[::-1], dtype=np.float32, order="C")
    try:
        return HdrImage(arr)  # the one check of the pixel values
    except ValueError:
        raise InvalidPixelValueError("PFM holds NaN, infinite or negative values") from None


def write_pfm(h: HdrImage) -> bytearray:
    """Encode an HDR image as little-endian color PFM."""
    arr = image_data(h)
    height, width = arr.shape[:2]
    header = f"PF\n{width} {height}\n-1.0\n".encode("ascii")
    out = bytearray(len(header) + 4 * arr.size)
    out[:len(header)] = header
    payload = np.frombuffer(out, dtype="<f4", offset=len(header)).reshape(arr.shape)
    payload[...] = arr[::-1]  # the cast of astype(np.float32), straight into the stream
    return out


# ---------------------------------------------------------------------------
# PPM (type 6, maxval 255)


def _ppm_tokens(data: bytes, count: int, pos: int):
    """Yield `count` whitespace-separated tokens from offset `pos` on,
    skipping '#' comments.

    Returns (tokens, offset_of_first_payload_byte). A single whitespace
    character terminates the last token per the PPM specification.
    """
    tokens = []
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
    tokens, offset = _ppm_tokens(data, 3, 2)  # after the magic
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError:
        raise MalformedHeaderError(f"bad PPM header tokens {tokens!r}")
    if width < 1 or height < 1:
        raise MalformedHeaderError("image dimensions must be positive")
    if maxval != 255:
        raise UnsupportedPixelFormatError(f"PPM maxval {maxval} unsupported (need 255)")
    count = width * height * 3
    if len(data) - offset < count:
        raise TruncatedDataError("truncated PPM payload")
    # the one copy of the payload
    return LdrImage(np.frombuffer(data, np.uint8, count, offset).reshape(height, width, 3).copy())


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
