"""The vectorized RGBE codec against sequential references.

The decoder's references are the sequential scanline parser that the block
walk and band gather replaced, and the float64 `ldexp` decode; the
encoder's is the per-scanline, per-component RLE loop it replaced. Both
replaced loops are copied below.
"""

import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hdrkit import fileio
from hdrkit.fileio import read_rgbe, write_rgbe
from hdrkit.image import HdrImage

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
HEADER = b"#?RADIANCE\nFORMAT=32-bit_rle_rgbe\n\n"


# --- references ---------------------------------------------------------------

def reference_quadruples(rgb):
    """The float64 RGBE quantizer, one masked pixel set at a time."""
    rgb = np.asarray(rgb, dtype=np.float64)
    v = rgb.max(axis=-1)
    _, exp = np.frexp(v)
    out = np.zeros(rgb.shape[:-1] + (4,), dtype=np.uint8)
    live = (v > 0) & (exp + 128 >= 1)
    mant = np.floor(np.ldexp(rgb[live], (8 - exp[live])[..., None]))
    out[live, :3] = np.clip(mant, 0, 255).astype(np.uint8)
    out[live, 3] = (exp[live] + 128).astype(np.uint8)
    return out


def reference_component(values):
    """RLE-encode one scanline component (runs of >= 4, literals up to 128)."""
    n = len(values)
    boundaries = np.flatnonzero(np.diff(values)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [n]))
    lengths = ends - starts
    long_runs = np.flatnonzero(lengths >= 4)

    out = bytearray()

    def emit_literals(a, b):
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


def reference_write(arr):
    arr = np.asarray(arr)
    height, width = arr.shape[:2]
    rgbe = reference_quadruples(arr)
    parts = [HEADER, f"-Y {height} +X {width}\n".encode("ascii")]
    use_rle = 8 <= width <= 32767
    for y in range(height):
        row = rgbe[y]
        if not use_rle:
            parts.append(row.tobytes())
            continue
        parts.append(bytes((2, 2, width >> 8, width & 0xFF)))
        for c in range(4):
            parts.append(reference_component(row[:, c]))
    return b"".join(parts)


TruncatedDataError = fileio.TruncatedDataError
_RLE_MIN_WIDTH, _RLE_MAX_WIDTH = 8, 32767


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


def sequential_bands(payload, height, width):
    """The whole image as one band, decoded scanline by scanline."""
    pos = 0
    quads = np.empty((height, width, 4), dtype=np.uint8)
    for y in range(height):
        pos = _read_scanline(payload, pos, quads[y], width)
    yield slice(0, height), quads


def sequential_read(data):
    """read_rgbe with its payload decoded by the sequential parser."""
    with mock.patch.object(fileio, "_rgbe_bands", sequential_bands):
        return read_rgbe(data)


def outcome(read, data):
    try:
        return "ok", read(data).data.tobytes()
    except fileio.HdrIoError as e:
        return type(e), str(e)


def payload_of(data):
    start = data.index(b"\n", data.index(b"-Y ")) + 1
    return data[:start], data[start:]


@pytest.fixture(scope="module")
def bench_panorama():
    """The seeded 1024x512 benchmark panorama: its exact float32 radiance and
    the RGBE bytes the benchmark writes for it."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import imgio
        import inputs
    finally:
        sys.path.remove(str(PERFBENCH))
    quads, exact = inputs.rgbe_exact(inputs.panorama(np.random.default_rng([7, 1]), 1024, 512))
    return exact, imgio.encode_rgbe(quads)


# --- float halves ---------------------------------------------------------------

def test_decode_table_exact_on_every_quadruple():
    m, e = np.meshgrid(np.arange(256), np.arange(256))
    quads = np.stack((m, 255 - m, m // 3, e), axis=-1).astype(np.uint8)
    want = np.ldexp(quads[..., :3].astype(np.float64), (e - 136)[..., None])
    want[e == 0] = 0.0
    got = fileio._rgbe_to_float(quads)
    assert got.dtype == np.float32
    assert np.array_equal(got.view(np.uint32), want.astype(np.float32).view(np.uint32))


def test_float32_quantizer_matches_float64_reference():
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 0x7F000000, (60000, 3), dtype=np.uint32)  # finite, < 2**127
    x = bits.view(np.float32).copy()
    x[::2, 1] *= np.float32(2.0 ** -40)
    x[::3, 2] = 0
    edges = np.array([0, 2 ** -149, 2 ** -128, 2 ** -127, 1.5 * 2 ** -127, 2 ** -126, 3e-39,
                      0.5, 255 / 256, 1, 2 ** 126, np.nextafter(np.float32(2 ** 127), 0)],
                     dtype=np.float32)
    grid = np.stack(np.meshgrid(edges, edges, edges), axis=-1).reshape(-1, 3)
    wide = np.minimum(rng.lognormal(0.0, 30.0, (20000, 3)), 1e38)
    for rgb in (x, grid, wide, np.array([[1e-300, 5e-324, 0.0], [2.0 ** -127, 1e-39, 0.0]])):
        got = fileio._float_to_rgbe(fileio._encodable(rgb))
        assert np.array_equal(got, reference_quadruples(rgb))


@pytest.mark.parametrize("bad, message", [(np.nan, "non-finite"), (np.inf, "non-finite"),
                                          (2.0 ** 127, "too large")])
def test_unencodable_values_raise(bad, message):
    rgb = np.ones((3, 9, 3), dtype=np.float32)
    rgb[2, 4, 1] = bad
    with pytest.raises(ValueError, match=message):
        write_rgbe(rgb)


# --- encoder byte pins ----------------------------------------------------------

def runs_image(lengths, width):
    """One row per channel pattern: runs of the given lengths, alternating
    with single distinct values, wrapped to the width."""
    vals = []
    for i, n in enumerate(lengths):
        vals += [1.0 + i % 5] * n + [0.25 * (i % 3 + 1)]
    row = np.resize(np.array(vals, dtype=np.float32), width)
    return np.stack((row, row[::-1], np.roll(row, 7)), axis=-1)[None]


PIN_CASES = {
    **{f"noise w{w}": (1 + w % 3, w) for w in (7, 8, 9, 127, 128, 129, 130, 131)},
    "noise w32767": (1, 32767),
    "noise w32768 (flat)": (1, 32768),
    "noise w40000 (flat)": (1, 40000),
}


@pytest.mark.parametrize("name", sorted(PIN_CASES))
def test_encoder_bytes_pinned_on_noise(name):
    height, width = PIN_CASES[name]
    arr = np.random.default_rng(width).lognormal(0.0, 1.5, (height, width, 3)).astype(np.float32)
    assert write_rgbe(HdrImage(arr)) == reference_write(arr)


@pytest.mark.parametrize("run", [3, 4, 127, 128, 129, 255])
@pytest.mark.parametrize("width", [8, 131, 300, 1024])
def test_encoder_bytes_pinned_on_runs(run, width):
    arr = np.concatenate([runs_image([run, 1, run, 2, run + 1, 5], width),
                          runs_image([run] * 4, width), runs_image([1, run, 3], width)])
    data = write_rgbe(HdrImage(arr))
    assert data == reference_write(arr)
    assert np.array_equal(read_rgbe(data).data, sequential_read(data).data)


def test_encoder_bytes_pinned_on_black_and_edge_rows():
    arr = np.zeros((6, 200, 3), dtype=np.float32)
    arr[1, :4] = 1.0  # a run of 4 at the row start
    arr[2, -3:] = 2.0  # a short run at the row end
    arr[3, ::2] = 0.5  # literals only
    arr[4, 5:9] = 1e-39  # below the exponent range: black
    arr[5] = 3.0
    assert write_rgbe(HdrImage(arr)) == reference_write(arr)


def test_encoder_bytes_pinned_on_bench_panorama(bench_panorama):
    exact, stored = bench_panorama
    data = write_rgbe(HdrImage(exact))
    assert data == reference_write(exact)
    assert data == stored


# --- decoder ----------------------------------------------------------------------

def test_bench_panorama_decodes_through_vector_path(bench_panorama):
    exact, stored = bench_panorama
    got = read_rgbe(stored).data
    assert np.array_equal(got, exact)
    assert np.array_equal(got, sequential_read(stored).data)


def test_false_scanline_candidates_outnumber_scanlines():
    # every block is a literal whose data holds the scanline header, so each
    # scanline carries 4 false (2, 2, 0, 16) headers beside its true one
    width, height = 16, 5
    rng = np.random.default_rng(3)
    lines = []
    for _ in range(height):
        line = [2, 2, 0, 16]
        for _ in range(4):
            literal = rng.integers(0, 256, width).astype(np.uint8)
            literal[3:7] = (2, 2, 0, 16)
            line += [width, *literal]
        lines.append(bytes(line))
    data = HEADER + f"-Y {height} +X {width}\n".encode() + b"".join(lines)
    hits = np.lib.stride_tricks.sliding_window_view(np.frombuffer(data, np.uint8), 4)
    assert (hits == (2, 2, 0, 16)).all(axis=1).sum() == 5 * height
    assert outcome(read_rgbe, data) == outcome(sequential_read, data)


def test_candidate_at_every_byte_falls_back_in_bounded_memory():
    # width 514 = 0x0202: a run of 2s reads as scanline headers, each
    # followed by 1028 two-pixel literals
    data = HEADER + b"-Y 4 +X 514\n" + bytes([2]) * 12400
    tracemalloc.start()
    try:
        got = outcome(read_rgbe, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == outcome(sequential_read, data) and got[0] == "ok"
    assert peak < 2 ** 22


def test_long_single_scanline_goes_to_sequential_parser():
    # one-pixel literals only: 131068 blocks in one scanline
    width = 32767
    data = (HEADER + f"-Y 1 +X {width}\n".encode() + bytes((2, 2, width >> 8, width & 0xFF))
            + bytes((1, 7)) * (4 * width))
    assert np.all(read_rgbe(data).data == 7 * 2.0 ** -129)


def one_pixel_literals(height, width, seed):
    """An RLE stream of one-pixel literal blocks only: the most blocks a
    payload can hold, two bytes per decoded byte. Returns the stream and
    its (height, 4, width) planes of mantissas and exponents."""
    planes = np.random.default_rng(seed).integers(0, 256, (height, 4, width), dtype=np.uint8)
    blocks = np.empty((height, 4 * width, 2), dtype=np.uint8)
    blocks[..., 0] = 1
    blocks[..., 1] = planes.reshape(height, -1)
    head = np.tile(np.array((2, 2, width >> 8, width & 0xFF), dtype=np.uint8), (height, 1))
    payload = np.concatenate((head, blocks.reshape(height, -1)), axis=1)
    return HEADER + f"-Y {height} +X {width}\n".encode() + payload.tobytes(), planes


def test_one_pixel_literal_blocks_decode_in_bounded_memory():
    # 2**21 blocks: 35.2 MiB tracemalloc peak (numpy 2.4), bound at +15%
    data, planes = one_pixel_literals(512, 1024, 12)
    tracemalloc.start()
    try:
        got = read_rgbe(data).data
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    # the encoded quadruples, decoded independently as in the decode-table test
    quads = planes.transpose(0, 2, 1).astype(np.int64)
    want = np.ldexp(quads[..., :3].astype(np.float64), quads[..., 3:] - 136)
    want[quads[..., 3] == 0] = 0.0
    assert np.array_equal(got, want.astype(np.float32))
    assert peak <= 40.5, peak


def test_bench_panorama_read_memory_bound(bench_panorama):
    # 8.9 MiB tracemalloc peak (numpy 2.4): the 6 MiB float32 image, the
    # block offsets and one band's temporaries; bound at +15%
    _, stored = bench_panorama
    tracemalloc.start()
    try:
        read_rgbe(stored)
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert peak <= 10.3, peak


def test_narrow_image_with_many_rows_decodes_alike():
    # width 8, the narrowest RLE width: 8192-row bands of 32 blocks a row
    arr = np.random.default_rng(13).lognormal(0.0, 2.0, (20000, 8, 3)).astype(np.float32)
    arr[::7, 2:7] = 1.5  # runs of 5 in every seventh row
    data = write_rgbe(HdrImage(arr))
    got = read_rgbe(data).data
    assert np.array_equal(got, sequential_read(data).data)
    assert write_rgbe(HdrImage(got)) == data


GOOD_LINE = bytes((2, 2, 0, 16, 144, 9, 144, 8, 144, 7, 144, 130))  # four runs of 16
LITERAL_15 = bytes((15, *range(15)))
BAD_SECOND_LINES = {
    # a block crossing into the next component, with the scanline total right
    "run crosses component": (bytes((2, 2, 0, 16)) + LITERAL_15 + bytes((130, 1)) + LITERAL_15
                              + bytes((144, 1, 144, 2)), "RGBE run overflows scanline"),
    "literal crosses component": (bytes((2, 2, 0, 16)) + LITERAL_15 + bytes((2, 1, 1))
                                  + LITERAL_15 + bytes((144, 1, 144, 2)),
                                  "RGBE literal overflows scanline"),
    "run value missing": (bytes((2, 2, 0, 16)) + LITERAL_15 + bytes((129, 5, 144, 1, 144, 1, 144)),
                          "RGBE run overflows scanline"),
    "literal short": (bytes((2, 2, 0, 16, 144, 1, 144, 1, 144, 1)) + LITERAL_15
                      + bytes((1,)), "RGBE literal overflows scanline"),
    "zero literal": (bytes((2, 2, 0, 16, 144, 1, 0, 1, 144, 1, 144, 1)),
                     "zero-length RGBE literal block"),
    "control byte missing": (bytes((2, 2, 0, 16, 144, 1, 144, 1, 144, 1, 143, 1)),
                             "truncated RLE RGBE scanline"),
}


@pytest.mark.parametrize("name", sorted(BAD_SECOND_LINES))
def test_malformed_scanline_errors_match_sequential_parser(name):
    second, message = BAD_SECOND_LINES[name]
    data = HEADER + b"-Y 2 +X 16\n" + GOOD_LINE + second
    assert outcome(read_rgbe, data) == (fileio.TruncatedDataError, message)
    assert outcome(sequential_read, data) == (fileio.TruncatedDataError, message)


@pytest.mark.parametrize("tail", [b"", b"\x02\x02\x00\x10junk"])
def test_mixed_flat_and_rle_scanlines_decode_alike(tail):
    arr = np.random.default_rng(4).lognormal(0.0, 1.0, (3, 16, 3)).astype(np.float32)
    head, rle = payload_of(write_rgbe(HdrImage(arr)))
    flat = reference_quadruples(arr[1:2]).tobytes()  # a flat scanline in the middle
    first_end = rle.index(bytes((2, 2, 0, 16)), 4)
    second_end = rle.index(bytes((2, 2, 0, 16)), first_end + 4)
    data = head + rle[:first_end] + flat + rle[second_end:] + tail
    assert np.array_equal(read_rgbe(data).data, sequential_read(data).data)


def test_codec_memory_stays_below_sequential_codec(bench_panorama):
    # tracemalloc peaks of the sequential codec on this panorama: 37.2 MiB
    # to read and 50.5 MiB to write (numpy 2.4, float64 intermediates)
    exact, stored = bench_panorama
    img = HdrImage(exact)
    peaks = []
    for call in (lambda: read_rgbe(stored), lambda: write_rgbe(img)):
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1] / 2 ** 20)
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 37.2 and peaks[1] <= 50.5, peaks


# --- differential properties -------------------------------------------------------

WIDTHS = st.sampled_from([7, 8, 9, 16, 31, 127, 128, 129, 200, 257])


@st.composite
def images(draw):
    """Small images with runs: a few levels, each held for a drawn stretch."""
    height, width = draw(st.integers(1, 5)), draw(WIDTHS)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    levels = rng.lognormal(0.0, 3.0, (draw(st.integers(1, 6)), 3))
    levels[0] = 0.0
    hold = draw(st.integers(1, 140))
    idx = np.repeat(rng.integers(0, len(levels), height * width // hold + 1), hold)
    return levels[idx[:height * width]].reshape(height, width, 3).astype(np.float32)


MUTATIONS = st.lists(st.tuples(st.sampled_from(["flip", "zero", "splice", "cut"]),
                               st.floats(0.0, 1.0), st.integers(0, 255)), max_size=3)


def mutate(data, width, edits):
    head, payload = payload_of(data)
    payload = bytearray(payload)
    for kind, where, byte in edits:
        at = int(where * len(payload))
        if kind == "flip" and payload:
            payload[min(at, len(payload) - 1)] ^= byte or 1
        elif kind == "zero" and payload:
            payload[min(at, len(payload) - 1)] = 0
        elif kind == "splice":
            payload[at:at] = bytes((2, 2, width >> 8, width & 0xFF))
        elif kind == "cut":
            del payload[at:]
    return head + bytes(payload)


DIFFERENTIAL = settings(max_examples=150, deadline=None,
                        suppress_health_check=[HealthCheck.too_slow])


@DIFFERENTIAL
@given(images(), MUTATIONS)
def test_decoder_matches_sequential_on_mutated_encodings(arr, edits):
    data = mutate(write_rgbe(HdrImage(arr)), arr.shape[1], edits)
    assert outcome(read_rgbe, data) == outcome(sequential_read, data)


@DIFFERENTIAL
@given(st.integers(1, 4), WIDTHS, st.binary(max_size=1200), st.booleans())
def test_decoder_matches_sequential_on_random_payloads(height, width, payload, headed):
    if headed:
        payload = bytes((2, 2, width >> 8, width & 0xFF)) + payload
    data = HEADER + f"-Y {height} +X {width}\n".encode() + payload
    assert outcome(read_rgbe, data) == outcome(sequential_read, data)


@DIFFERENTIAL
@given(images())
def test_encoder_matches_reference_and_roundtrips(arr):
    data = write_rgbe(HdrImage(arr))
    assert data == reference_write(arr)
    back = read_rgbe(data)
    assert np.array_equal(back.data, sequential_read(data).data)
    top = arr.max(axis=2, keepdims=True)
    err = np.abs(back.data.astype(np.float64) - arr)
    assert np.all(err <= np.where(top > 0, top, 1.0) * 2.0 ** -7)
    assert write_rgbe(back) == data
