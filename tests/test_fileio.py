import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hdrkit.fileio import (
    FileFormat,
    HdrIoError,
    InvalidPixelValueError,
    MalformedHeaderError,
    TruncatedDataError,
    UnsupportedOrientationError,
    UnsupportedPixelFormatError,
    detect_format,
    read_image,
    read_pfm,
    read_ppm,
    read_rgbe,
    write_pfm,
    write_ppm,
    write_rgbe,
)
from hdrkit.image import HdrImage, LdrImage


def random_hdr(shape, seed=0, lo=1e-6, hi=1e4):
    rng = np.random.default_rng(seed)
    return HdrImage(rng.uniform(lo, hi, shape).astype(np.float32))


# --- format detection -------------------------------------------------------

def test_detect_format():
    assert detect_format(b"#?RADIANCE\nrest") is FileFormat.RADIANCE_RGBE
    assert detect_format(b"#?RGBE\nrest") is FileFormat.RADIANCE_RGBE
    assert detect_format(b"PF\n1 1\n-1.0\n" + b"\0" * 12) is FileFormat.PFM
    assert detect_format(b"P6\n1 1\n255\n\0\0\0") is FileFormat.PPM6
    with pytest.raises(MalformedHeaderError):
        detect_format(b"GIF89a")


def test_detect_never_misclassifies_written_files():
    img = random_hdr((4, 12, 3), seed=3)
    ldr = LdrImage(np.arange(4 * 12 * 3, dtype=np.uint64).reshape(4, 12, 3) % 256)
    assert detect_format(write_rgbe(img)) is FileFormat.RADIANCE_RGBE
    assert detect_format(write_pfm(img)) is FileFormat.PFM
    assert detect_format(write_ppm(ldr)) is FileFormat.PPM6


# --- RGBE --------------------------------------------------------------------

def test_rgbe_black_quadruple():
    data = (
        b"#?RADIANCE\nFORMAT=32-bit_rle_rgbe\n\n-Y 1 +X 1\n"
        + bytes((0, 0, 0, 0))
    )
    img = read_rgbe(data)
    assert np.all(img.data == 0.0)


def test_rgbe_unit_white_quadruple():
    data = (
        b"#?RADIANCE\nFORMAT=32-bit_rle_rgbe\n\n-Y 1 +X 1\n"
        + bytes((128, 128, 128, 129))
    )
    img = read_rgbe(data)
    assert np.all(img.data == 1.0)


def test_rgbe_encodes_white_as_reference_quadruple():
    img = HdrImage(np.ones((1, 1, 3), dtype=np.float32))
    payload = write_rgbe(img).split(b"-Y 1 +X 1\n", 1)[1]
    assert payload == bytes((128, 128, 128, 129))


def test_rgbe_zero_encodes_as_zero_quadruple():
    img = HdrImage(np.zeros((1, 1, 3), dtype=np.float32))
    payload = write_rgbe(img).split(b"-Y 1 +X 1\n", 1)[1]
    assert payload == bytes((0, 0, 0, 0))


@pytest.mark.parametrize("shape", [(7, 5, 3), (3, 100, 3), (16, 33000, 3)])
def test_rgbe_roundtrip_error_bound(shape):
    # widths cover flat (<8), RLE, and flat (>32767) encodings
    img = random_hdr(shape, seed=shape[1])
    out = read_rgbe(write_rgbe(img))
    maxc = img.data.max(axis=2, keepdims=True)
    rel = np.abs(out.data.astype(np.float64) - img.data) / maxc
    assert rel.max() <= 2.0 ** -7


def test_rgbe_roundtrip_idempotent():
    img = random_hdr((9, 64, 3), seed=5)
    once = read_rgbe(write_rgbe(img))
    twice = read_rgbe(write_rgbe(once))
    assert np.array_equal(once.data, twice.data)


def test_rgbe_rle_compresses_constant_rows():
    img = HdrImage(np.full((4, 1024, 3), 0.25, dtype=np.float32))
    encoded = write_rgbe(img)
    assert len(encoded) < 4 * 1024  # far below the 16 KiB flat payload


def test_rgbe_sign_and_zero_preserved():
    arr = np.zeros((2, 16, 3), dtype=np.float32)
    arr[0, 3] = (1.0, 0.0, 0.5)
    img = read_rgbe(write_rgbe(HdrImage(arr)))
    assert img.data[0, 3, 1] == 0.0
    assert np.all(img.data[1] == 0.0)


def test_rgbe_header_errors_are_distinct():
    with pytest.raises(MalformedHeaderError):
        read_rgbe(b"#?RADIANCE\nno format line\n\n-Y 1 +X 1\n" + bytes(4))
    with pytest.raises(UnsupportedOrientationError):
        read_rgbe(b"#?RADIANCE\nFORMAT=32-bit_rle_rgbe\n\n+X 2 +Y 2\n" + bytes(16))
    with pytest.raises(TruncatedDataError):
        read_rgbe(b"#?RADIANCE\nFORMAT=32-bit_rle_rgbe\n\n-Y 2 +X 2\n" + bytes(4))
    # refused from the payload size, before 4 TB of scanlines are allocated
    with pytest.raises(TruncatedDataError):
        read_rgbe(b"#?RADIANCE\nFORMAT=32-bit_rle_rgbe\n\n-Y 1000000 +X 1000000\n"
                  + bytes(24))


def test_rgbe_rejects_nonfinite():
    arr = np.ones((1, 1, 3), dtype=np.float32)
    img = HdrImage(arr)
    img.data[0, 0, 0] = np.nan  # bypass constructor validation
    with pytest.raises(ValueError):
        write_rgbe(img)


# --- PFM ---------------------------------------------------------------------

def test_pfm_roundtrip_bit_exact():
    img = HdrImage(np.array([[[0.25, 0.5, 0.75]]], dtype=np.float32))
    out = read_pfm(write_pfm(img))
    assert np.array_equal(out.data, img.data)
    big = random_hdr((17, 31, 3), seed=9)
    assert np.array_equal(read_pfm(write_pfm(big)).data, big.data)


def test_pfm_rows_stored_bottom_up():
    img = HdrImage(np.arange(2 * 2 * 3, dtype=np.float32).reshape(2, 2, 3))
    raw = write_pfm(img)
    payload = np.frombuffer(raw.split(b"-1.0\n", 1)[1], dtype="<f4").reshape(2, 2, 3)
    assert np.array_equal(payload[-1], img.data[0])  # top row written last


def test_pfm_big_endian_honored():
    img = HdrImage(np.array([[[1.0, 2.0, 3.0]]], dtype=np.float32))
    data = b"PF\n1 1\n1.0\n" + img.data.astype(">f4").tobytes()
    assert np.array_equal(read_pfm(data).data, img.data)


def test_pfm_grayscale_rejected():
    data = b"Pf\n1 1\n-1.0\n" + np.float32(1.0).tobytes()
    with pytest.raises(UnsupportedPixelFormatError):
        read_pfm(data)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_pfm_invalid_values_rejected(bad):
    arr = np.ones((2, 2, 3), dtype="<f4")
    arr[1, 0, 2] = bad
    with pytest.raises(InvalidPixelValueError):
        read_pfm(b"PF\n2 2\n-1.0\n" + arr.tobytes())


def test_pfm_truncated():
    with pytest.raises(TruncatedDataError):
        read_pfm(b"PF\n4 4\n-1.0\n" + b"\0" * 10)


@pytest.mark.parametrize("scale", [b".", b"-", b"1e", b"+-1", b"1.2.3"])
def test_pfm_scale_that_is_not_a_number_rejected(scale):
    with pytest.raises(MalformedHeaderError, match="bad PFM scale"):
        read_pfm(b"PF\n2 2\n" + scale + b"\n" + bytes(48))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pfm_bytes_are_the_header_and_flipped_little_endian_rows(dtype):
    rng = np.random.default_rng(11)
    arr = rng.lognormal(0.0, 3.0, (5, 7, 3)).astype(dtype)
    want = b"PF\n7 5\n-1.0\n" + arr[::-1].astype(np.float32).astype("<f4").tobytes()
    assert write_pfm(HdrImage(arr)) == want


@pytest.mark.parametrize("endian", ["<f4", ">f4"])
def test_pfm_read_owns_a_writeable_native_copy(endian):
    # one row: a flipped view of the payload would itself be contiguous
    rows = np.arange(6, dtype=np.float32).reshape(1, 2, 3)
    scale = b"-1.0" if endian == "<f4" else b"1.0"
    data = b"PF\n2 1\n" + scale + b"\n" + rows.astype(endian).tobytes()
    arr = read_pfm(data).data
    assert arr.dtype == np.float32 and arr.dtype.isnative
    assert arr.flags.writeable
    assert np.array_equal(arr, rows)


def test_pfm_round_trip_memory_at_dataset_size():
    # Measured here: 13.5 MiB for a 6 MiB 1024x512 image (the stream, the
    # decoded copy and HdrImage's finiteness check), against 25.5 MiB with
    # sliced payloads and a copy per conversion. The bound leaves 15% over.
    img = random_hdr((512, 1024, 3), seed=12)
    tracemalloc.start()
    try:
        out = read_pfm(write_pfm(img))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(out.data, img.data)
    assert peak < 15.5 * 2 ** 20


# --- PPM ---------------------------------------------------------------------

def test_ppm_roundtrip():
    arr = np.array([[[1, 2, 3], [4, 5, 6]], [[7, 8, 9], [250, 251, 252]]], dtype=np.uint8)
    img = LdrImage(arr)
    out = read_ppm(write_ppm(img))
    assert np.array_equal(out.data, arr)


def test_ppm_comments_skipped():
    data = b"P6\n# a comment\n2 1\n# another\n255\n" + bytes(6)
    img = read_ppm(data)
    assert img.width == 2 and img.height == 1


def test_ppm_maxval_must_be_255():
    data = b"P6\n1 1\n65535\n" + bytes(6)
    with pytest.raises(UnsupportedPixelFormatError):
        read_ppm(data)


def test_pfm_scale_of_zero_rejected():
    with pytest.raises(MalformedHeaderError, match="PFM scale must be nonzero"):
        read_pfm(b"PF\n1 1\n0.0\n" + bytes(12))


def test_ppm_without_its_magic_rejected():
    with pytest.raises(MalformedHeaderError, match="missing 'P6' magic"):
        read_ppm(b"P5\n1 1\n255\n" + bytes(1))


@pytest.mark.parametrize("dtype", [np.uint16, np.float32])
def test_ppm_writer_refuses_data_that_is_not_uint8(dtype):
    with pytest.raises(ValueError, match="PPM writer requires uint8 data"):
        write_ppm(np.zeros((1, 1, 3), dtype=dtype))


@pytest.mark.parametrize("data", [
    b"PF\n0 0\n-1.0\n",
    b"PF\n0 2\n-1.0\n" + bytes(24),
    b"P6\n0 0\n255\n ",
    b"P6\n-1 1\n255\n" + bytes(6),
])
def test_empty_or_negative_dimensions_rejected(data):
    reader = read_pfm if data.startswith(b"PF") else read_ppm
    with pytest.raises(MalformedHeaderError):
        reader(data)


# --- properties --------------------------------------------------------------

F32_MAX = float(np.finfo(np.float32).max)
F32_EDGES = st.sampled_from([0.0, -0.0, 2.0 ** -149, 2.0 ** -126 - 2.0 ** -149,
                             2.0 ** -126, F32_MAX])
SHAPES = st.tuples(st.integers(1, 5), st.integers(1, 5), st.just(3))


@settings(max_examples=100, deadline=None)
@given(arrays(np.float32, SHAPES,
              elements=st.floats(0.0, F32_MAX, width=32) | F32_EDGES))
def test_pfm_round_trip_is_bit_exact_for_every_finite_non_negative_value(arr):
    back = read_pfm(write_pfm(HdrImage(arr))).data
    assert back.dtype == np.float32
    assert np.array_equal(back.view(np.uint32), arr.view(np.uint32))


@settings(max_examples=100, deadline=None)
@given(arrays(np.uint8, SHAPES))
def test_ppm_round_trip_is_exact(arr):
    back = read_ppm(write_ppm(LdrImage(arr))).data
    assert back.dtype == np.uint8 and np.array_equal(back, arr)


VALID_FILES = [
    bytes(write_pfm(random_hdr((2, 3, 3), seed=4))),
    write_ppm(LdrImage(np.arange(18, dtype=np.uint8).reshape(2, 3, 3))),
    b"P6\n# a comment\n3 2\n255\n" + bytes(range(18)),
]
TOKENS = [b"nan", b"1e400", b"#", b"9" * 30, b"-1", b"0", b"inf", b" ", b"\n", b"\0"]
HEADER_EDITS = st.lists(st.tuples(st.sampled_from(["cut", "set", "insert"]),
                                  st.integers(0, 24), st.integers(0, 255),
                                  st.sampled_from(TOKENS)), min_size=1, max_size=3)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(VALID_FILES), HEADER_EDITS)
def test_mutated_headers_decode_or_raise_hdr_io_error(data, edits):
    data = bytearray(data)
    for kind, at, byte, token in edits:
        at = min(at, len(data))
        if kind == "cut":
            del data[at:]
        elif kind == "set" and at < len(data):
            data[at] = byte
        elif kind == "insert":
            data[at:at] = token
    try:
        img = read_image(bytes(data))
    except HdrIoError:
        return
    assert isinstance(img, (HdrImage, LdrImage))
