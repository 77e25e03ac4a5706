import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from panokit import FormatError, read_pst, write_pst


def test_round_trip_f32(tmp_path):
    arr = np.arange(24, dtype=np.float32).reshape(2, 3, 4) / 7
    path = tmp_path / "a.pst"
    write_pst(path, arr)
    back = read_pst(path)
    assert back.dtype == np.float32
    assert back.shape == (2, 3, 4)
    assert np.array_equal(back, arr)
    assert back.flags.owndata and back.flags.writeable and back.flags.aligned


def test_round_trip_u16_u32(tmp_path):
    for dtype in (np.uint16, np.uint32):
        arr = np.array([[1, 2], [3, np.iinfo(dtype).max]], dtype)
        path = tmp_path / "b.pst"
        write_pst(path, arr)
        back = read_pst(path)
        assert back.dtype == dtype
        assert np.array_equal(back, arr)


def test_header_layout(tmp_path):
    arr = np.zeros((2, 3), np.uint16)
    path = tmp_path / "c.pst"
    write_pst(path, arr)
    raw = path.read_bytes()
    assert raw[:4] == b"PST1"
    assert raw[4] == 1  # dtype code for u16
    assert raw[5] == 2  # ndim
    assert struct.unpack("<II", raw[6:14]) == (2, 3)
    assert len(raw) == 14 + 2 * 3 * 2


def test_zero_dim_scalar(tmp_path):
    arr = np.float32(3.5).reshape(())
    path = tmp_path / "s.pst"
    write_pst(path, arr)
    back = read_pst(path)
    assert back.shape == () and back == np.float32(3.5)
    write_pst(path, np.zeros((0, 3), np.uint32))
    empty = read_pst(path)
    assert empty.shape == (0, 3) and empty.dtype == np.uint32


_PAYLOADS = {
    "f32": np.arange(12, dtype=np.float32).reshape(3, 4) / 7,
    "u16": np.arange(12, dtype=np.uint16).reshape(4, 3) * 5000,
    "u32": np.arange(12, dtype=np.uint32).reshape(2, 6) * 300_000_000,
    "f32_transposed": (np.arange(12, dtype=np.float32).reshape(3, 4) / 7).T,
    "u16_strided": np.arange(40, dtype=np.uint16).reshape(4, 10)[:, ::3],
    "f32_big_endian": np.arange(6, dtype=">f4").reshape(2, 3) / 3,
    "u32_big_endian_reversed": np.arange(5, dtype=">u4")[::-1] * 70_000,
    "f32_zero_dim": np.float32(-2.25).reshape(()),
    "u32_empty": np.zeros((0, 3), np.uint32),
    "f32_empty": np.zeros((2, 0, 4), np.float32),
}


@pytest.mark.parametrize("name", list(_PAYLOADS))
def test_bytes_on_disk_are_header_plus_payload(tmp_path, name):
    arr = _PAYLOADS[name]
    code = {"f": 0, "u": 1 if arr.dtype.itemsize == 2 else 2}[arr.dtype.kind]
    header = b"PST1" + struct.pack("<BB", code, arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    little = arr.astype(arr.dtype.newbyteorder("<"))
    path = tmp_path / "p.pst"
    write_pst(path, arr)
    assert path.read_bytes() == header + little.tobytes()
    assert np.array_equal(read_pst(path), arr)


def test_unsupported_dtype_rejected(tmp_path):
    with pytest.raises(FormatError, match="float64"):
        write_pst(tmp_path / "d.pst", np.zeros(3, np.float64))


def _read_error(path):
    with pytest.raises(FormatError) as err:
        read_pst(path)
    return str(err.value)


def test_bad_magic_names_file(tmp_path):
    path = tmp_path / "bad_magic.pst"
    path.write_bytes(b"NOPE" + bytes(10))
    assert _read_error(path) == f"{path}: bad magic b'NOPE', expected b'PST1'"


def test_truncated_header(tmp_path):
    path = tmp_path / "trunc.pst"
    path.write_bytes(b"PST1\x00")
    assert _read_error(path) == f"{path}: truncated header (5 bytes)"
    path.write_bytes(b"PST1" + bytes([0, 2]) + struct.pack("<I", 3))
    assert _read_error(path) == f"{path}: truncated dim list"


def test_unknown_dtype_code(tmp_path):
    path = tmp_path / "code.pst"
    path.write_bytes(b"PST1" + bytes([9, 1]) + struct.pack("<I", 1) + bytes(4))
    assert _read_error(path) == f"{path}: unknown dtype code 9"


def test_payload_length_mismatch(tmp_path):
    path = tmp_path / "short.pst"
    path.write_bytes(b"PST1" + bytes([0, 1]) + struct.pack("<I", 4) + bytes(8))
    assert _read_error(path) == f"{path}: payload is 8 bytes, expected 16 for shape (4,)"


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "long.pst"
    write_pst(path, np.zeros(2, np.float32))
    path.write_bytes(path.read_bytes() + b"x")
    assert _read_error(path) == f"{path}: payload is 9 bytes, expected 8 for shape (2,)"


def test_missing_file_names_path(tmp_path):
    with pytest.raises(FormatError, match="nonexistent.pst"):
        read_pst(tmp_path / "nonexistent.pst")


@settings(max_examples=50, deadline=None)
@given(
    arrays(
        np.float32,
        st.lists(st.integers(1, 5), min_size=1, max_size=3).map(tuple),
        elements=st.floats(-1e6, 1e6, width=32),
    )
)
def test_round_trip_bit_identical(tmp_path_factory, arr):
    path = tmp_path_factory.mktemp("pst") / "h.pst"
    write_pst(path, arr)
    back = read_pst(path)
    assert back.shape == arr.shape
    assert np.array_equal(back.view(np.uint32), arr.view(np.uint32))
