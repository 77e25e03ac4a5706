"""PST1 binary tensor file format.

Layout, all little-endian: magic bytes "PST1"; u8 dtype code (0 = float32,
1 = uint16, 2 = uint32); u8 ndim; ndim x u32 dims; row-major payload.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path
from typing import Union

import numpy as np

from .types import FormatError

MAGIC = b"PST1"

_CODE_TO_DTYPE = {
    0: np.dtype("<f4"),
    1: np.dtype("<u2"),
    2: np.dtype("<u4"),
}
_KIND_TO_CODE = {(d.kind, d.itemsize): code for code, d in _CODE_TO_DTYPE.items()}


def write_pst(path: Union[str, Path], array: np.ndarray) -> None:
    """Write an array as PST1; dtype must be float32, uint16 or uint32."""
    arr = np.asarray(array)
    code = _KIND_TO_CODE.get((arr.dtype.kind, arr.dtype.itemsize))
    if code is None:
        raise FormatError(
            f"{path}: dtype {arr.dtype} not storable in PST1 "
            "(use float32, uint16 or uint32)"
        )
    if arr.ndim > 255:
        raise FormatError(f"{path}: rank {arr.ndim} exceeds the u8 ndim field")
    header = MAGIC + struct.pack("<BB", code, arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    payload = np.ascontiguousarray(arr, dtype=_CODE_TO_DTYPE[code])
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)  # the array's own buffer, not a bytes copy


def read_pst(path: Union[str, Path], dtype: np.typing.DTypeLike = None) -> np.ndarray:
    """Read a PST1 file; every diagnostic names the offending file.

    With dtype given, a file stored as another dtype is refused from its header.
    The exact length is checked against the file size before the payload is
    read, and the payload is read straight into the returned array.
    """
    try:
        fh = open(path, "rb")
    except FileNotFoundError as exc:
        raise FormatError(f"{path}: no such file") from exc
    with fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(6)
        if len(head) < 6:
            raise FormatError(f"{path}: truncated header ({len(head)} bytes)")
        if head[:4] != MAGIC:
            raise FormatError(f"{path}: bad magic {head[:4]!r}, expected {MAGIC!r}")
        code, ndim = struct.unpack_from("<BB", head, 4)
        stored = _CODE_TO_DTYPE.get(code)
        if stored is None:
            raise FormatError(f"{path}: unknown dtype code {code}")
        if dtype is not None and stored != dtype:
            raise FormatError(f"{path}: stored as {stored}, expected {np.dtype(dtype)}")
        dims_end = 6 + 4 * ndim
        if size < dims_end:
            raise FormatError(f"{path}: truncated dim list")
        dims = struct.unpack(f"<{ndim}I", fh.read(4 * ndim))
        nbytes = math.prod(dims) * stored.itemsize
        if size != dims_end + nbytes:
            raise FormatError(
                f"{path}: payload is {size - dims_end} bytes, "
                f"expected {nbytes} for shape {dims}"
            )
        out = np.empty(dims, stored)
        if fh.readinto(out) != nbytes:
            raise FormatError(f"{path}: file changed while it was read")
    return out
