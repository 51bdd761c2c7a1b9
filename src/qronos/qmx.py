"""Flat matrix files: one JSON header line, then raw little-endian IEEE-754.

The header carries exactly rows, cols, dtype ("f64" or "f32") and order
("row-major").  Payload length must match the header; round-trips are
bit-exact because values are never re-encoded through text.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import QmxFormatError, ShapeError

_DTYPES = {"f64": np.dtype("<f8"), "f32": np.dtype("<f4")}
_NAMES = {np.dtype(np.float64): "f64", np.dtype(np.float32): "f32"}


def write_qmx(path, arr: np.ndarray, dtype: str | None = None) -> None:
    """Write a 2-D array; dtype defaults to the array's own precision."""
    arr = np.asarray(arr)
    if arr.ndim != 2:
        raise ShapeError(f"qmx stores 2-D matrices, got shape {arr.shape}")
    if dtype is None:
        dtype = _NAMES.get(arr.dtype, "f64")
    if dtype not in _DTYPES:
        raise ValueError(f"unsupported dtype {dtype!r} (use 'f64' or 'f32')")
    header = {
        "rows": int(arr.shape[0]),
        "cols": int(arr.shape[1]),
        "dtype": dtype,
        "order": "row-major",
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("ascii"))
        fh.write(b"\n")
        fh.write(np.ascontiguousarray(arr, dtype=_DTYPES[dtype]).tobytes())


def read_qmx(path) -> np.ndarray:
    """Read a matrix back; the dtype is whatever the file declares.

    The payload is read straight into the returned array.
    """
    with open(path, "rb") as fh:
        line = fh.readline()
        rows, cols, name = _parse_header(path, line)
        dt = _DTYPES[name]
        payload = os.fstat(fh.fileno()).st_size - len(line)
        expect = rows * cols * dt.itemsize
        if payload != expect:
            raise QmxFormatError(
                f"{path}: payload is {payload} bytes, header {rows}x{cols} {name} needs {expect}"
            )
        data = np.empty((rows, cols), dtype=dt)
        if expect and fh.readinto(memoryview(data).cast("B")) != expect:
            raise QmxFormatError(f"{path}: payload shorter than {expect} bytes")
    return data if dt.isnative else data.astype(dt.newbyteorder("="))


def _parse_header(path, line: bytes) -> tuple[int, int, str]:
    """(rows, cols, dtype name) from the header line, newline included."""
    if not line.endswith(b"\n"):
        raise QmxFormatError(f"{path}: no header line")
    try:
        header = json.loads(line[:-1].decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise QmxFormatError(f"{path}: malformed header ({exc})") from exc
    if not isinstance(header, dict) or set(header) != {"rows", "cols", "dtype", "order"}:
        raise QmxFormatError(f"{path}: header must carry exactly rows/cols/dtype/order")
    if header["order"] != "row-major":
        raise QmxFormatError(f"{path}: unsupported order {header['order']!r}")
    if header["dtype"] not in _DTYPES:
        raise QmxFormatError(f"{path}: unsupported dtype {header['dtype']!r}")
    rows, cols = header["rows"], header["cols"]
    # not isinstance: JSON true and false read as bools, which are ints
    if any(type(d) is not int or d < 0 for d in (rows, cols)):
        raise QmxFormatError(f"{path}: bad dimensions {rows!r} x {cols!r}")
    return rows, cols, header["dtype"]
