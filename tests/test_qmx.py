import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qronos import QmxFormatError, read_qmx, write_qmx


def test_round_trip_f64_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((7, 5))
    path = tmp_path / "a.qmx"
    write_qmx(path, arr)
    back = read_qmx(path)
    assert back.dtype == np.float64
    assert back.tobytes() == arr.tobytes()


def test_round_trip_f32_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    arr = rng.standard_normal((4, 9)).astype(np.float32)
    path = tmp_path / "a.qmx"
    write_qmx(path, arr)
    back = read_qmx(path)
    assert back.dtype == np.float32
    assert back.tobytes() == arr.tobytes()


def test_special_values_survive(tmp_path):
    arr = np.array([[0.0, -0.0], [np.inf, -np.inf], [np.nan, 1e-308]])
    path = tmp_path / "s.qmx"
    write_qmx(path, arr)
    assert read_qmx(path).tobytes() == arr.tobytes()


def test_empty_matrix(tmp_path):
    arr = np.zeros((0, 3))
    path = tmp_path / "e.qmx"
    write_qmx(path, arr)
    back = read_qmx(path)
    assert back.shape == (0, 3)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.sampled_from(["f64", "f32"]),
    st.integers(0, 10_000),
)
def test_round_trip_property(rows, cols, dtype, seed):
    import tempfile, os

    arr = np.random.default_rng(seed).standard_normal((rows, cols))
    if dtype == "f32":
        arr = arr.astype(np.float32)
    fd, path = tempfile.mkstemp(suffix=".qmx")
    os.close(fd)
    try:
        write_qmx(path, arr)
        back = read_qmx(path)
        assert back.shape == arr.shape
        assert back.tobytes() == arr.tobytes()
    finally:
        os.unlink(path)


def test_header_is_one_json_line(tmp_path):
    path = tmp_path / "h.qmx"
    write_qmx(path, np.zeros((2, 2)))
    raw = path.read_bytes()
    head, _, _ = raw.partition(b"\n")
    parsed = json.loads(head)
    assert set(parsed) == {"rows", "cols", "dtype", "order"}
    assert parsed["order"] == "row-major"
    assert parsed["rows"] == 2 and parsed["cols"] == 2


def test_rejects_extra_header_key(tmp_path):
    path = tmp_path / "x.qmx"
    header = json.dumps(
        {"rows": 1, "cols": 1, "dtype": "f64", "order": "row-major", "zzz": 1}
    ).encode()
    path.write_bytes(header + b"\n" + np.zeros(1).tobytes())
    with pytest.raises(QmxFormatError):
        read_qmx(path)


def test_rejects_missing_key_and_bad_order(tmp_path):
    path = tmp_path / "x.qmx"
    path.write_bytes(json.dumps({"rows": 1, "cols": 1, "dtype": "f64"}).encode() + b"\n" + np.zeros(1).tobytes())
    with pytest.raises(QmxFormatError):
        read_qmx(path)
    header = json.dumps({"rows": 1, "cols": 1, "dtype": "f64", "order": "col-major"}).encode()
    path.write_bytes(header + b"\n" + np.zeros(1).tobytes())
    with pytest.raises(QmxFormatError):
        read_qmx(path)


@pytest.mark.parametrize("rows, cols", [(True, True), (1, False), (-1, 1), (1.0, 1)])
def test_rejects_dimensions_that_are_not_counts(tmp_path, rows, cols):
    path = tmp_path / "x.qmx"
    header = json.dumps({"rows": rows, "cols": cols, "dtype": "f64", "order": "row-major"}).encode()
    path.write_bytes(header + b"\n" + np.zeros(1).tobytes())
    with pytest.raises(QmxFormatError, match="bad dimensions"):
        read_qmx(path)


def test_rejects_truncated_payload(tmp_path):
    path = tmp_path / "t.qmx"
    write_qmx(path, np.zeros((2, 2)))
    raw = path.read_bytes()
    path.write_bytes(raw[:-4])
    with pytest.raises(QmxFormatError):
        read_qmx(path)


def test_rejects_headerless_file(tmp_path):
    path = tmp_path / "n.qmx"
    path.write_bytes(b"\x00" * 64)
    with pytest.raises(QmxFormatError):
        read_qmx(path)


def test_rejects_non_matrix_input(tmp_path):
    with pytest.raises(Exception):
        write_qmx(tmp_path / "b.qmx", np.zeros(5))


def test_explicit_dtype_override(tmp_path):
    arr = np.random.default_rng(2).standard_normal((3, 3))
    path = tmp_path / "d.qmx"
    write_qmx(path, arr, dtype="f32")
    back = read_qmx(path)
    assert back.dtype == np.float32
    assert back.tobytes() == arr.astype(np.float32).tobytes()


@pytest.mark.parametrize("route", ["write", "read"])
def test_unsupported_dtype_is_refused(tmp_path, route):
    path = tmp_path / "a.qmx"
    if route == "write":
        with pytest.raises(ValueError, match="unsupported dtype 'f16'"):
            write_qmx(path, np.zeros((1, 1)), dtype="f16")
    else:
        header = json.dumps({"rows": 1, "cols": 1, "dtype": "f16", "order": "row-major"}).encode()
        path.write_bytes(header + b"\n" + np.zeros(1, dtype=np.float16).tobytes())
        with pytest.raises(QmxFormatError, match="unsupported dtype 'f16'"):
            read_qmx(path)
