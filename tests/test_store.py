import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlab import parallel, store
from qlab.errors import CheckpointFormatError
from qlab.metrics import MetricsStore
from qlab.store import (
    FNV_OFFSET,
    FNV_PRIME,
    decode_tensor,
    dtype_nbytes,
    encode_tensor,
    fnv1a64,
    packed_row_bytes,
    read_tensor_file,
    write_tensor_file,
)


CHUNK = store._CHUNK
MASK64 = (1 << 64) - 1


def fnv1a64_oracle(data: bytes, h: int = FNV_OFFSET) -> int:
    """The FNV-1a recurrence one byte at a time, as specified."""
    for b in data:
        h = ((h ^ b) * FNV_PRIME) & MASK64
    return h


def _random_bytes(n: int, seed: int) -> bytes:
    return np.random.Generator(np.random.PCG64(seed)).integers(0, 256, n, np.uint8).tobytes()


def test_fnv1a64_reference_vectors():
    # published FNV-1a 64-bit test vectors
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"foobar") == 0x85944171F73967E8


def test_fnv_chaining_matches_concatenation():
    a, b = b"hello ", b"world"
    assert fnv1a64(b, fnv1a64(a)) == fnv1a64(a + b)


@given(st.binary(max_size=600), st.integers(0, MASK64))
@settings(max_examples=200, deadline=None)
def test_fnv1a64_equals_oracle(data, h):
    assert fnv1a64(data, h) == fnv1a64_oracle(data, h)


@pytest.mark.parametrize("n", [0, 1, 2, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17])
def test_fnv1a64_equals_oracle_across_chunks(n):
    data = _random_bytes(n, n)
    h = int(np.random.Generator(np.random.PCG64(n)).integers(0, MASK64, dtype=np.uint64))
    assert fnv1a64(data) == fnv1a64_oracle(data)
    assert fnv1a64(data, h) == fnv1a64_oracle(data, h)


def test_fnv1a64_every_low_byte_of_the_start_state():
    data = _random_bytes(200, 7)
    high = 0x9E3779B97F4A7C15 & ~0xFF
    for low in range(256):
        assert fnv1a64(data, high | low) == fnv1a64_oracle(data, high | low), low


@pytest.mark.parametrize("cut", [1000, CHUNK])
def test_fnv1a64_chaining_inside_and_at_chunk_boundary(cut):
    data = _random_bytes(2 * CHUNK + 5, cut)
    a, b = data[:cut], data[cut:]
    assert fnv1a64(b, fnv1a64(a)) == fnv1a64(data) == fnv1a64_oracle(data)


def test_fnv1a64_on_thread_pool_equals_serial(monkeypatch):
    monkeypatch.setenv("QLAB_THREADS", "2")
    inputs = [_random_bytes(n, n) for n in (0, 5, CHUNK + 3, 2 * CHUNK, 100, 3 * CHUNK + 17)]
    pooled = parallel.results(parallel.run(fnv1a64, inputs))
    assert pooled == [fnv1a64(x) for x in inputs] == [fnv1a64_oracle(x) for x in inputs]


def test_dtype_sizes():
    assert dtype_nbytes("f32", 2, 3) == 24
    assert dtype_nbytes("f64", 1, 2) == 16
    assert dtype_nbytes("i32", 4, 1) == 16
    assert dtype_nbytes("u3p", 2, 4) == 2 * packed_row_bytes(4, 3)
    assert packed_row_bytes(4, 3) == 2  # 12 bits padded to byte boundary
    with pytest.raises(CheckpointFormatError):
        dtype_nbytes("q7", 1, 1)


def test_tensor_file_roundtrip(tmp_path):
    rng = np.random.Generator(np.random.PCG64(0))
    a = rng.standard_normal((3, 4)).astype(np.float32)
    b = rng.integers(-5, 5, (2, 2)).astype(np.int32)
    path = str(tmp_path / "t.qlab")
    write_tensor_file(
        path,
        [
            ("alpha", "f32", 3, 4, encode_tensor(a, "f32")),
            ("beta", "i32", 2, 2, encode_tensor(b, "i32")),
        ],
    )
    raw = read_tensor_file(path)
    assert np.array_equal(decode_tensor(raw["alpha"][3], "f32", 3, 4), a)
    assert np.array_equal(decode_tensor(raw["beta"][3], "i32", 2, 2), b)


def test_file_layout_header_and_footer(tmp_path):
    path = str(tmp_path / "t.qlab")
    payload = encode_tensor(np.ones((1, 2), dtype=np.float32), "f32")
    write_tensor_file(path, [("w", "f32", 1, 2, payload)])
    blob = open(path, "rb").read()
    assert blob.startswith(b"QLAB1\nw f32 1 2 0\n\n")
    footer = blob.rsplit(b"\n", 2)[-2]
    assert footer == f"{fnv1a64(payload):016x}".encode()


def test_checksum_detects_corruption(tmp_path):
    path = str(tmp_path / "t.qlab")
    arr = np.arange(6, dtype=np.float32).reshape(2, 3)
    write_tensor_file(path, [("w", "f32", 2, 3, encode_tensor(arr, "f32"))])
    blob = bytearray(open(path, "rb").read())
    blob[-20] ^= 0xFF  # flip a payload byte
    open(path, "wb").write(bytes(blob))
    with pytest.raises(CheckpointFormatError):
        read_tensor_file(path)


def test_checksum_detects_flip_in_second_chunk(tmp_path):
    path = str(tmp_path / "t.qlab")
    arr = np.arange(2 * CHUNK // 4, dtype=np.float32).reshape(2, -1)
    write_tensor_file(path, [("w", "f32", *arr.shape, encode_tensor(arr, "f32"))])
    blob = bytearray(open(path, "rb").read())
    start = blob.index(b"\n\n") + 2
    blob[start + CHUNK + 1234] ^= 0x01
    open(path, "wb").write(bytes(blob))
    with pytest.raises(CheckpointFormatError, match="checksum mismatch"):
        read_tensor_file(path)


def _corrupt(blob: bytes, how: str) -> bytes:
    """A valid one-tensor file spoilt in one of the ways a damaged file shows."""
    if how == "footer-not-utf8":
        return blob[:-3] + b"\xff" + blob[-2:]
    if how == "header-not-utf8":
        return blob.replace(b"w f32", b"\xff f32", 1)
    if how == "non-integer-field":
        return blob.replace(b"w f32 1 2 0", b"w f32 1 two 0", 1)
    if how == "unknown-dtype":
        return blob.replace(b"w f32 1 2 0", b"w uxp 1 2 0", 1)
    assert how == "negative-field"
    return blob.replace(b"w f32 1 2 0", b"w f32 -1 -2 0", 1)


@pytest.mark.parametrize(
    "how",
    ["footer-not-utf8", "header-not-utf8", "non-integer-field", "negative-field", "unknown-dtype"],
)
def test_malformed_file_is_format_error_naming_path(tmp_path, how):
    path = str(tmp_path / "t.qlab")
    write_tensor_file(path, [("w", "f32", 1, 2, encode_tensor(np.ones((1, 2), np.float32), "f32"))])
    with open(path, "rb") as f:
        blob = f.read()
    with open(path, "wb") as f:
        f.write(_corrupt(blob, how))
    with pytest.raises(CheckpointFormatError, match="t.qlab"):
        read_tensor_file(path)


def test_refuses_overwrite(tmp_path):
    path = str(tmp_path / "t.qlab")
    entry = [("w", "f32", 1, 1, encode_tensor(np.zeros((1, 1), np.float32), "f32"))]
    write_tensor_file(path, entry)
    with pytest.raises(CheckpointFormatError):
        write_tensor_file(path, entry)
    write_tensor_file(path, entry, overwrite=True)


def test_bad_magic_rejected(tmp_path):
    path = str(tmp_path / "t.qlab")
    path_obj = tmp_path / "t.qlab"
    path_obj.write_bytes(b"NOPE1\nw f32 1 1 0\n\n" + b"\x00" * 4 + b"\ndeadbeef\n")
    with pytest.raises(CheckpointFormatError):
        read_tensor_file(path)


def test_save_load_save_is_byte_identical(tmp_path):
    rng = np.random.Generator(np.random.PCG64(1))
    arr = rng.standard_normal((5, 7)).astype(np.float32)
    p1, p2 = str(tmp_path / "a.qlab"), str(tmp_path / "b.qlab")
    write_tensor_file(p1, [("w", "f32", 5, 7, encode_tensor(arr, "f32"))])
    raw = read_tensor_file(p1)
    write_tensor_file(p2, [("w", "f32", 5, 7, raw["w"][3])])
    assert open(p1, "rb").read() == open(p2, "rb").read()


def _one_tensor():
    return [("w", "f32", 1, 1, encode_tensor(np.zeros((1, 1), np.float32), "f32"))]


def _saved_table(path):
    table = MetricsStore(path, "k,v", ("k",))
    table.upsert({"k": "1", "v": "2"})
    table.save()


def test_failed_write_leaves_no_temp_file(tmp_path, monkeypatch):
    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(store.os, "replace", fail)
    with pytest.raises(OSError):
        write_tensor_file(str(tmp_path / "t.qlab"), _one_tensor())
    with pytest.raises(OSError):
        _saved_table(str(tmp_path / "t.csv"))
    assert os.listdir(tmp_path) == []


def test_written_files_follow_umask(tmp_path):
    old = os.umask(0o022)
    try:
        write_tensor_file(str(tmp_path / "t.qlab"), _one_tensor())
        _saved_table(str(tmp_path / "t.csv"))
    finally:
        os.umask(old)
    for name in ("t.qlab", "t.csv"):
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == 0o644
