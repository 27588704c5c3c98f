import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlab import parallel, store
from qlab.errors import CheckpointFormatError, StoreError
from qlab.metrics import MetricsStore
from qlab.store import (
    FNV_OFFSET,
    FNV_PRIME,
    Packed,
    dtype_nbytes,
    fnv1a64,
    load_arrays,
    save_arrays,
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
    pooled = [f.result() for f in parallel.stream(fnv1a64, inputs)]
    assert pooled == [fnv1a64(x) for x in inputs] == [fnv1a64_oracle(x) for x in inputs]


def test_dtype_sizes():
    assert dtype_nbytes("f32", 2, 3) == 24
    assert dtype_nbytes("f64", 1, 2) == 16
    assert dtype_nbytes("i32", 4, 1) == 16
    assert dtype_nbytes("u3p", 2, 4) == 4  # 12 bits a row, padded to 2 bytes
    with pytest.raises(CheckpointFormatError):
        dtype_nbytes("q7", 1, 1)


def test_tensor_file_roundtrip(tmp_path):
    rng = np.random.Generator(np.random.PCG64(0))
    a = rng.standard_normal((3, 4)).astype(np.float32)
    b = rng.integers(-5, 5, (2, 2)).astype(np.int32)
    path = str(tmp_path / "t.qlab")
    save_arrays(path, {"alpha": a, "beta": b})
    back = load_arrays(path)
    assert list(back) == ["alpha", "beta"]
    for want, got in ((a, back["alpha"]), (b, back["beta"])):
        assert got.dtype == want.dtype and got.flags.writeable
        assert np.array_equal(got, want)


def test_file_layout_header_and_footer(tmp_path):
    path = str(tmp_path / "t.qlab")
    save_arrays(path, {"w": np.ones((1, 2), dtype=np.float32)})
    blob = open(path, "rb").read()
    assert blob.startswith(b"QLAB1\nw f32 1 2 0\n\n")
    payload = np.ones((1, 2), dtype="<f4").tobytes()
    footer = blob.rsplit(b"\n", 2)[-2]
    assert footer == f"{fnv1a64(payload):016x}".encode()


def test_checksum_detects_corruption(tmp_path):
    path = str(tmp_path / "t.qlab")
    save_arrays(path, {"w": np.arange(6, dtype=np.float32).reshape(2, 3)})
    blob = bytearray(open(path, "rb").read())
    blob[-20] ^= 0xFF  # flip a payload byte
    open(path, "wb").write(bytes(blob))
    with pytest.raises(CheckpointFormatError):
        load_arrays(path)


def test_checksum_detects_flip_in_second_chunk(tmp_path):
    path = str(tmp_path / "t.qlab")
    save_arrays(path, {"w": np.arange(2 * CHUNK // 4, dtype=np.float32).reshape(2, -1)})
    blob = bytearray(open(path, "rb").read())
    start = blob.index(b"\n\n") + 2
    blob[start + CHUNK + 1234] ^= 0x01
    open(path, "wb").write(bytes(blob))
    with pytest.raises(CheckpointFormatError, match="checksum mismatch"):
        load_arrays(path)


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
    save_arrays(path, {"w": np.ones((1, 2), np.float32)})
    with open(path, "rb") as f:
        blob = f.read()
    with open(path, "wb") as f:
        f.write(_corrupt(blob, how))
    with pytest.raises(CheckpointFormatError, match="t.qlab"):
        load_arrays(path)


def _one_tensor():
    return {"w": np.zeros((1, 1), np.float32)}


def test_refuses_overwrite(tmp_path):
    path = str(tmp_path / "t.qlab")
    save_arrays(path, _one_tensor())
    with pytest.raises(CheckpointFormatError):
        save_arrays(path, _one_tensor())
    save_arrays(path, {"w": np.ones((1, 1), np.float32)}, overwrite=True)
    assert load_arrays(path)["w"][0, 0] == 1.0


def test_bad_magic_rejected(tmp_path):
    path = str(tmp_path / "t.qlab")
    path_obj = tmp_path / "t.qlab"
    path_obj.write_bytes(b"NOPE1\nw f32 1 1 0\n\n" + b"\x00" * 4 + b"\ndeadbeef\n")
    with pytest.raises(CheckpointFormatError):
        load_arrays(path)


def test_save_load_save_is_byte_identical(tmp_path):
    rng = np.random.Generator(np.random.PCG64(1))
    arr = rng.standard_normal((5, 7)).astype(np.float32)
    p1, p2 = str(tmp_path / "a.qlab"), str(tmp_path / "b.qlab")
    save_arrays(p1, {"w": arr})
    save_arrays(p2, load_arrays(p1))
    assert open(p1, "rb").read() == open(p2, "rb").read()


@pytest.mark.parametrize("token", ["f32", "f64", "i32", "i64"])
def test_plain_dtype_save_load_save_is_byte_identical(tmp_path, token):
    rng = np.random.Generator(np.random.PCG64(2))
    dtype = {"f32": np.float32, "f64": np.float64, "i32": np.int32, "i64": np.int64}[token]
    arrays = {"a": (rng.standard_normal((3, 5)) * 1e3).astype(dtype),
              "b": np.zeros((0, 4), dtype), "c": rng.standard_normal((4, 3)).T.astype(dtype)}
    p1, p2 = str(tmp_path / "a.qlab"), str(tmp_path / "b.qlab")
    save_arrays(p1, arrays)
    assert b"\na %s 3 5 0\n" % token.encode() in open(p1, "rb").read()
    back = load_arrays(p1)
    assert all(back[k].dtype == dtype and np.array_equal(back[k], v) for k, v in arrays.items())
    save_arrays(p2, back)
    assert open(p1, "rb").read() == open(p2, "rb").read()


@pytest.mark.parametrize("bits", range(2, 9))
def test_packed_save_load_save_is_byte_identical(tmp_path, bits):
    rng = np.random.Generator(np.random.PCG64(bits))
    arrays = {f"c{cols}": Packed(rng.integers(0, 1 << bits, (3, cols)).astype(np.uint8), bits)
              for cols in (1, 5, 7, 8, 13)}
    p1, p2 = str(tmp_path / "a.qlab"), str(tmp_path / "b.qlab")
    save_arrays(p1, arrays)
    blob = open(p1, "rb").read()
    assert b"\nc13 u%dp 3 13 " % bits in blob
    back = load_arrays(p1)
    for k, v in arrays.items():
        assert back[k].bits == bits and np.array_equal(back[k].codes, v.codes)
    save_arrays(p2, back)
    assert open(p2, "rb").read() == blob


def test_pack_codes_lsb_first_with_row_padding():
    packed = store.pack_codes(np.array([[1, 2, 3], [7, 0, 5]], np.uint8), 3)
    # row 0 is the bit string 100 010 110 and row 1 is 111 000 101, 8 bits a byte
    assert packed.tolist() == [[0b11010001, 0b0], [0b01000111, 0b1]]


@pytest.mark.parametrize("bad", [np.zeros(3, np.float32), np.zeros((1, 1), np.uint8),
                                 np.zeros((1, 1), np.float16)])
def test_save_arrays_refuses_arrays_without_a_token(tmp_path, bad):
    with pytest.raises(CheckpointFormatError, match="tensor w"):
        save_arrays(str(tmp_path / "t.qlab"), {"w": bad})
    assert os.listdir(tmp_path) == []


def _saved_table(path):
    table = MetricsStore(path, "k,v", ("k",))
    table.upsert({"k": "1", "v": "2"})
    table.save()


def test_failed_write_leaves_no_temp_file(tmp_path, monkeypatch):
    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(store.os, "replace", fail)
    with pytest.raises(StoreError, match="t.qlab: disk full"):
        save_arrays(str(tmp_path / "t.qlab"), _one_tensor())
    with pytest.raises(StoreError, match="t.csv: disk full"):
        _saved_table(str(tmp_path / "t.csv"))
    assert os.listdir(tmp_path) == []


def test_written_files_follow_umask(tmp_path):
    old = os.umask(0o022)
    try:
        save_arrays(str(tmp_path / "t.qlab"), _one_tensor())
        _saved_table(str(tmp_path / "t.csv"))
    finally:
        os.umask(old)
    for name in ("t.qlab", "t.csv"):
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == 0o644


# sha256 of the files a seeded tiny model writes; the QLAB1 format is the
# lab's data contract, so a codec change must leave these bytes alone
FORMAT_GUARD = {
    "ckpt.qlab": "ae31663cfde0910105f0bf9023a71a0dcb1dd84410ff55881b31b028bfcfb6c4",
    "ckpt.opt.qlab": "653323a15b6ebce9f8a7520070701a225771ff5bd46188bec11fc2c444f9bd72",
    "gptq3.qlab": "c2b27a1c72323ff17b3f2fcfc0bcbace9f80f0f5fe7e4a3a6aa322954578d318",
    "rtn4.qlab": "3f4b8f0c70ad985052f5b44264561c97eb9b15f2a9c50920937fe697ccca4de4",
}


def _write_guard_files(out) -> dict:
    """A seeded checkpoint (from f32 and from f64 weights), optimizer
    state, a 3-bit GPTQ and a 4-bit RTN file; returns name -> path."""
    from qlab.data import build_calibration
    from qlab.harness import save_opt_state
    from qlab.model import ModelConfig, init, save_checkpoint
    from qlab.optim import init_opt_state
    from qlab.quant import QuantConfig, quantize_model, save_quantized

    cfg = ModelConfig(vocab=16, d_model=8, n_layers=1, n_heads=2, d_ff=12, seq_len=6,
                      init_seed=3, init_std=0.2)
    paths = {name: str(out / name) for name in (*FORMAT_GUARD, "ckpt64.qlab")}
    ck = init(cfg)
    save_checkpoint(paths["ckpt.qlab"], ck)
    save_checkpoint(paths["ckpt64.qlab"], init(cfg, dtype=np.float64))
    st = init_opt_state(ck)
    rng = np.random.Generator(np.random.PCG64(4))
    for k in st.m:
        st.m[k] = rng.standard_normal(st.m[k].shape).astype(np.float32)
        st.v[k] = np.square(rng.standard_normal(st.v[k].shape)).astype(np.float32)
    st.t = 5
    save_opt_state(paths["ckpt.opt.qlab"], st, cursor=77)
    stream = rng.integers(0, 16, 6 * 6 + 7).astype(np.uint8)
    calib = build_calibration(stream, 4, 6, batch_size=2)
    qm, _ = quantize_model(ck, calib, QuantConfig(bits=3, group_size=4, method="gptq"))
    save_quantized(paths["gptq3.qlab"], qm)
    qm, _ = quantize_model(ck, None, QuantConfig(bits=4, group_size=5, method="rtn"))
    save_quantized(paths["rtn4.qlab"], qm)
    return paths


def _sha256(path: str) -> str:
    import hashlib

    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def test_format_guard_files_keep_their_bytes(tmp_path):
    paths = _write_guard_files(tmp_path)
    assert {name: _sha256(paths[name]) for name in FORMAT_GUARD} == FORMAT_GUARD
    assert _sha256(paths["ckpt64.qlab"]) == FORMAT_GUARD["ckpt.qlab"]


def test_format_guard_files_load_and_save_byte_for_byte(tmp_path):
    from qlab.harness import load_opt_state, save_opt_state
    from qlab.model import load_checkpoint, save_checkpoint
    from qlab.quant import load_quantized, save_quantized

    paths = _write_guard_files(tmp_path)
    again = {name: str(tmp_path / f"again.{name}") for name in FORMAT_GUARD}
    save_checkpoint(again["ckpt.qlab"], load_checkpoint(paths["ckpt.qlab"]))
    save_opt_state(again["ckpt.opt.qlab"], *load_opt_state(paths["ckpt.opt.qlab"]))
    for name in ("gptq3.qlab", "rtn4.qlab"):
        save_quantized(again[name], load_quantized(paths[name]))
    for name in FORMAT_GUARD:
        assert _sha256(again[name]) == _sha256(paths[name]), name
        save_arrays(str(tmp_path / f"arrays.{name}"), load_arrays(paths[name]))
        assert _sha256(str(tmp_path / f"arrays.{name}")) == _sha256(paths[name]), name
