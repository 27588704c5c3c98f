"""Tensor-file serialization.

Grammar (shared by checkpoints, optimizer state, and quantized models):
a ``QLAB1`` header line, one line per tensor ``name dtype rows cols
byte_offset``, a blank line, the raw little-endian payloads in header
order, and a trailing line holding the 64-bit FNV-1a checksum of the
payload bytes in hex.

Weight payloads are 32-bit IEEE-754; metadata rides along as f64
tensors; quantized codes use bit-packed ``u{b}p`` dtypes with rows
padded to byte boundaries.
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

import numpy as np

from .errors import CheckpointFormatError

MAGIC = "QLAB1"
FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF

_PLAIN_DTYPES = {"f32": np.float32, "f64": np.float64, "i32": np.int32, "i64": np.int64}


def fnv1a64(data: bytes, h: int = FNV_OFFSET) -> int:
    """64-bit FNV-1a over raw bytes."""
    prime = FNV_PRIME
    mask = _MASK64
    for b in memoryview(data):
        h = ((h ^ b) * prime) & mask
    return h


def packed_row_bytes(cols: int, bits: int) -> int:
    return (cols * bits + 7) // 8


def dtype_nbytes(dtype: str, rows: int, cols: int) -> int:
    if dtype in _PLAIN_DTYPES:
        return rows * cols * np.dtype(_PLAIN_DTYPES[dtype]).itemsize
    if dtype.startswith("u") and dtype.endswith("p"):
        return rows * packed_row_bytes(cols, int(dtype[1:-1]))
    raise CheckpointFormatError(f"unknown dtype token {dtype!r}")


def encode_tensor(arr: np.ndarray, dtype: str) -> bytes:
    if dtype not in _PLAIN_DTYPES:
        raise CheckpointFormatError(f"encode_tensor only handles plain dtypes, got {dtype!r}")
    le = np.dtype(_PLAIN_DTYPES[dtype]).newbyteorder("<")
    return np.ascontiguousarray(arr).astype(le).tobytes()


def decode_tensor(raw: bytes, dtype: str, rows: int, cols: int) -> np.ndarray:
    if dtype not in _PLAIN_DTYPES:
        raise CheckpointFormatError(f"decode_tensor only handles plain dtypes, got {dtype!r}")
    np_dtype = np.dtype(_PLAIN_DTYPES[dtype]).newbyteorder("<")
    arr = np.frombuffer(raw, dtype=np_dtype).reshape(rows, cols)
    return arr.astype(_PLAIN_DTYPES[dtype])


def atomic_write(path: str, data: bytes) -> None:
    """Write `data` to `path` through a temp file in the same directory and
    a rename, so a partial file never appears under the final name. The
    temp file is removed on any failure, and the file's mode follows the
    umask as with a plain `open`."""
    tmp = f"{path}.{os.urandom(4).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_tensor_file(
    path: str, entries: List[Tuple[str, str, int, int, bytes]], overwrite: bool = False
) -> None:
    """Write (name, dtype, rows, cols, payload) entries atomically; refuses
    to clobber."""
    if os.path.exists(path) and not overwrite:
        raise CheckpointFormatError(f"refusing to overwrite existing file: {path}")
    header_lines = [MAGIC]
    offset = 0
    payloads = []
    for name, dtype, rows, cols, raw in entries:
        expect = dtype_nbytes(dtype, rows, cols)
        if len(raw) != expect:
            raise CheckpointFormatError(
                f"tensor {name}: payload {len(raw)} bytes, expected {expect}"
            )
        header_lines.append(f"{name} {dtype} {rows} {cols} {offset}")
        payloads.append(raw)
        offset += len(raw)
    payload = b"".join(payloads)
    footer = f"\n{fnv1a64(payload):016x}\n"
    atomic_write(path, ("\n".join(header_lines) + "\n\n").encode() + payload + footer.encode())


def read_tensor_file(path: str) -> Dict[str, Tuple[str, int, int, bytes]]:
    """Parse a tensor file, verify its checksum, and return name->(dtype, rows, cols, raw)."""
    with open(path, "rb") as f:
        blob = f.read()
    sep = blob.find(b"\n\n")
    if sep < 0:
        raise CheckpointFormatError(f"{path}: missing blank line after header")
    header = blob[:sep].decode()
    lines = header.split("\n")
    if not lines or lines[0] != MAGIC:
        raise CheckpointFormatError(f"{path}: bad magic {lines[:1]!r}")
    entries = {}
    total = 0
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 5:
            raise CheckpointFormatError(f"{path}: malformed header line {line!r}")
        name, dtype, rows, cols, off = parts[0], parts[1], int(parts[2]), int(parts[3]), int(parts[4])
        size = dtype_nbytes(dtype, rows, cols)
        entries[name] = (dtype, rows, cols, off, size)
        total = max(total, off + size)
    body = blob[sep + 2 :]
    payload, footer = body[:total], body[total:]
    if len(payload) != total:
        raise CheckpointFormatError(f"{path}: truncated payload")
    footer_text = footer.decode().strip()
    got = fnv1a64(payload)
    if footer_text != f"{got:016x}":
        raise CheckpointFormatError(
            f"{path}: checksum mismatch (footer {footer_text!r}, payload {got:016x})"
        )
    return {
        name: (dtype, rows, cols, payload[off : off + size])
        for name, (dtype, rows, cols, off, size) in entries.items()
    }
