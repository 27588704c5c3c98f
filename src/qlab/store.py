"""Tensor-file serialization.

Grammar (shared by checkpoints, optimizer state, and quantized models):
a ``QLAB1`` header line, one line per tensor ``name dtype rows cols
byte_offset``, a blank line, the raw little-endian payloads in header
order, and a trailing line holding the 64-bit FNV-1a checksum of the
payload bytes in hex.

The checksum runs the FNV-1a recurrence h <- ((h ^ b) * P) mod 2^64
exactly in numpy: eight rounds of prefix XORs give the low byte of the
state before every byte. Since h ^ b then equals h plus a known step,
each 64 KB chunk moves the state by one uint64 dot product of those
steps with powers of P.

Weight payloads are 32-bit IEEE-754; metadata rides along as f64
tensors; quantized codes use bit-packed ``u{b}p`` dtypes (LSB first)
with rows padded to byte boundaries.

This is the only module that encodes entries: `save_arrays` and
`load_arrays` turn a dict of 2-D arrays (and `Packed` codes) into a
file and back, over the byte layer `write_tensor_file` and
`read_tensor_file`. The writers return the payload checksum they wrote
and the readers the one they verified (`TensorFile.checksum`), so a
caller can name a file's contents without hashing them again.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .errors import CheckpointFormatError, StoreError

MAGIC = "QLAB1"
FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF

_PLAIN_DTYPES = {"f32": np.float32, "f64": np.float64, "i32": np.int32, "i64": np.int64}
_TOKENS = {np.dtype(t): token for token, t in _PLAIN_DTYPES.items()}

_CHUNK = 1 << 16  # bytes hashed at a time: keeps the temporaries near 1 MB per thread
# _POWERS[m] = P^(_CHUNK - m) mod 2^64: the weight of each byte of a full chunk
_POWERS = np.multiply.accumulate(np.full(_CHUNK, FNV_PRIME, np.uint64))[::-1].copy()


def _prefix_xor(bits: np.ndarray) -> np.ndarray:
    """Inclusive prefix XOR of the truth values of `bits`, as 0/1 bytes:
    packed 64 to a word, scanned inside each word, then each word flipped
    by the parity of the words before it."""
    packed = np.packbits(bits, bitorder="little")
    words = np.zeros((len(packed) + 7) // 8, np.dtype("<u8"))
    words.view(np.uint8)[: len(packed)] = packed
    for shift in (1, 2, 4, 8, 16, 32):
        words ^= words << shift
    parity = np.bitwise_xor.accumulate(words >> 63)
    words[1:] ^= np.negative(parity[:-1])
    return np.unpackbits(words.view(np.uint8), count=len(bits), bitorder="little")


def _low_bytes(b: np.ndarray, start: int) -> np.ndarray:
    """The low byte of the FNV-1a state before each byte of `b`, from a
    state whose low byte is `start`.

    Bit k of low[i+1] is bit k of x = low[i] ^ b[i] XOR bit k of
    (x mod 2^k) * (P mod 256), as P is odd: a prefix XOR once the bits
    below k are known at every position."""
    low = np.full(len(b) + 1, start, np.uint8)
    x = np.empty(len(b), np.uint8)
    for k in range(8):
        np.bitwise_xor(low[:-1], b, out=x)
        x &= (1 << k) - 1
        x *= FNV_PRIME & 0xFF
        x ^= b
        x &= 1 << k
        bit = _prefix_xor(x)
        bit *= 1 << k  # not `<<`: numpy's uint8 shift is over ten times slower
        low[1:] ^= bit
    return low[:-1]


def fnv1a64(data: bytes, h: int = FNV_OFFSET) -> int:
    """64-bit FNV-1a over raw bytes, continuing from state `h`."""
    data = np.frombuffer(data, np.uint8)
    for start in range(0, len(data), _CHUNK):
        b = data[start : start + _CHUNK]
        low = _low_bytes(b, h & 0xFF)
        # h ^ b[i] = h + step[i], so after n bytes h = P^n h + sum_i step[i] P^(n-i)
        step = np.bitwise_xor(low, b).astype(np.int64)
        step -= low
        n = len(b)
        tail = int(np.dot(step.view(np.uint64), _POWERS[_CHUNK - n :]))
        h = (int(_POWERS[_CHUNK - n]) * h + tail) & _MASK64
    return h


def _packed_row_bytes(cols: int, bits: int) -> int:
    return (cols * bits + 7) // 8


def dtype_nbytes(dtype: str, rows: int, cols: int) -> int:
    if dtype in _PLAIN_DTYPES:
        return rows * cols * np.dtype(_PLAIN_DTYPES[dtype]).itemsize
    if dtype.startswith("u") and dtype.endswith("p") and dtype[1:-1].isdecimal():
        return rows * _packed_row_bytes(cols, int(dtype[1:-1]))
    raise CheckpointFormatError(f"unknown dtype token {dtype!r}")


def pack_codes(codes: np.ndarray, bits: int) -> np.ndarray:
    """LSB-first bit-packed rows, padded to byte boundaries."""
    rows, cols = codes.shape
    shifts = np.arange(bits, dtype=np.uint8)
    bits_arr = ((codes[:, :, None] >> shifts) & 1).reshape(rows, cols * bits)
    return np.packbits(bits_arr, axis=1, bitorder="little")


def unpack_codes(packed: np.ndarray, bits: int, cols: int) -> np.ndarray:
    rows = packed.shape[0]
    bits_arr = np.unpackbits(packed, axis=1, count=cols * bits, bitorder="little")
    bits_arr = bits_arr.reshape(rows, cols, bits).astype(np.int32)
    weights = (1 << np.arange(bits, dtype=np.int32))
    return (bits_arr * weights).sum(axis=2).astype(np.uint8)


class TensorFile(dict):
    """A tensor file's contents by name, with `checksum`: the FNV-1a
    checksum of its payload in hex, as verified against its footer."""

    def __init__(self, contents, checksum: str):
        super().__init__(contents)
        self.checksum = checksum


@dataclass(frozen=True)
class Packed:
    """uint8 codes below 2^bits, stored bit-packed as ``u{bits}p``."""

    codes: np.ndarray
    bits: int


def _entry(name: str, value) -> Tuple[str, str, int, int, bytes]:
    if isinstance(value, Packed):
        rows, cols = value.codes.shape
        return (name, f"u{value.bits}p", rows, cols, pack_codes(value.codes, value.bits).tobytes())
    token = _TOKENS.get(value.dtype)
    if token is None or value.ndim != 2:
        raise CheckpointFormatError(
            f"tensor {name}: cannot store a {value.ndim}-D {value.dtype} array"
        )
    le = value.dtype.newbyteorder("<")
    return (name, token, *value.shape, np.ascontiguousarray(value, dtype=le).tobytes())


def _value(dtype: str, rows: int, cols: int, raw: bytes):
    if dtype in _PLAIN_DTYPES:
        native = np.dtype(_PLAIN_DTYPES[dtype])
        return np.frombuffer(raw, native.newbyteorder("<")).reshape(rows, cols).astype(native)
    bits = int(dtype[1:-1])
    packed = np.frombuffer(raw, np.uint8).reshape(rows, _packed_row_bytes(cols, bits))
    return Packed(unpack_codes(packed, bits, cols), bits)


def save_arrays(path: str, arrays: Dict[str, object], overwrite: bool = False) -> str:
    """Write a dict of 2-D arrays (f32, f64, i32, i64) and `Packed` codes
    as one tensor file, in dict order; returns its payload checksum."""
    return write_tensor_file(path, [_entry(n, v) for n, v in arrays.items()], overwrite=overwrite)


def load_arrays(path: str) -> TensorFile:
    """The dict `save_arrays` wrote: native-dtype arrays, `Packed` codes."""
    entries = read_tensor_file(path)
    return TensorFile({name: _value(*e) for name, e in entries.items()}, entries.checksum)


def atomic_write(path: str, data: bytes) -> None:
    """Write `data` to `path` through a temp file in the same directory and
    a rename, so a partial file never appears under the final name. The
    temp file is removed on any failure, and the file's mode follows the
    umask as with a plain `open`. An OS error raises StoreError."""
    tmp = f"{path}.{os.urandom(4).hex()}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(data)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as e:
        raise StoreError(f"cannot write {path}: {e.strerror or e}") from e


def write_tensor_file(
    path: str, entries: List[Tuple[str, str, int, int, bytes]], overwrite: bool = False
) -> str:
    """Write (name, dtype, rows, cols, payload) entries atomically; refuses
    to clobber. Returns the payload checksum in hex."""
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
    checksum = f"{fnv1a64(payload):016x}"
    atomic_write(path, ("\n".join(header_lines) + "\n\n").encode() + payload
                 + f"\n{checksum}\n".encode())
    return checksum


def read_tensor_file(path: str) -> TensorFile:
    """Parse a tensor file, verify its checksum, and return name->(dtype, rows, cols, raw)."""
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as e:
        raise StoreError(f"cannot read {path}: {e.strerror or e}") from e
    sep = blob.find(b"\n\n")
    if sep < 0:
        raise CheckpointFormatError(f"{path}: missing blank line after header")
    try:
        lines = blob[:sep].decode().split("\n")
    except UnicodeDecodeError as e:
        raise CheckpointFormatError(f"{path}: header is not UTF-8 ({e})") from None
    if lines[0] != MAGIC:
        raise CheckpointFormatError(f"{path}: bad magic {lines[:1]!r}")
    entries = {}
    total = 0
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 5:
            raise CheckpointFormatError(f"{path}: malformed header line {line!r}")
        name, dtype = parts[0], parts[1]
        try:
            rows, cols, off = map(int, parts[2:])
        except ValueError:
            raise CheckpointFormatError(f"{path}: non-integer field in header line {line!r}") from None
        if min(rows, cols, off) < 0:
            raise CheckpointFormatError(f"{path}: negative field in header line {line!r}")
        try:
            size = dtype_nbytes(dtype, rows, cols)
        except CheckpointFormatError as e:
            raise CheckpointFormatError(f"{path}: {e}") from None
        entries[name] = (dtype, rows, cols, off, size)
        total = max(total, off + size)
    body = blob[sep + 2 :]
    payload, footer = body[:total], body[total:].strip()
    if len(payload) != total:
        raise CheckpointFormatError(f"{path}: truncated payload")
    got = f"{fnv1a64(payload):016x}"
    if footer != got.encode():
        raise CheckpointFormatError(
            f"{path}: checksum mismatch (footer {footer!r}, payload {got})"
        )
    return TensorFile({
        name: (dtype, rows, cols, payload[off : off + size])
        for name, (dtype, rows, cols, off, size) in entries.items()
    }, got)
