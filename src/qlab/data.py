"""Corpus ingestion, byte-level tokenization, packing, and deterministic splits."""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import store
from .errors import ConfigError, IngestionError


@dataclass(frozen=True)
class TokenStream:
    tokens: np.ndarray  # 1-D integer ids
    vocab: int = 256

    def __post_init__(self):
        if self.tokens.ndim != 1:
            raise ConfigError("token stream must be 1-D")
        if self.tokens.size and int(self.tokens.max()) >= self.vocab:
            raise ConfigError("token id out of vocab range")

    def __len__(self) -> int:
        return int(self.tokens.size)


@dataclass(frozen=True)
class Batch:
    inputs: np.ndarray  # [batch, seq_len]
    targets: np.ndarray  # [batch, seq_len], inputs shifted by one


@dataclass(frozen=True)
class CalibrationSet:
    batches: List[Batch]
    sample_count: int  # total sequences across batches


def load_corpus(path: str, limit: Optional[int] = None) -> TokenStream:
    """Read a file as byte-level token ids (vocab 256)."""
    if not os.path.isfile(path):
        raise IngestionError(f"corpus file not found: {path}")
    size = os.path.getsize(path)
    if size == 0:
        raise IngestionError(f"corpus file is empty: {path}")
    n = size if not limit else min(size, limit)
    with open(path, "rb") as f:
        raw = f.read(n)
    return TokenStream(np.frombuffer(raw, dtype=np.uint8).astype(np.int32), vocab=256)


def split(
    stream: TokenStream, val_fraction: float, calib_fraction: float, seed: int
) -> Tuple[TokenStream, TokenStream, TokenStream]:
    """Carve contiguous disjoint train/val/calib slices, deterministic in seed.

    The stream is cyclically rotated by a seeded offset first, so different
    seeds place the held-out block at different positions while slice sizes
    stay exact.
    """
    if val_fraction <= 0 or calib_fraction <= 0 or val_fraction + calib_fraction >= 1:
        raise ConfigError("val/calib fractions must be positive and sum below 1")
    n = len(stream)
    val_n = int(n * val_fraction)
    calib_n = int(n * calib_fraction)
    train_n = n - val_n - calib_n
    rng = np.random.Generator(np.random.PCG64(seed))
    k = int(rng.integers(0, n))
    rotated = np.concatenate((stream.tokens[k:], stream.tokens[:k]))
    mk = lambda a: TokenStream(np.ascontiguousarray(a), vocab=stream.vocab)
    return (
        mk(rotated[:train_n]),
        mk(rotated[train_n : train_n + val_n]),
        mk(rotated[train_n + val_n :]),
    )


def window_count(stream: TokenStream, seq_len: int) -> int:
    """Number of non-overlapping (input, shifted-target) windows in one epoch."""
    return (len(stream) - 1) // seq_len


def next_batch(stream: TokenStream, batch: int, seq_len: int, cursor: int) -> Tuple[Batch, int]:
    """Sequential non-overlapping windows; returns the batch and advanced cursor.

    The cursor counts windows consumed since the start of the stream; epochs
    wrap deterministically in the same order.
    """
    windows = window_count(stream, seq_len)
    if windows < 1:
        raise ConfigError(f"stream too short for seq_len {seq_len}")
    offsets = ((cursor + np.arange(batch)) % windows) * seq_len
    idx = offsets[:, None] + np.arange(seq_len)[None, :]
    return Batch(stream.tokens[idx], stream.tokens[idx + 1]), cursor + batch


def _leading_batches(stream: TokenStream, sizes: List[int], seq_len: int) -> List[Batch]:
    """Batches of `sizes` rows, taking the stream's windows from the first on."""
    batches, cursor = [], 0
    for size in sizes:
        batch, cursor = next_batch(stream, size, seq_len, cursor)
        batches.append(batch)
    return batches


def build_calibration(
    stream: TokenStream, sample_count: int, seq_len: int, batch_size: int = 16
) -> CalibrationSet:
    """First `sample_count` windows of the calibration slice, grouped into batches."""
    windows = window_count(stream, seq_len)
    if windows < sample_count:
        raise ConfigError(
            f"calibration slice holds {windows} windows, need {sample_count}"
        )
    sizes = [min(batch_size, sample_count - at) for at in range(0, sample_count, batch_size)]
    return CalibrationSet(_leading_batches(stream, sizes, seq_len), sample_count)


def fixed_eval_batches(
    stream: TokenStream, n_batches: int, batch_size: int, seq_len: int
) -> List[Batch]:
    """Deterministic evaluation set: the first n_batches of the val slice."""
    if n_batches < 1 or batch_size < 1:
        raise ConfigError(
            f"eval set needs at least one batch of one row, got {n_batches} x {batch_size}"
        )
    windows = window_count(stream, seq_len)
    need = n_batches * batch_size
    if windows < need:
        raise ConfigError(f"eval slice holds {windows} windows, need {need}")
    return _leading_batches(stream, [batch_size] * n_batches, seq_len)


def token_fingerprint(batches: List[Batch]) -> str:
    """Content hash of a batch list, for recording eval/calib set identity:
    FNV-1a over each batch's int32 inputs then targets, in batch order."""
    raw = b"".join(
        np.ascontiguousarray(a, dtype=np.int32).tobytes()
        for b in batches
        for a in (b.inputs, b.targets)
    )
    # store.fnv1a64 is looked up per call, so a wrapper installed on it sees this hash
    return f"{store.fnv1a64(raw):016x}"
