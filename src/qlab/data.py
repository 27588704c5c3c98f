"""Byte-level corpus ingestion, deterministic splits and batch windows.

A corpus is the bytes of a file as a 1-D uint8 array, one token per byte,
and every slice and batch cut from it keeps that dtype: the model indexes
with any integer ids, and `token_fingerprint` hashes them as int32.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import store
from .errors import ConfigError, IngestionError


@dataclass(frozen=True)
class Batch:
    inputs: np.ndarray  # [batch, seq_len]
    targets: np.ndarray  # [batch, seq_len], inputs shifted by one


def load_corpus(path: str, limit: Optional[int] = None) -> np.ndarray:
    """The file's bytes (its first `limit`, if given) as a uint8 array."""
    if limit is not None and limit < 0:
        raise ConfigError(f"corpus byte limit must be 0 (none) or more, got {limit}")
    if not os.path.isfile(path):
        raise IngestionError(f"corpus file not found: {path}")
    size = os.path.getsize(path)
    if size == 0:
        raise IngestionError(f"corpus file is empty: {path}")
    n = size if not limit else min(size, limit)
    with open(path, "rb") as f:
        return np.frombuffer(f.read(n), dtype=np.uint8)


def split(
    tokens: np.ndarray, val_fraction: float, calib_fraction: float, seed: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Carve contiguous disjoint train/val/calib slices, deterministic in seed.

    The stream is cyclically rotated by a seeded offset first, so different
    seeds place the held-out block at different positions while slice sizes
    stay exact. The slices are views of one rotated copy.
    """
    if val_fraction <= 0 or calib_fraction <= 0 or val_fraction + calib_fraction >= 1:
        raise ConfigError("val/calib fractions must be positive and sum below 1")
    n = tokens.size
    val_n = int(n * val_fraction)
    calib_n = int(n * calib_fraction)
    train_n = n - val_n - calib_n
    rng = np.random.Generator(np.random.PCG64(seed))
    rotated = np.roll(tokens, -int(rng.integers(0, n)))
    return rotated[:train_n], rotated[train_n : train_n + val_n], rotated[train_n + val_n :]


def window_count(tokens: np.ndarray, seq_len: int) -> int:
    """Number of non-overlapping (input, shifted-target) windows in one epoch."""
    return (tokens.size - 1) // seq_len


def next_batch(tokens: np.ndarray, batch: int, seq_len: int, cursor: int) -> Tuple[Batch, int]:
    """Sequential non-overlapping windows; returns the batch and advanced cursor.

    The cursor counts windows consumed since the start of the stream; epochs
    wrap deterministically in the same order.
    """
    windows = window_count(tokens, seq_len)
    if windows < 1:
        raise ConfigError(f"stream too short for seq_len {seq_len}")
    offsets = ((cursor + np.arange(batch)) % windows) * seq_len
    idx = offsets[:, None] + np.arange(seq_len)[None, :]
    return Batch(tokens[idx], tokens[idx + 1]), cursor + batch


def _leading_batches(tokens: np.ndarray, sizes: List[int], seq_len: int) -> List[Batch]:
    """Batches of `sizes` rows, taking the stream's windows from the first on."""
    batches, cursor = [], 0
    for size in sizes:
        batch, cursor = next_batch(tokens, size, seq_len, cursor)
        batches.append(batch)
    return batches


def build_calibration(
    tokens: np.ndarray, sample_count: int, seq_len: int, batch_size: int = 16
) -> List[Batch]:
    """First `sample_count` windows of the calibration slice, grouped into batches."""
    windows = window_count(tokens, seq_len)
    if windows < sample_count:
        raise ConfigError(
            f"calibration slice holds {windows} windows, need {sample_count}"
        )
    sizes = [min(batch_size, sample_count - at) for at in range(0, sample_count, batch_size)]
    return _leading_batches(tokens, sizes, seq_len)


def fixed_eval_batches(
    tokens: np.ndarray, n_batches: int, batch_size: int, seq_len: int
) -> List[Batch]:
    """Deterministic evaluation set: the first n_batches of the val slice."""
    if n_batches < 1 or batch_size < 1:
        raise ConfigError(
            f"eval set needs at least one batch of one row, got {n_batches} x {batch_size}"
        )
    windows = window_count(tokens, seq_len)
    need = n_batches * batch_size
    if windows < need:
        raise ConfigError(f"eval slice holds {windows} windows, need {need}")
    return _leading_batches(tokens, [batch_size] * n_batches, seq_len)


def token_fingerprint(batches: List[Batch]) -> str:
    """Content hash of a batch list, for recording eval/calib set identity:
    FNV-1a over each batch's inputs then targets as int32, in batch order."""
    raw = b"".join(
        np.ascontiguousarray(a, dtype=np.int32).tobytes()
        for b in batches
        for a in (b.inputs, b.targets)
    )
    # store.fnv1a64 is looked up per call, so a wrapper installed on it sees this hash
    return f"{store.fnv1a64(raw):016x}"
