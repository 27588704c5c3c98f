"""Rolling weight averaging (LAWA) and cross-run model soups.

Averages are over weights only, never optimizer state; an averaged
checkpoint is an evaluation artifact, not a resume point.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Sequence, Tuple

import numpy as np

from .errors import ContractViolation
from .model import Checkpoint

WEIGHT_SUM_TOL = 1e-9


def _weighted_mean64(
    tensor_sets: Sequence[Dict[str, np.ndarray]], weights: Sequence[float]
) -> Dict[str, np.ndarray]:
    """Normalized weighted mean accumulated in 64-bit.

    Equal weights take a sum-then-divide path so that a uniform average of
    identical tensors reproduces them bitwise; LAWA and a uniform soup
    therefore agree exactly.
    """
    keys = tensor_sets[0].keys()
    out = {}
    if all(w == weights[0] for w in weights):
        n = len(tensor_sets)
        for k in keys:
            acc = np.zeros(tensor_sets[0][k].shape, dtype=np.float64)
            for ts in tensor_sets:
                acc += ts[k]
            out[k] = acc / n
        return out
    total = float(np.sum(np.asarray(weights, dtype=np.float64)))
    norm = [w / total for w in weights]
    for k in keys:
        acc = np.zeros(tensor_sets[0][k].shape, dtype=np.float64)
        for w, ts in zip(norm, tensor_sets):
            acc += w * ts[k].astype(np.float64)
        out[k] = acc
    return out


def _weighted_mean(
    tensor_sets: Sequence[Dict[str, np.ndarray]], weights: Sequence[float]
) -> Dict[str, np.ndarray]:
    dtype = next(iter(tensor_sets[0].values())).dtype
    return {k: v.astype(dtype) for k, v in _weighted_mean64(tensor_sets, weights).items()}


def _require_congruent(a: Checkpoint, b: Checkpoint) -> None:
    if a.config != b.config or set(a.tensors) != set(b.tensors):
        raise ContractViolation("checkpoints are not config-congruent")


@dataclass
class AveragingWindow:
    """FIFO of the k most recent checkpoints with a cached uniform average."""

    capacity: int
    entries: Deque[Tuple[int, int, Dict[str, np.ndarray]]] = field(default_factory=deque)
    cached: Dict[str, np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self.entries)


def lawa_push(window: AveragingWindow, ckpt: Checkpoint) -> Checkpoint:
    """Add a checkpoint, evicting the oldest at capacity; returns the mean.

    The averaged checkpoint carries the step and token count of the newest
    entry.
    """
    if window.capacity < 1:
        raise ContractViolation("window capacity must be at least 1")
    if window.entries:
        first = window.entries[0][2]
        if set(first) != set(ckpt.tensors) or any(
            first[k].shape != ckpt.tensors[k].shape for k in first
        ):
            raise ContractViolation("checkpoint does not match window entries")
    window.entries.append((ckpt.step, ckpt.tokens_seen, dict(ckpt.tensors)))
    while len(window.entries) > window.capacity:
        window.entries.popleft()
    sets = [e[2] for e in window.entries]
    window.cached = _weighted_mean64(sets, [1.0] * len(sets))
    dtype = next(iter(ckpt.tensors.values())).dtype
    return Checkpoint(
        {k: v.astype(dtype) for k, v in window.cached.items()},
        step=ckpt.step, tokens_seen=ckpt.tokens_seen, config=ckpt.config,
    )


def soup(checkpoints: Sequence[Checkpoint], weights: Sequence[float]) -> Checkpoint:
    """Per-tensor weighted sum across runs; weights must sum to 1."""
    if not checkpoints or len(checkpoints) != len(weights):
        raise ContractViolation("need one weight per checkpoint")
    total = float(np.sum(np.asarray(weights, dtype=np.float64)))
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ContractViolation(f"weights sum to {total}, expected 1")
    base = checkpoints[0]
    for other in checkpoints[1:]:
        _require_congruent(base, other)
    mixed = _weighted_mean([c.tensors for c in checkpoints], list(weights))
    newest = max(checkpoints, key=lambda c: c.step)
    return Checkpoint(mixed, step=newest.step, tokens_seen=newest.tokens_seen, config=base.config)
