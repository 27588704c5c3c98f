"""Rolling weight averaging (LAWA) and cross-run model soups.

Averages are over weights only, never optimizer state; an averaged
checkpoint is an evaluation artifact, not a resume point.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Sequence

import numpy as np

from .errors import ContractViolation
from .model import Checkpoint

WEIGHT_SUM_TOL = 1e-9


def _weighted_mean(
    tensor_sets: Sequence[Dict[str, np.ndarray]], weights: Sequence[float]
) -> Dict[str, np.ndarray]:
    """Normalized weighted mean accumulated in 64-bit, returned in the
    first set's dtype.

    Equal weights take a sum-then-divide path so that a uniform average of
    identical tensors reproduces them bitwise; LAWA and a uniform soup
    therefore agree exactly.
    """
    dtype = next(iter(tensor_sets[0].values())).dtype
    uniform = all(w == weights[0] for w in weights)
    total = float(np.sum(np.asarray(weights, dtype=np.float64)))
    out = {}
    for k in tensor_sets[0]:
        acc = np.zeros(tensor_sets[0][k].shape, dtype=np.float64)
        for w, ts in zip(weights, tensor_sets):
            acc += ts[k] if uniform else (w / total) * ts[k].astype(np.float64)
        out[k] = (acc / len(tensor_sets) if uniform else acc).astype(dtype)
    return out


def _require_congruent(a: Checkpoint, b: Checkpoint) -> None:
    if a.config != b.config or set(a.tensors) != set(b.tensors):
        raise ContractViolation("checkpoints are not config-congruent")


class AveragingWindow(deque):
    """The `capacity` most recent checkpoints of a LAWA run, oldest first."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ContractViolation("window capacity must be at least 1")
        super().__init__(maxlen=capacity)


def lawa_push(window: AveragingWindow, ckpt: Checkpoint) -> Checkpoint:
    """Add a checkpoint, evicting the oldest at capacity; returns the
    window's uniform mean.

    The averaged checkpoint carries the step and token count of the newest
    entry.
    """
    if window:
        _require_congruent(window[0], ckpt)
    window.append(ckpt)
    mean = _weighted_mean([c.tensors for c in window], [1.0] * len(window))
    return Checkpoint(mean, step=ckpt.step, tokens_seen=ckpt.tokens_seen, config=ckpt.config)


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
