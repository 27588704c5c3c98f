"""AdamW / AdamC, gradient clipping, LR schedules, and the training loop.

The step functions are pure: they take (checkpoint, state, grads) and
return fresh copies. Weight decay is coupled to the learning rate by
default (decay term lr*wd*w); `decoupled_wd` switches to a plain wd*w
term. AdamC scales the coupled decay by lr/peak_lr. Norm gains and the
embedding tables are exempt from decay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from .data import TokenStream, next_batch
from .errors import ConfigError, ContractViolation, NumericFailure
from .model import Checkpoint, GradientSet, loss_and_grads
# Unused here, but perfbench's traced mode wraps forward, loss and backward
# at this module's names, so they must stay importable from it.
from .model import backward, forward, loss  # noqa: F401
from .ndkernel import frobenius_norm


@dataclass(frozen=True)
class OptimConfig:
    peak_lr: float = 3e-3
    beta1: float = 0.9
    beta2: float = 0.95
    eps: float = 1e-8
    weight_decay: float = 0.1
    clip_norm: float = 1.0
    variant: str = "adamw"  # adamw | adamc
    decoupled_wd: bool = False

    def __post_init__(self):
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError("betas must lie in [0, 1)")
        if self.peak_lr <= 0 or self.weight_decay < 0 or self.clip_norm <= 0:
            raise ConfigError("peak_lr/clip_norm must be positive, weight_decay nonnegative")
        if self.variant not in ("adamw", "adamc"):
            raise ConfigError(f"unknown optimizer variant {self.variant!r}")


@dataclass
class OptimState:
    m: Dict[str, np.ndarray]
    v: Dict[str, np.ndarray]
    t: int = 0


def init_opt_state(ckpt: Checkpoint) -> OptimState:
    zeros = lambda: {k: np.zeros_like(t) for k, t in ckpt.tensors.items()}
    return OptimState(m=zeros(), v=zeros(), t=0)


@dataclass(frozen=True)
class ScheduleSpec:
    kind: str  # constant | wsd | cosine
    total_steps: int
    warmup_steps: int = 0
    decay_steps: int = 0
    min_lr: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "wsd", "cosine"):
            raise ConfigError(f"unknown schedule kind {self.kind!r}")
        if self.total_steps < 1 or self.warmup_steps < 0 or self.decay_steps < 0:
            raise ConfigError(
                f"schedule needs total steps >= 1 and warmup/decay steps >= 0, got "
                f"{self.total_steps}/{self.warmup_steps}/{self.decay_steps}"
            )
        if self.kind == "wsd" and self.warmup_steps + self.decay_steps > self.total_steps:
            raise ConfigError("warmup + decay exceeds total steps")
        if self.kind != "wsd" and self.warmup_steps > self.total_steps:
            raise ConfigError("warmup exceeds total steps")
        if self.kind == "constant" and self.decay_steps:
            raise ConfigError("constant schedule takes no decay phase")


def schedule_value(spec: ScheduleSpec, eta_max: float, step: int) -> float:
    """Learning rate at an integer step in [0, total_steps]."""
    if step < 0 or step > spec.total_steps:
        raise ContractViolation(f"step {step} outside schedule of {spec.total_steps}")
    # phase-boundary ratios hit exactly 1.0, keeping endpoints exact
    if spec.warmup_steps and step <= spec.warmup_steps:
        return eta_max * (step / spec.warmup_steps)
    if spec.kind == "cosine":
        span = spec.total_steps - spec.warmup_steps
        p = (step - spec.warmup_steps) / span if span else 1.0
        return spec.min_lr + 0.5 * (eta_max - spec.min_lr) * (1.0 + math.cos(math.pi * p))
    if spec.kind == "wsd" and spec.decay_steps and step >= spec.total_steps - spec.decay_steps:
        return eta_max * ((spec.total_steps - step) / spec.decay_steps)
    return eta_max


def clip_grad_norm(grads: GradientSet, clip_norm: float) -> Tuple[GradientSet, float]:
    """Scale all tensors so the global L2 norm is at most clip_norm.

    Returns (possibly scaled grads, pre-clip norm). The pre-clip norm is
    what the norm log records.
    """
    norm = frobenius_norm(*grads.values())
    if not math.isfinite(norm):
        raise NumericFailure(f"non-finite gradient norm {norm}", where="clip_grad_norm")
    if norm <= clip_norm:
        return grads, norm
    scale = clip_norm / norm
    return {k: g * scale for k, g in grads.items()}, norm


def is_decay_exempt(name: str) -> bool:
    """Norm gains and embedding tables skip weight decay."""
    return name.startswith("embed.") or name.endswith(".g")


def _adam_core(
    ckpt: Checkpoint,
    state: OptimState,
    grads: GradientSet,
    eta_t: float,
    cfg: OptimConfig,
    decay_factor: float,
) -> Tuple[Checkpoint, OptimState]:
    if set(grads) != set(ckpt.tensors):
        raise ContractViolation("gradient tensor set does not match checkpoint")
    t = state.t + 1
    bc1 = 1.0 - cfg.beta1**t
    bc2 = 1.0 - cfg.beta2**t
    new_w, new_m, new_v = {}, {}, {}
    for name, w in ckpt.tensors.items():
        g = grads[name]
        if g.shape != w.shape:
            raise ContractViolation(f"gradient shape mismatch for {name}")
        m = cfg.beta1 * state.m[name] + (1.0 - cfg.beta1) * g
        v = cfg.beta2 * state.v[name] + (1.0 - cfg.beta2) * (g * g)
        update = eta_t * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)
        df = 0.0 if is_decay_exempt(name) else decay_factor
        w2 = w - update - df * w
        if not np.all(np.isfinite(w2)):
            raise NumericFailure(f"non-finite update for {name}", where=name)
        new_w[name], new_m[name], new_v[name] = w2, m, v
    return replace(ckpt, tensors=new_w), OptimState(m=new_m, v=new_v, t=t)


def adamw_step(
    ckpt: Checkpoint, state: OptimState, grads: GradientSet, eta_t: float, cfg: OptimConfig
) -> Tuple[Checkpoint, OptimState]:
    df = cfg.weight_decay if cfg.decoupled_wd else eta_t * cfg.weight_decay
    return _adam_core(ckpt, state, grads, eta_t, cfg, df)


def adamc_step(
    ckpt: Checkpoint, state: OptimState, grads: GradientSet, eta_t: float, cfg: OptimConfig
) -> Tuple[Checkpoint, OptimState]:
    """AdamW with the decay term scaled by eta_t/peak_lr (decay ~ eta_t^2)."""
    df = eta_t * cfg.weight_decay * (eta_t / cfg.peak_lr)
    return _adam_core(ckpt, state, grads, eta_t, cfg, df)


STEP_FNS = {"adamw": adamw_step, "adamc": adamc_step}


@dataclass
class TrainEvent:
    step: int
    ckpt: Checkpoint
    opt_state: OptimState
    cursor: int
    lr: float
    train_loss: float
    grad_norm: float


@dataclass
class TrainHook:
    every: int
    fn: Callable[[TrainEvent], None]
    at_steps: Sequence[int] = ()

    def due(self, step: int) -> bool:
        return (self.every > 0 and step % self.every == 0) or step in self.at_steps


def train_loop(
    ckpt: Checkpoint,
    opt_state: OptimState,
    stream: TokenStream,
    cursor: int,
    spec: ScheduleSpec,
    cfg: OptimConfig,
    batch_size: int,
    seq_len: int,
    steps: int,
    hooks: Sequence[TrainHook] = (),
) -> Tuple[Checkpoint, OptimState, int]:
    """Run `steps` optimizer steps; deterministic in (weights, state, cursor).

    Step s uses the schedule value at s (1-based), so a WSD run touches
    eta(1)..eta(total) and ends exactly at zero. Hooks observe the state
    after each step. Resuming from a saved (checkpoint, state, cursor)
    triple reproduces the unbroken trajectory bitwise because the loop
    draws no randomness.
    """
    step_fn = STEP_FNS[cfg.variant]
    for _ in range(steps):
        step_next = ckpt.step + 1
        if step_next > spec.total_steps:
            raise ContractViolation(
                f"step {step_next} exceeds schedule total {spec.total_steps}"
            )
        batch, cursor = next_batch(stream, batch_size, seq_len, cursor)
        train_loss, grads = loss_and_grads(ckpt, batch)
        grads, gnorm = clip_grad_norm(grads, cfg.clip_norm)
        eta = schedule_value(spec, cfg.peak_lr, step_next)
        ckpt, opt_state = step_fn(ckpt, opt_state, grads, eta, cfg)
        ckpt = replace(
            ckpt, step=step_next, tokens_seen=ckpt.tokens_seen + batch_size * seq_len
        )
        if hooks:
            event = TrainEvent(step_next, ckpt, opt_state, cursor, eta, train_loss, gnorm)
            for hook in hooks:
                if hook.due(step_next):
                    hook.fn(event)
    return ckpt, opt_state, cursor
