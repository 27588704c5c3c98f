"""Flat `section.key = value` configuration with a closed key registry.

Unknown keys are errors so manifests cannot drift. Values are typed by
the registry; `#` starts a comment. The resolved mapping serializes
canonically (sorted keys) and its hash is the run identity.
"""

from __future__ import annotations

import hashlib
import os
from typing import Dict, List, Optional, Tuple

from .errors import ConfigError
from .model import ModelConfig
from .optim import OptimConfig, ScheduleSpec
from .quant import QuantConfig


def _parse_bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("true", "1", "yes", "on"):
        return True
    if v in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {s!r}")


def _parse_int_list(s: str) -> Tuple[int, ...]:
    return tuple(int(p.strip()) for p in s.split(",") if p.strip())


_PARSERS = {
    "int": int,
    "float": float,
    "bool": _parse_bool,
    "str": lambda s: s.strip(),
    "int_list": _parse_int_list,
}

# key -> (type, default)
REGISTRY: Dict[str, Tuple[str, object]] = {
    "data.path": ("str", ""),
    "data.limit_bytes": ("int", 0),
    "data.val_fraction": ("float", 0.1),
    "data.calib_fraction": ("float", 0.05),
    "data.seq_len": ("int", 256),
    "data.seed": ("int", 0),
    "model.vocab": ("int", 256),
    "model.d_model": ("int", 192),
    "model.n_layers": ("int", 6),
    "model.n_heads": ("int", 6),
    "model.d_ff": ("int", 768),
    "model.init_seed": ("int", 1),
    "model.init_std": ("float", 0.02),
    "optim.variant": ("str", "adamw"),
    "optim.peak_lr": ("float", 3e-3),
    "optim.beta1": ("float", 0.9),
    "optim.beta2": ("float", 0.95),
    "optim.eps": ("float", 1e-8),
    "optim.weight_decay": ("float", 0.1),
    "optim.clip_norm": ("float", 1.0),
    "optim.decoupled_wd": ("bool", False),
    "schedule.kind": ("str", "wsd"),
    "schedule.total_steps": ("int", 30000),
    "schedule.warmup_frac": ("float", 0.01),
    "schedule.decay_frac": ("float", 0.10),
    "schedule.min_lr": ("float", 0.0),
    "train.batch_size": ("int", 64),
    "train.ckpt_interval": ("int", 500),
    "train.eval_interval": ("int", 500),
    "train.log_interval": ("int", 50),
    "eval.batches": ("int", 64),
    "eval.batch_size": ("int", 16),
    "quant.bits": ("int_list", (3, 4)),
    "quant.method": ("str", "gptq"),
    "quant.group_size": ("int", 128),
    "quant.damping_frac": ("float", 0.01),
    "quant.propagate": ("bool", True),
    "quant.calib_samples": ("int", 128),
    "quant.static_groups": ("bool", False),
    "lawa.k": ("int", 5),
    "lawa.interval": ("int", 500),
}

# manifest-only keys, excluded from the run-id hash unless noted
RUN_KEYS = {
    "run.id", "run.parent_id", "run.branch_step", "run.created",
    "run.code_version", "run.eval_set_hash", "run.calib_set_hash",
}

SWEEP_PREFIX = "sweep."


def parse_line(line: str) -> Optional[Tuple[str, str]]:
    text = line.split("#", 1)[0].strip()
    if not text:
        return None
    if "=" not in text:
        raise ConfigError(f"malformed config line: {line!r}")
    key, value = text.split("=", 1)
    return key.strip(), value.strip()


def parse_config_text(
    text: str, allow_run_keys: bool = False, allow_sweep_keys: bool = False
) -> Dict[str, object]:
    """Parse config text into typed values; unknown keys are errors."""
    out: Dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        parsed = parse_line(line)
        if parsed is None:
            continue
        key, raw = parsed
        if key in RUN_KEYS:
            if not allow_run_keys:
                raise ConfigError(f"line {lineno}: run.* keys are manifest-only ({key})")
            out[key] = raw
            continue
        if key.startswith(SWEEP_PREFIX):
            if not allow_sweep_keys:
                raise ConfigError(f"line {lineno}: sweep.* keys belong in plan files ({key})")
            out[key] = raw
            continue
        if key not in REGISTRY:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        typ, _ = REGISTRY[key]
        try:
            out[key] = _PARSERS[typ](raw)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
    return out


def resolve(path: str = "", overrides: Optional[List[str]] = None) -> Dict[str, object]:
    """Defaults, then the config file at `path`, then --set overrides."""
    cfg: Dict[str, object] = {k: d for k, (_, d) in REGISTRY.items()}
    if path:
        if not os.path.isfile(path):
            raise ConfigError(f"config file not found: {path}")
        with open(path, "r", encoding="utf-8") as f:
            cfg.update(parse_config_text(f.read()))
    return apply_overrides(cfg, overrides)


def apply_overrides(cfg: Dict[str, object], overrides: Optional[List[str]]) -> Dict[str, object]:
    """Apply --set section.key=value items to `cfg` in place; returns it."""
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        cfg.update(parse_config_text(item))
    return cfg


def format_value(v: object) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return ",".join(str(x) for x in v)
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def canonical_text(cfg: Dict[str, object], include_run: bool = False) -> str:
    lines = []
    for key in sorted(cfg):
        if key in RUN_KEYS and not include_run:
            continue
        lines.append(f"{key} = {format_value(cfg[key])}")
    return "\n".join(lines) + "\n"


def run_id_of(cfg: Dict[str, object], parent: Optional[Tuple[str, int]] = None) -> str:
    """Deterministic run identity: hash of resolved config plus lineage."""
    text = canonical_text(cfg)
    if parent:
        text += f"parent = {parent[0]}@{parent[1]}\n"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- dataclass views ----------------------------------------------------------


def model_config(cfg: Dict[str, object]) -> ModelConfig:
    return ModelConfig(
        vocab=cfg["model.vocab"],
        d_model=cfg["model.d_model"],
        n_layers=cfg["model.n_layers"],
        n_heads=cfg["model.n_heads"],
        d_ff=cfg["model.d_ff"],
        seq_len=cfg["data.seq_len"],
        init_seed=cfg["model.init_seed"],
        init_std=cfg["model.init_std"],
    )


def optim_config(cfg: Dict[str, object]) -> OptimConfig:
    return OptimConfig(
        peak_lr=cfg["optim.peak_lr"],
        beta1=cfg["optim.beta1"],
        beta2=cfg["optim.beta2"],
        eps=cfg["optim.eps"],
        weight_decay=cfg["optim.weight_decay"],
        clip_norm=cfg["optim.clip_norm"],
        variant=cfg["optim.variant"],
        decoupled_wd=cfg["optim.decoupled_wd"],
    )


def schedule_spec(cfg: Dict[str, object]) -> ScheduleSpec:
    total = cfg["schedule.total_steps"]
    warmup = int(round(total * cfg["schedule.warmup_frac"]))
    kind = cfg["schedule.kind"]
    decay = int(round(total * cfg["schedule.decay_frac"])) if kind == "wsd" else 0
    return ScheduleSpec(
        kind=kind, total_steps=total, warmup_steps=warmup,
        decay_steps=decay, min_lr=cfg["schedule.min_lr"],
    )


def quant_config(cfg: Dict[str, object], bits: int, method: Optional[str] = None) -> QuantConfig:
    return QuantConfig(
        bits=bits,
        group_size=cfg["quant.group_size"],
        damping_frac=cfg["quant.damping_frac"],
        propagate_quantized=cfg["quant.propagate"],
        method=method or cfg["quant.method"],
        static_groups=cfg["quant.static_groups"],
    )
