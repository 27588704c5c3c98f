"""Flat `section.key = value` settings files with a closed key registry.

The one reader and writer of settings files: configs and profiles, run
manifests and sweep plans. Unknown keys are errors so manifests cannot
drift. Values are typed by the registry; `#` starts a comment. The
resolved mapping serializes canonically (sorted keys) and its hash is
the run identity. A plan's sweep.* axes and plan.* keys shape a set of
runs and never enter a run's settings.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import store
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
    raise ValueError(f"expected a boolean, got {s!r}")


def parse_int_list(s: str) -> Tuple[int, ...]:
    return tuple(int(p.strip()) for p in s.split(",") if p.strip())


_PARSERS = {
    "int": int,
    "float": float,
    "bool": _parse_bool,
    "str": lambda s: s.strip(),
    "int_list": parse_int_list,
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

# manifest-only keys, not hashed into run ids (run.created, run.code_version: old manifests only)
RUN_KEYS = {
    "run.id", "run.parent_id", "run.branch_step", "run.created",
    "run.code_version", "run.eval_set_hash", "run.calib_set_hash",
}

# plan-file-only keys -> type (see `Plan`); none has a default in REGISTRY
PLAN_KEYS = {
    "plan.base": "str", "plan.branch_steps": "int_list", "plan.eval_steps": "int_list",
    "plan.lawa_steps": "int_list", "plan.bits": "int_list", "plan.claim": "str",
}

SWEEP_PREFIX = "sweep."
PLAN_PREFIX = "plan."
MANIFEST = "manifest.cfg"


def defaults() -> Dict[str, object]:
    """Every registry key at its default value."""
    return {k: d for k, (_, d) in REGISTRY.items()}


def parse_value(key: str, raw: str) -> object:
    """The typed value of `key` from its text; ConfigError if either is bad.

    A sweep axis `sweep.<key>` takes a comma-separated list of `<key>`
    values, and `sweep.seeds` a list of seeds.
    """
    if key.startswith(SWEEP_PREFIX):
        axis = "data.seed" if key == SWEEP_PREFIX + "seeds" else key[len(SWEEP_PREFIX) :]
        if REGISTRY.get(axis, ("int_list",))[0] == "int_list":
            raise ConfigError(f"cannot sweep {axis!r}: not a single-valued config key")
        return [parse_value(axis, p) for p in raw.split(",") if p.strip()]
    typ = PLAN_KEYS.get(key) or REGISTRY.get(key, (None,))[0]
    if typ is None:
        raise ConfigError(f"unknown config key {key!r}")
    try:
        return _PARSERS[typ](raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from exc


def parse_config_text(
    text: str, allow_run_keys: bool = False, allow_plan_keys: bool = False
) -> Dict[str, object]:
    """Parse settings text into typed values; unknown keys are errors.

    run.* keys (kept as text) belong to manifests, sweep.* and plan.* keys
    to plans.
    """
    out: Dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: malformed config line: {line!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key in RUN_KEYS and not allow_run_keys:
            raise ConfigError(f"line {lineno}: run.* keys are manifest-only ({key})")
        if key.startswith((SWEEP_PREFIX, PLAN_PREFIX)) and not allow_plan_keys:
            raise ConfigError(f"line {lineno}: sweep.* and plan.* keys belong in plan files ({key})")
        try:
            out[key] = raw if key in RUN_KEYS else parse_value(key, raw)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc
    return out


def _read(path: str, allow_plan_keys: bool = False) -> Dict[str, object]:
    """The settings in the file at `path`; a run manifest keeps its run.* keys."""
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as f:
        return parse_config_text(f.read(), os.path.basename(path) == MANIFEST, allow_plan_keys)


def resolve(path: str = "", overrides: Optional[List[str]] = None) -> Dict[str, object]:
    """Defaults, then the settings file at `path` (a config, a profile or a
    run manifest), then --set overrides."""
    cfg = defaults()
    if path:
        cfg.update(_read(path))
    return apply_overrides(cfg, overrides)


def apply_overrides(
    cfg: Dict[str, object], overrides: Optional[List[str]], allow_plan_keys: bool = False
) -> Dict[str, object]:
    """Apply --set section.key=value items to `cfg` in place; returns it."""
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        cfg.update(parse_config_text(item, allow_plan_keys=allow_plan_keys))
    return cfg


def load_manifest(run_dir: str) -> Dict[str, object]:
    """A run's settings and run.* keys, from its manifest."""
    return resolve(os.path.join(run_dir, MANIFEST))


def write_manifest(run_dir: str, cfg: Dict[str, object], run_keys: Dict[str, str]) -> None:
    """The run's manifest: the settings of `cfg` (not any run.* keys it was
    read with) plus `run_keys`, written atomically."""
    merged = {k: v for k, v in cfg.items() if k not in RUN_KEYS}
    merged.update(run_keys)
    text = canonical_text(merged, include_run=True)
    store.atomic_write(os.path.join(run_dir, MANIFEST), text.encode("utf-8"))


@dataclass(frozen=True)
class Plan:
    """A set of runs: every cell (full settings, in run order) is trained,
    its run quantize-evaluated at `eval_steps` (None: its final step),
    cooled down from each of `branch_steps` (each branch evaluated at its
    final step), and LAWA-averaged with its lawa.k and lawa.interval,
    that family evaluated at `lawa_steps`; all at `bits`, and each with
    the steps `claim` judges added (`harness.plan_steps`; "" for none)."""

    axes: List[str]
    cells: List[Dict[str, object]]
    bits: Tuple[int, ...]
    eval_steps: Optional[Tuple[int, ...]] = None
    branch_steps: Tuple[int, ...] = ()
    lawa_steps: Tuple[int, ...] = ()
    claim: str = ""


def load_plan(path: str, overrides: Optional[List[str]] = None) -> Plan:
    """A sweep plan, then --set `overrides` (settings, sweep.* and plan.* keys).

    Its settings apply over `plan.base` (a profile, relative to the plan's
    directory), which applies over the defaults. The cells are every
    combination of the `sweep.<key> = v1, v2, ...` axes over those
    settings (the last axis varies fastest; an axis wins over a setting of
    its key), repeated for each of `sweep.seeds` (default 0); a seed sets
    both data.seed and model.init_seed. An empty axis, or one value twice in
    an axis, plan.bits (default quant.bits) or a step list, is a ConfigError.
    """
    given = apply_overrides(_read(path, allow_plan_keys=True), overrides, allow_plan_keys=True)
    base = defaults()
    if given.get("plan.base"):
        base.update(_read(os.path.join(os.path.dirname(os.path.abspath(path)), given["plan.base"])))
    axes: Dict[str, List[object]] = {}
    for key, value in given.items():
        if key.startswith(SWEEP_PREFIX):
            if not value:
                raise ConfigError(f"{key} names no value")
            axes[key[len(SWEEP_PREFIX) :]] = _named_once(key, value)
        elif not key.startswith(PLAN_PREFIX):
            base[key] = value
        elif isinstance(value, tuple):  # plan.bits or a step list
            _named_once(key, value)
    seeds = axes.pop("seeds", [0])
    cells = [base]
    for key, values in axes.items():
        cells = [dict(c, **{key: v}) for c in cells for v in values]
    return Plan(
        list(axes),
        [dict(c, **{"data.seed": s, "model.init_seed": s}) for s in seeds for c in cells],
        bits=given.get("plan.bits") or _named_once("quant.bits", base["quant.bits"]),
        eval_steps=given.get("plan.eval_steps"),
        branch_steps=given.get("plan.branch_steps", ()),
        lawa_steps=given.get("plan.lawa_steps", ()),
        claim=given.get("plan.claim", ""),
    )


def _named_once(key: str, values: Sequence[object]) -> Sequence[object]:
    """`values`, refused if they name one twice: a plan runs and judges each once."""
    twice = [format_value(v) for i, v in enumerate(values) if v in values[:i]]
    if twice:
        raise ConfigError(f"{key} names {twice[0]} twice")
    return values


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


def run_id_of(cfg: Dict[str, object]) -> str:
    """Run identity: hash of resolved config plus lineage (run.parent_id, run.branch_step)."""
    text = canonical_text(cfg)
    if cfg.get("run.parent_id"):
        text += f"parent = {cfg['run.parent_id']}@{cfg['run.branch_step']}\n"
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
    if not cfg["optim.eps"] > 0:  # a run's eps; OptimConfig takes 0 for closed forms
        raise ConfigError(f"optim.eps must be positive, got {cfg['optim.eps']}")
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


def quant_config(cfg: Dict[str, object], bits: int) -> QuantConfig:
    return QuantConfig(
        bits=bits,
        group_size=cfg["quant.group_size"],
        damping_frac=cfg["quant.damping_frac"],
        propagate_quantized=cfg["quant.propagate"],
        method=cfg["quant.method"],
        static_groups=cfg["quant.static_groups"],
    )
