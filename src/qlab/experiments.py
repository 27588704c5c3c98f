"""Protocol drivers for the headline experiments.

Each driver trains whatever runs it needs under an out_root, reuses any
that already exist (run identity is the config hash; a finished run is
returned as is and a stopped one resumes), quantize-evals the relevant
checkpoints, and returns one `Comparison` per judged case: whether the
protocol's claim holds there, and the line `qlab experiment` prints for
it. `qlab experiment` and the acceptance suite both call these.

A profile is the checkout's `configs/<profile>.cfg`. The only
per-profile constant here is the trunk length: branch points default to
its thirds, LAWA comparisons to its last two thirds, and the LR-sweep
budget to the trunk itself.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import config as cfgmod
from .errors import ConfigError, PartialFailure
from .harness import ckpt_hook, cmd_average, cmd_branch, cmd_quantize_eval, cmd_train
from .metrics import MetricRecord

CONFIGS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "configs"
)

# trunk (and LR-sweep budget) length per profile: desk takes ~28 h per run
# on 2 vCPUs, tiny ~2 min
TRUNK_STEPS = {"desk": 30000, "tiny": 1200}


@dataclass(frozen=True)
class Comparison:
    """One judged case: `step` is the branch or compare step, or None for
    an LR sweep, which judges a seed's whole ordering over LRs."""

    seed: int
    step: Optional[int]
    holds: bool
    line: str


def profile_config(profile: str) -> Dict[str, object]:
    return cfgmod.resolve(os.path.join(CONFIGS_DIR, f"{profile}.cfg"))


def base_config(corpus: str, profile: str, seed: int, **extra) -> Dict[str, object]:
    cfg = profile_config(profile)
    cfg["data.path"] = corpus
    cfg["data.seed"] = seed
    cfg["model.init_seed"] = seed
    cfg.update(extra)
    return cfg


def schedule_overrides(
    kind: str, total_steps: int, peak_lr: Optional[float] = None
) -> Dict[str, object]:
    """A constant-LR trunk or a WSD run with a 10% cooldown, 1% warm-up, at
    `peak_lr` or else the profile's optim.peak_lr."""
    out: Dict[str, object] = {
        "schedule.kind": kind,
        "schedule.total_steps": total_steps,
        "schedule.warmup_frac": 0.01,
        "schedule.decay_frac": 0.1 if kind == "wsd" else 0.0,
    }
    if peak_lr is not None:
        out["optim.peak_lr"] = peak_lr
    return out


def _thirds(trunk_steps: int) -> List[int]:
    return [trunk_steps * i // 3 for i in (1, 2, 3)]


def _quantize_eval(run_dir: str, bits: int, steps: Sequence[int],
                   kind: str = "ckpt") -> Dict[int, MetricRecord]:
    recs, fails = cmd_quantize_eval(run_dir, bits=(bits,), steps=list(steps), kind=kind)
    if fails:
        raise PartialFailure(f"{kind} quantize-eval failures in {run_dir}: {fails}")
    return {r.step: r for r in recs}


def _trunk_and_cooldowns(
    corpus: str, out_root: str, profile: str, seed: int, trunk_steps: int,
    branch_steps: Sequence[int], bits: int,
) -> Tuple[str, Dict[int, MetricRecord]]:
    """Train (or reuse) the constant-LR trunk, cool down a branch from each
    of `branch_steps`, and quantize-eval each branch's final step; returns
    (trunk run dir, branch step -> final-step record). Steps the trunk
    does not checkpoint are refused before it trains."""
    cfg = base_config(corpus, profile, seed, **schedule_overrides("constant", trunk_steps))
    saved = ckpt_hook(cfg, trunk_steps).due
    unsaved = [s for s in branch_steps if not (0 <= s <= trunk_steps and saved(s))]
    if unsaved:
        raise ConfigError(f"the {trunk_steps}-step trunk saves no checkpoint at steps {unsaved}")
    trunk = cmd_train(cfg, out_root, resume=True)
    finals: Dict[int, MetricRecord] = {}
    for bs in branch_steps:
        child = cmd_branch(trunk, bs, out_root=out_root, resume=True)
        final = cfgmod.schedule_spec(cfgmod.load_manifest(child)).total_steps
        finals[bs] = _quantize_eval(child, bits, [final])[final]
    return trunk, finals


def cooldown_branching(
    corpus: str,
    out_root: str,
    profile: str = "desk",
    trunk_steps: Optional[int] = None,
    branch_steps: Optional[Sequence[int]] = None,
    seeds: Sequence[int] = (1, 2, 3),
    bits: int = 3,
) -> List[Comparison]:
    """Constant-LR trunk with cooldown branches. Holds where a branch's end
    has lower validation CE and higher relative quantization error at
    `bits` than the trunk at the branch point."""
    trunk_steps = trunk_steps or TRUNK_STEPS[profile]
    branch_steps = branch_steps or _thirds(trunk_steps)
    out: List[Comparison] = []
    for seed in seeds:
        trunk, finals = _trunk_and_cooldowns(
            corpus, out_root, profile, seed, trunk_steps, branch_steps, bits,
        )
        at_branch = _quantize_eval(trunk, bits, branch_steps)
        for bs in branch_steps:
            t, c = at_branch[bs], finals[bs]
            improves = c.val_ce_fp < t.val_ce_fp
            rises = c.rel_ce_err[bits] > t.rel_ce_err[bits]
            out.append(Comparison(
                seed, bs, improves and rises,
                f"seed {seed} branch {bs}: val_ce {t.val_ce_fp:.4f} -> {c.val_ce_fp:.4f} "
                f"({'improves' if improves else 'worsens'}), "
                f"rel_err{bits} {t.rel_ce_err[bits]:.4f} -> {c.rel_ce_err[bits]:.4f} "
                f"({'rises' if rises else 'falls'})",
            ))
    return out


def lr_sweep(
    corpus: str,
    out_root: str,
    profile: str = "desk",
    total_steps: Optional[int] = None,
    lrs: Sequence[float] = (3e-4, 1e-3, 3e-3),
    seeds: Sequence[int] = (1, 2, 3),
    bits: int = 4,
) -> List[Comparison]:
    """WSD runs at several peak LRs under one budget. Holds for a seed whose
    final relative CE error at `bits` never rises from one LR to a larger
    one."""
    total_steps = total_steps or TRUNK_STEPS[profile]
    out: List[Comparison] = []
    for seed in seeds:
        err: Dict[float, float] = {}
        for lr in lrs:
            cfg = base_config(corpus, profile, seed, **schedule_overrides("wsd", total_steps, lr))
            run = cmd_train(cfg, out_root, resume=True)
            err[lr] = _quantize_eval(run, bits, [total_steps])[total_steps].rel_ce_err[bits]
        by_lr = [(lr, err[lr]) for lr in sorted(lrs)]
        ordered = all(a[1] >= b[1] for a, b in zip(by_lr, by_lr[1:]))
        pretty = ", ".join(f"{lr:.0e}: {e:.4f}" for lr, e in by_lr)
        out.append(Comparison(
            seed, None, ordered,
            f"seed {seed}: rel_err{bits} by lr {{{pretty}}} inverse-ordered={ordered}",
        ))
    return out


def lawa_vs_cooldown(
    corpus: str,
    out_root: str,
    profile: str = "desk",
    trunk_steps: Optional[int] = None,
    compare_steps: Optional[Sequence[int]] = None,
    seeds: Sequence[int] = (1, 2, 3),
    bits: int = 3,
    k: Optional[int] = None,
) -> List[Comparison]:
    """Rolling weight averages over the last `k` (default the profile's
    lawa.k) checkpoints at the profile's lawa.interval on a constant-LR
    trunk, against cooldown branches. Holds where the average's quantized
    validation CE at `bits` is at most the cooldown's at the same step."""
    trunk_steps = trunk_steps or TRUNK_STEPS[profile]
    compare_steps = compare_steps or _thirds(trunk_steps)[1:]
    prof = profile_config(profile)
    k = prof["lawa.k"] if k is None else k
    off = [s for s in compare_steps if s <= 0 or s % prof["lawa.interval"]]
    if off:
        raise ConfigError(f"compare steps {off} are not positive multiples of lawa.interval")
    out: List[Comparison] = []
    for seed in seeds:
        trunk, finals = _trunk_and_cooldowns(
            corpus, out_root, profile, seed, trunk_steps, compare_steps, bits,
        )
        cmd_average(trunk, k=k)
        averaged = _quantize_eval(trunk, bits, compare_steps, kind=f"lawa{k}")
        for step in compare_steps:
            lw, br = averaged[step].val_ce_q[bits], finals[step].val_ce_q[bits]
            out.append(Comparison(
                seed, step, lw <= br,
                f"seed {seed} step {step}: lawa ce_q{bits} {lw:.4f} vs cooldown {br:.4f} "
                f"({'lawa matches/beats' if lw <= br else 'cooldown wins'})",
            ))
    return out


# `qlab experiment` subcommand -> (driver, what the tally of `holds` counts)
PROTOCOLS = {
    "cooldown": (cooldown_branching, "branches show loss improving while quantization error rises"),
    "lr-sweep": (lr_sweep, "seeds inversely ordered by learning rate"),
    "lawa": (lawa_vs_cooldown, "comparisons favor weight averaging"),
}
