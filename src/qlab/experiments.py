"""Protocol drivers for the headline experiments.

Each driver trains whatever runs it needs under an out_root, reuses any
that already exist (run identity is the config hash; a finished run is
returned as is and a stopped one resumes), quantize-evals the relevant
checkpoints, and returns the per-seed comparisons that the qualitative
claims are judged on. `qlab experiment` and the acceptance suite both
call these.

A profile is the checkout's `configs/<profile>.cfg`. The only
per-profile constant here is the trunk length: branch points default to
its thirds, LAWA comparisons to its last two thirds, and the LR-sweep
budget to the trunk itself.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import config as cfgmod
from .errors import PartialFailure
from .harness import cmd_average, cmd_branch, cmd_quantize_eval, cmd_train, load_manifest
from .metrics import MetricRecord

log = logging.getLogger("qlab")

CONFIGS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "configs"
)

# trunk (and LR-sweep budget) length per profile: desk takes ~47 h per run
# on 2 vCPUs, tiny ~2 min
TRUNK_STEPS = {"desk": 30000, "tiny": 1200}


def base_config(corpus: str, profile: str, seed: int, **extra) -> Dict[str, object]:
    cfg = cfgmod.resolve(os.path.join(CONFIGS_DIR, f"{profile}.cfg"))
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
    branch_steps: Sequence[int], bits: int, decay_frac: float,
) -> Tuple[str, Dict[int, MetricRecord]]:
    """Train (or reuse) the constant-LR trunk, cool down a branch from each
    of `branch_steps`, and quantize-eval each branch's final step; returns
    (trunk run dir, branch step -> final-step record)."""
    cfg = base_config(corpus, profile, seed, **schedule_overrides("constant", trunk_steps))
    trunk = cmd_train(cfg, out_root, resume=True)
    finals: Dict[int, MetricRecord] = {}
    for bs in branch_steps:
        child = cmd_branch(trunk, bs, decay_frac=decay_frac, out_root=out_root, resume=True)
        final = cfgmod.schedule_spec(load_manifest(child)).total_steps
        finals[bs] = _quantize_eval(child, bits, [final])[final]
    return trunk, finals


@dataclass
class BranchComparison:
    seed: int
    branch_step: int
    trunk_ce: float
    branch_ce: float
    trunk_rel_err: float
    branch_rel_err: float

    @property
    def loss_improves(self) -> bool:
        return self.branch_ce < self.trunk_ce

    @property
    def quant_error_rises(self) -> bool:
        return self.branch_rel_err > self.trunk_rel_err


def cooldown_branching(
    corpus: str,
    out_root: str,
    profile: str = "desk",
    trunk_steps: Optional[int] = None,
    branch_steps: Optional[Sequence[int]] = None,
    seeds: Sequence[int] = (1, 2, 3),
    bits: int = 3,
    decay_frac: float = 0.1,
) -> List[BranchComparison]:
    """Constant-LR trunk with cooldown branches; compares each branch end
    against the trunk at the branch point (validation CE and relative
    quantization error at `bits`)."""
    trunk_steps = trunk_steps or TRUNK_STEPS[profile]
    branch_steps = branch_steps or _thirds(trunk_steps)
    out: List[BranchComparison] = []
    for seed in seeds:
        trunk, finals = _trunk_and_cooldowns(
            corpus, out_root, profile, seed, trunk_steps, branch_steps, bits, decay_frac,
        )
        at_branch = _quantize_eval(trunk, bits, branch_steps)
        for bs in branch_steps:
            t, c = at_branch[bs], finals[bs]
            out.append(
                BranchComparison(
                    seed, bs, t.val_ce_fp, c.val_ce_fp,
                    t.rel_ce_err[bits], c.rel_ce_err[bits],
                )
            )
            log.info(
                "seed %d branch %d: ce %.4f->%.4f, rel_err%d %.4f->%.4f",
                seed, bs, t.val_ce_fp, c.val_ce_fp, bits,
                t.rel_ce_err[bits], c.rel_ce_err[bits],
            )
    return out


def lr_sweep(
    corpus: str,
    out_root: str,
    profile: str = "desk",
    total_steps: Optional[int] = None,
    lrs: Sequence[float] = (3e-4, 1e-3, 3e-3),
    seeds: Sequence[int] = (1, 2, 3),
    bits: int = 4,
) -> Dict[int, Dict[float, float]]:
    """WSD runs at several peak LRs under one budget; returns
    seed -> {lr: final relative CE error at `bits`}."""
    total_steps = total_steps or TRUNK_STEPS[profile]
    result: Dict[int, Dict[float, float]] = {}
    for seed in seeds:
        per_lr: Dict[float, float] = {}
        for lr in lrs:
            cfg = base_config(corpus, profile, seed, **schedule_overrides("wsd", total_steps, lr))
            run = cmd_train(cfg, out_root, resume=True)
            per_lr[lr] = _quantize_eval(run, bits, [total_steps])[total_steps].rel_ce_err[bits]
            log.info("seed %d lr %.1e: rel_err%d %.4f", seed, lr, bits, per_lr[lr])
        result[seed] = per_lr
    return result


@dataclass
class LawaComparison:
    seed: int
    step: int
    lawa_ce_q: float
    branch_ce_q: float

    @property
    def lawa_matches_or_beats(self) -> bool:
        return self.lawa_ce_q <= self.branch_ce_q


def lawa_vs_cooldown(
    corpus: str,
    out_root: str,
    profile: str = "desk",
    trunk_steps: Optional[int] = None,
    compare_steps: Optional[Sequence[int]] = None,
    seeds: Sequence[int] = (1, 2, 3),
    bits: int = 3,
    k: int = 5,
    interval: Optional[int] = None,
    decay_frac: float = 0.1,
) -> List[LawaComparison]:
    """Rolling weight averages on a constant-LR trunk vs cooldown branches:
    compares quantized validation CE at matched steps. The averaging
    interval defaults to the profile's `lawa.interval`."""
    trunk_steps = trunk_steps or TRUNK_STEPS[profile]
    compare_steps = compare_steps or _thirds(trunk_steps)[1:]
    out: List[LawaComparison] = []
    for seed in seeds:
        trunk, finals = _trunk_and_cooldowns(
            corpus, out_root, profile, seed, trunk_steps, compare_steps, bits, decay_frac,
        )
        cmd_average(trunk, k=k, interval=interval)
        lawa = _quantize_eval(trunk, bits, compare_steps, kind=f"lawa{k}")
        for step in compare_steps:
            lw, br = lawa[step], finals[step]
            out.append(LawaComparison(seed, step, lw.val_ce_q[bits], br.val_ce_q[bits]))
            log.info(
                "seed %d step %d: lawa ce_q%d %.4f vs cooldown %.4f",
                seed, step, bits, lw.val_ce_q[bits], br.val_ce_q[bits],
            )
    return out
