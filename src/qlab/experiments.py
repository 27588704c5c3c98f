"""The claims behind the headline experiments (acceptance criteria 9-11).

A claim judges the records a sweep returns (`harness.SweepCell`, one per
cell of a plan) and gives one `Comparison` per judged case: whether the
claim holds there, and the line `qlab sweep` prints for it. The plans
that produce those records are `configs/experiments/*.plan`; each names
its claim with `plan.claim`. A claim judges each of the plan's bit
widths in turn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence


@dataclass(frozen=True)
class Comparison:
    """One judged case: `step` is the branch or compare step, or None for
    an LR sweep, which judges a seed's whole ordering over LRs."""

    seed: int
    step: Optional[int]
    holds: bool
    line: str


def cooldown_branching(cells: Sequence, bits: Sequence[int]) -> List[Comparison]:
    """Holds where a branch's end has lower validation CE and higher relative
    quantization error than its trunk at the branch point."""
    out: List[Comparison] = []
    for cell in cells:
        seed = cell.settings["model.init_seed"]
        for bs, c in cell.branches.items():
            t = cell.trunk[bs]
            for b in bits:
                improves = c.val_ce_fp < t.val_ce_fp
                rises = c.rel_ce_err[b] > t.rel_ce_err[b]
                out.append(Comparison(
                    seed, bs, improves and rises,
                    f"seed {seed} branch {bs}: val_ce {t.val_ce_fp:.4f} -> {c.val_ce_fp:.4f} "
                    f"({'improves' if improves else 'worsens'}), "
                    f"rel_err{b} {t.rel_ce_err[b]:.4f} -> {c.rel_ce_err[b]:.4f} "
                    f"({'rises' if rises else 'falls'})",
                ))
    return out


def lr_sweep(cells: Sequence, bits: Sequence[int]) -> List[Comparison]:
    """Holds for a seed (and value of any other axis) whose final relative
    quantization error never rises from one peak LR to a larger one."""
    groups: Dict[tuple, Dict[float, object]] = {}
    for cell in cells:
        s = cell.settings
        rest = tuple(sorted((k, v) for k, v in s.items() if k != "optim.peak_lr"))
        groups.setdefault(rest, {})[s["optim.peak_lr"]] = cell.trunk[s["schedule.total_steps"]]
    out: List[Comparison] = []
    for rest, by_lr in groups.items():
        seed = dict(rest)["model.init_seed"]
        for b in bits:
            err = [(lr, by_lr[lr].rel_ce_err[b]) for lr in sorted(by_lr)]
            ordered = all(x[1] >= y[1] for x, y in zip(err, err[1:]))
            pretty = ", ".join(f"{lr:.0e}: {e:.4f}" for lr, e in err)
            out.append(Comparison(
                seed, None, ordered,
                f"seed {seed}: rel_err{b} by lr {{{pretty}}} inverse-ordered={ordered}",
            ))
    return out


def lawa_vs_cooldown(cells: Sequence, bits: Sequence[int]) -> List[Comparison]:
    """Holds where a rolling weight average's quantized validation CE is at
    most that of the cooldown branch ending at the same step."""
    out: List[Comparison] = []
    for cell in cells:
        seed = cell.settings["model.init_seed"]
        for step, avg in cell.lawa.items():
            for b in bits:
                lw, br = avg.val_ce_q[b], cell.branches[step].val_ce_q[b]
                out.append(Comparison(
                    seed, step, lw <= br,
                    f"seed {seed} step {step}: lawa ce_q{b} {lw:.4f} vs cooldown {br:.4f} "
                    f"({'lawa matches/beats' if lw <= br else 'cooldown wins'})",
                ))
    return out


# plan.claim -> (judge, what the tally of `holds` counts, (the steps it
# judges, the plan steps that must include them))
CLAIMS = {
    "cooldown": (cooldown_branching,
                 "branches show loss improving while quantization error rises",
                 ("plan.branch_steps", "plan.eval_steps")),
    "lr-sweep": (lr_sweep, "seeds inversely ordered by learning rate",
                 ("final step", "plan.eval_steps")),
    "lawa": (lawa_vs_cooldown, "comparisons favor weight averaging",
             ("plan.lawa_steps", "plan.branch_steps")),
}
