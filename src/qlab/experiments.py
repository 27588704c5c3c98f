"""The claims behind the headline experiments (acceptance criteria 9-11).

A claim judges the records of a plan's runs and gives one `Comparison`
per judged case: whether the claim holds there, and the line `qlab sweep`
prints for it. It takes the plan and a `Read`, which hands it each record
it asks for; `harness.judge` reads them back from the run directories a
sweep left, so a verdict depends on what is on disk only. The plans are
`configs/experiments/*.plan`; each names its claim with `plan.claim`. A
claim judges each of the plan's bit widths in turn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from .config import Plan
from .metrics import MetricRecord, fmt_real

# (cell, family, step) -> the record of a cell's run: family "trunk" is the
# run's own checkpoint at `step`, "branch" the final step of its cooldown
# branch from `step`, and "lawa" its LAWA average at `step`
Read = Callable[[Dict[str, object], str, int], MetricRecord]


@dataclass(frozen=True)
class Comparison:
    """One judged case: `step` is the branch or compare step, or None for
    an LR sweep, which judges a seed's whole ordering over LRs."""

    seed: int
    step: Optional[int]
    holds: bool
    line: str


def cooldown_branching(plan: Plan, read: Read) -> List[Comparison]:
    """Holds where a branch's end has lower validation CE and higher relative
    quantization error than its trunk at the branch point."""
    out: List[Comparison] = []
    for cell in plan.cells:
        seed = cell["model.init_seed"]
        for bs in plan.branch_steps:
            t, c = read(cell, "trunk", bs), read(cell, "branch", bs)
            for b in plan.bits:
                improves = c.val_ce_fp < t.val_ce_fp
                rises = c.rel_ce_err[b] > t.rel_ce_err[b]
                out.append(Comparison(
                    seed, bs, improves and rises,
                    f"seed {seed} branch {bs}: val_ce {fmt_real(t.val_ce_fp)} -> "
                    f"{fmt_real(c.val_ce_fp)} ({'improves' if improves else 'worsens'}), "
                    f"rel_err{b} {fmt_real(t.rel_ce_err[b])} -> {fmt_real(c.rel_ce_err[b])} "
                    f"({'rises' if rises else 'falls'})",
                ))
    return out


def lr_sweep(plan: Plan, read: Read) -> List[Comparison]:
    """Holds for a seed (and value of any other axis) whose final relative
    quantization error never rises from one peak LR to a larger one."""
    groups: Dict[tuple, Dict[float, MetricRecord]] = {}
    for cell in plan.cells:
        rest = tuple(sorted((k, v) for k, v in cell.items() if k != "optim.peak_lr"))
        final = read(cell, "trunk", cell["schedule.total_steps"])
        groups.setdefault(rest, {})[cell["optim.peak_lr"]] = final
    out: List[Comparison] = []
    for rest, by_lr in groups.items():
        seed = dict(rest)["model.init_seed"]
        for b in plan.bits:
            err = [(lr, by_lr[lr].rel_ce_err[b]) for lr in sorted(by_lr)]
            ordered = all(x[1] >= y[1] for x, y in zip(err, err[1:]))
            pretty = ", ".join(f"{lr:.0e}: {fmt_real(e)}" for lr, e in err)
            out.append(Comparison(
                seed, None, ordered,
                f"seed {seed}: rel_err{b} by lr {{{pretty}}} inverse-ordered={ordered}",
            ))
    return out


def lawa_vs_cooldown(plan: Plan, read: Read) -> List[Comparison]:
    """Holds where a rolling weight average's quantized validation CE is at
    most that of the cooldown branch from the same step."""
    out: List[Comparison] = []
    for cell in plan.cells:
        seed = cell["model.init_seed"]
        for step in sorted(plan.lawa_steps):
            avg, branch = read(cell, "lawa", step), read(cell, "branch", step)
            for b in plan.bits:
                lw, br = avg.val_ce_q[b], branch.val_ce_q[b]
                out.append(Comparison(
                    seed, step, lw <= br,
                    f"seed {seed} step {step}: lawa ce_q{b} {fmt_real(lw)} vs cooldown "
                    f"{fmt_real(br)} ({'lawa matches/beats' if lw <= br else 'cooldown wins'})",
                ))
    return out


# plan.claim -> (judge, what the tally of `holds` counts, (the steps it
# judges, the steps `harness.plan_steps` adds them to))
CLAIMS = {
    "cooldown": (cooldown_branching,
                 "branches show loss improving while quantization error rises",
                 ("plan.branch_steps", "plan.eval_steps")),
    "lr-sweep": (lr_sweep, "seeds inversely ordered by learning rate",
                 ("final step", "plan.eval_steps")),
    "lawa": (lawa_vs_cooldown, "comparisons favor weight averaging",
             ("plan.lawa_steps", "plan.branch_steps")),
}
