"""Degradation metrics, evaluation over fixed batch sets, and the metrics CSV.

Evaluation is one pass over the batch set: `eval_ce` reduces
`model.token_nll`, whose (batch, shard) items run forward once on the
`qlab.parallel` pool, to both the cross-entropy and the argmax accuracy
of the same logits; `eval_accuracy` is its second figure alone. A
quantized model is dequantized once per pass.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from .data import Batch
from .errors import ContractViolation, MergeError
from .model import Checkpoint, token_nll
# Unused here, but perfbench's traced mode wraps forward and loss at this
# module's names, so they must stay importable from it.
from .model import forward, loss  # noqa: F401
from .quant import QuantizedModel, eval_checkpoint
from .store import atomic_write

EvalTarget = Union[Checkpoint, QuantizedModel]


def eval_ce(target: EvalTarget, batches: Sequence[Batch]) -> Tuple[float, float]:
    """(mean cross-entropy in nats, argmax accuracy) over every position of
    the batch set, from one forward pass over every position.

    A quantized model is dequantized to full precision once and run
    through the standard forward pass, as `model.token_nll`'s items. Each
    batch's cross-entropy sum is its mean times its position count, as
    `loss` gives it for the whole batch, and the sums add up in batch order,
    so both figures are bitwise the same at any thread count.
    """
    ckpt = eval_checkpoint(target) if isinstance(target, QuantizedModel) else target
    nats, hits, positions = 0.0, 0, 0
    for nll, batch_hits in token_nll(ckpt, batches):
        nats += float(np.mean(nll)) * nll.size  # plain adds: sum() compensates since 3.12
        hits += batch_hits
        positions += nll.size
    return nats / positions, hits / positions


def eval_accuracy(target: EvalTarget, batches: Sequence[Batch]) -> float:
    """Fraction of positions whose argmax logit matches the target."""
    return eval_ce(target, batches)[1]


def relative_ce_error(ce_q: float, ce_fp: float) -> float:
    """CE(quantized)/CE(full) - 1; may be negative."""
    if ce_fp <= 0:
        raise ContractViolation(f"full-precision CE must be positive, got {ce_fp}")
    return ce_q / ce_fp - 1.0


def delta_ptq(ce_q: float, ce_fp: float) -> float:
    """Plain CE difference CE(quantized) - CE(full)."""
    return ce_q - ce_fp


def relative_acc_drop(acc_fp: float, acc_q: float) -> float:
    """(Acc(full) - Acc(quantized)) / (1 - Acc(full)).

    Singular as acc_fp approaches 1; callers should guard near-perfect
    accuracies before dividing.
    """
    if not (0.0 <= acc_fp <= 1.0 and 0.0 <= acc_q <= 1.0):
        raise ContractViolation("accuracies must lie in [0, 1]")
    if acc_fp >= 1.0 - 1e-12:
        raise ContractViolation("relative accuracy drop undefined at acc_fp == 1")
    return (acc_fp - acc_q) / (1.0 - acc_fp)


# -- metric records and CSV --------------------------------------------------

CSV_HEADER = (
    "run_id,step,tokens_seen,lr,train_loss,val_ce_fp,val_ce_q3,val_ce_q4,"
    "rel_ce_err3,rel_ce_err4,delta_ptq3,delta_ptq4,acc_fp,acc_q3,acc_q4,"
    "rel_acc_drop3,rel_acc_drop4,grad_norm,weight_norm"
)
CSV_COLUMNS = CSV_HEADER.split(",")
CSV_BITS = (3, 4)  # the bit widths with quantized columns in the header
METRICS_KEY = ("run_id", "step")


@dataclass
class MetricRecord:
    run_id: str
    step: int
    tokens_seen: Optional[int] = None
    lr: Optional[float] = None
    train_loss: Optional[float] = None
    val_ce_fp: Optional[float] = None
    val_ce_q: Dict[int, float] = field(default_factory=dict)
    rel_ce_err: Dict[int, float] = field(default_factory=dict)
    delta_ptq: Dict[int, float] = field(default_factory=dict)
    acc_fp: Optional[float] = None
    acc_q: Dict[int, float] = field(default_factory=dict)
    rel_acc_drop: Dict[int, float] = field(default_factory=dict)
    grad_norm: Optional[float] = None
    weight_norm: Optional[float] = None

    def validate(self) -> None:
        for label, value in (("val_ce_fp", self.val_ce_fp), *(
            (f"val_ce_q{b}", v) for b, v in self.val_ce_q.items()
        )):
            if value is not None and (not np.isfinite(value) or value <= 0):
                raise ContractViolation(f"{label} must be finite and positive: {value}")
        for label, value in (("acc_fp", self.acc_fp), *(
            (f"acc_q{b}", v) for b, v in self.acc_q.items()
        )):
            if value is not None and not (0.0 <= value <= 1.0):
                raise ContractViolation(f"{label} must lie in [0, 1]: {value}")


def fmt_real(x: Optional[float]) -> str:
    return "" if x is None else f"{x:.9g}"


def record_to_row(rec: MetricRecord) -> Dict[str, str]:
    rec.validate()
    row = {c: "" for c in CSV_COLUMNS}
    row["run_id"] = rec.run_id
    row["step"] = str(rec.step)
    if rec.tokens_seen is not None:
        row["tokens_seen"] = str(rec.tokens_seen)
    row["lr"] = fmt_real(rec.lr)
    row["train_loss"] = fmt_real(rec.train_loss)
    row["val_ce_fp"] = fmt_real(rec.val_ce_fp)
    for b in CSV_BITS:
        row[f"val_ce_q{b}"] = fmt_real(rec.val_ce_q.get(b))
        row[f"rel_ce_err{b}"] = fmt_real(rec.rel_ce_err.get(b))
        row[f"delta_ptq{b}"] = fmt_real(rec.delta_ptq.get(b))
        row[f"acc_q{b}"] = fmt_real(rec.acc_q.get(b))
        row[f"rel_acc_drop{b}"] = fmt_real(rec.rel_acc_drop.get(b))
    row["acc_fp"] = fmt_real(rec.acc_fp)
    row["grad_norm"] = fmt_real(rec.grad_norm)
    row["weight_norm"] = fmt_real(rec.weight_norm)
    return row


class MetricsStore:
    """Keyed CSV table: one row per key, upserts must agree field-wise.

    Loading checks the header exactly; an upsert fills empty fields and
    raises MergeError (changing nothing) when a non-empty field would
    change; `save` rewrites the file atomically in first-insertion order.
    Serves metrics.csv and, with their own header and key, the run's other
    results tables.
    """

    def __init__(self, path: str, header: str = CSV_HEADER,
                 key: Sequence[str] = METRICS_KEY, load: bool = True):
        self.path = path
        self.header = header
        self.columns = header.split(",")
        self.key = tuple(key)
        self.rows: Dict[tuple, Dict[str, str]] = {}  # insertion-ordered
        if load and os.path.exists(path):
            self._load()

    def _load(self) -> None:
        with open(self.path, "r", encoding="utf-8") as f:
            lines = [ln.rstrip("\n") for ln in f if ln.strip()]
        if not lines:
            return
        if lines[0] != self.header:
            raise MergeError(f"{self.path}: unexpected header")
        for ln in lines[1:]:
            parts = ln.split(",")
            if len(parts) != len(self.columns):
                raise MergeError(f"{self.path}: malformed row {ln!r}")
            self.upsert(dict(zip(self.columns, parts)))

    def upsert(self, row: Dict[str, str]) -> None:
        unknown = set(row) - set(self.columns)
        if unknown:
            raise ContractViolation(f"{self.path}: unknown columns {sorted(unknown)}")
        key = tuple(row[c] for c in self.key)
        existing = self.rows.get(key)
        if existing is None:
            self.rows[key] = {c: row.get(c, "") for c in self.columns}
            return
        for col, new in row.items():
            old = existing[col]
            if new and old and old != new:
                raise MergeError(f"conflicting {col} for {key}: {old!r} vs {new!r}")
        existing.update((col, new) for col, new in row.items() if new)

    def save(self) -> None:
        lines = [self.header]
        lines += [",".join(row[c] for c in self.columns) for row in self.rows.values()]
        atomic_write(self.path, ("\n".join(lines) + "\n").encode("utf-8"))
