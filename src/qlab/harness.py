"""Experiment orchestration: run directories, branching, sweeps, eval jobs.

`cmd_sweep` is the one engine for a set of runs: it trains each cell of
a plan, branches, averages and quantize-evaluates it as the plan says.
`judge` then judges the plan's claim over records read back from the run
directories (`records`), so a verdict depends on what is on disk only.

A run directory is a pure function of (corpus bytes, manifest): the
manifest records no time, `build_data` refuses a corpus or config that
changes a run's recorded eval or calibration set, checkpoints are
immutable and checksummed, and results live in keyed CSV tables written
through `metrics.MetricsStore`: every eval result, per-layer stats
included, in qeval.csv by what it is computed from (`metrics.qeval_key`),
metrics.csv by (run_id, step), whose quantized columns show the manifest
method's 3- and 4-bit results, and the high-frequency norms.csv by step.
A rerun resumes and re-emits identical rows, which merge; a row that
differs raises MergeError. A quantize-eval computes only the results
qeval.csv lacks, and reads every record back from it. A cooldown branch
is a run whose settings carry lineage (`branch_config`): `cmd_train`
starts it from its parent's checkpoint, optimizer state and data cursor,
read from the same out-root, so a branch plus its trunk prefix is
step-for-step identical to the equivalent single WSD run.
"""

from __future__ import annotations

import logging
import os
import shutil
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import config as cfgmod
from .config import MANIFEST, load_manifest, write_manifest  # noqa: F401 (MANIFEST: re-exported)
from .averaging import AveragingWindow, lawa_push, soup
from .data import (
    Batch,
    build_calibration,
    fixed_eval_batches,
    load_corpus,
    split,
    token_fingerprint,
)
from .errors import ConfigError, PartialFailure, QlabError
from .experiments import CLAIMS, Comparison
from .metrics import (
    MetricRecord,
    MetricsStore,
    QevalTable,
    eval_accuracy,  # unused: bound here, where perfbench traces it by name
    eval_ce,
    fmt_real,
    qeval_key,
    record_to_row,
)
from .model import Checkpoint, init, load_checkpoint, read_checkpoint, save_checkpoint
from .ndkernel import frobenius_norm
from .optim import (
    OptimState,
    ScheduleSpec,
    TrainEvent,
    TrainHook,
    init_opt_state,
    schedule_value,
    train_loop,
)
from . import parallel
from .parallel import qlab_threads
from .quant import quantize_model
from . import store

log = logging.getLogger("qlab")

METRICS = "metrics.csv"
NORMS = "norms.csv"
NORMS_HEADER = "step,lr,train_loss,grad_norm,weight_norm"
QEVAL = "qeval.csv"
# metrics.csv columns a sweep's summary.csv repeats for each cell's final step
SUMMARY_METRICS = ("val_ce_fp", "acc_fp", "rel_ce_err3", "rel_ce_err4", "delta_ptq3", "delta_ptq4")
_OPT_META = "__opt_meta__"


# -- optimizer state files -----------------------------------------------------


def save_opt_state(path: str, state: OptimState, cursor: int) -> None:
    arrays = {_OPT_META: np.array([[state.t, cursor]], dtype=np.float64)}
    for prefix, tensors in (("m", state.m), ("v", state.v)):
        for name in sorted(tensors):
            arrays[f"{prefix}.{name}"] = np.asarray(tensors[name], np.float32)
    store.save_arrays(path, arrays)


def load_opt_state(path: str) -> Tuple[OptimState, int]:
    arrays = store.load_arrays(path)
    if _OPT_META not in arrays:
        raise ConfigError(f"{path}: missing optimizer metadata tensor")
    t, cursor = arrays.pop(_OPT_META)[0]
    m = {name[2:]: a for name, a in arrays.items() if name.startswith("m.")}
    v = {name[2:]: a for name, a in arrays.items() if name.startswith("v.")}
    return OptimState(m=m, v=v, t=int(t)), int(cursor)


# -- run directory helpers ------------------------------------------------------


def ckpt_path(run_dir: str, step: int, kind: str = "ckpt") -> str:
    return os.path.join(run_dir, f"{kind}_{step}.qlab")


def opt_path(run_dir: str, step: int) -> str:
    return os.path.join(run_dir, f"ckpt_{step}.opt.qlab")


def _ckpt_files(run_dir: str) -> List[Tuple[str, int]]:
    """(kind, step) of every `<kind>_<step>.qlab` checkpoint in run_dir; none
    if it does not exist."""
    found = []
    for name in os.listdir(run_dir) if os.path.isdir(run_dir) else ():
        if name.endswith(".qlab") and ".opt." not in name:
            kind, sep, stem = name[: -len(".qlab")].rpartition("_")
            if sep and stem.isdigit():
                found.append((kind, int(stem)))
    return found


def list_ckpt_steps(run_dir: str, kind: str = "ckpt") -> List[int]:
    """The steps of run_dir's `kind` checkpoints, ascending; none if it does not exist."""
    return sorted(step for k, step in _ckpt_files(run_dir) if k == kind)


def ckpt_families(run_dir: str) -> List[str]:
    """The checkpoint kinds run_dir holds (ckpt, lawa5, ...), sorted."""
    return sorted({k for k, _ in _ckpt_files(run_dir)})


@dataclass
class RunData:
    """A run's training and calibration slices (uint8 token arrays) and its
    eval set under `cfg`."""

    cfg: Dict[str, object]
    train: np.ndarray
    calib: np.ndarray
    eval_batches: List[Batch]
    eval_hash: str

    def calibration(self, cfg: Dict[str, object]) -> List[Batch]:
        return build_calibration(
            self.calib, cfg["quant.calib_samples"], cfg["data.seq_len"]
        )

    @cached_property
    def calib_set(self) -> List[Batch]:
        """The run's own calibration batches, built once."""
        return self.calibration(self.cfg)

    @cached_property
    def calib_hash(self) -> str:
        return token_fingerprint(self.calib_set)


def build_data(cfg: Dict[str, object], bits: Optional[Sequence[int]] = None) -> RunData:
    """A run's data under cfg, and the one check of all a run refuses before
    its first write: a ConfigError names the run if a set's hash differs
    from the one cfg records (run.eval_set_hash, run.calib_set_hash), and
    refuses a setting its model, optim or schedule view refuses, a batch
    size, calibration sample count or LAWA window or interval below 1, a
    schedule.min_lr outside [0, optim.peak_lr], quant settings at a width
    of quant.bits or of `bits` (the widths a caller evaluates besides), a
    bad QLAB_THREADS, a corpus byte the vocabulary lacks, and a
    calibration slice too short for quant.calib_samples."""
    if not cfg["data.path"]:
        raise ConfigError("data.path is required")
    cfgmod.model_config(cfg), cfgmod.optim_config(cfg), cfgmod.schedule_spec(cfg)  # each refuses
    for key in ("train.batch_size", "quant.calib_samples", "lawa.k", "lawa.interval"):
        if cfg[key] < 1:
            raise ConfigError(f"{key} must be at least 1, got {cfg[key]}")
    if not 0 <= cfg["schedule.min_lr"] <= cfg["optim.peak_lr"]:
        raise ConfigError(f"schedule.min_lr must lie in [0, optim.peak_lr = "
                          f"{cfg['optim.peak_lr']}], got {cfg['schedule.min_lr']}")
    for b in (*cfg["quant.bits"], *(bits or ())):
        cfgmod.quant_config(cfg, b)
    qlab_threads()
    tokens = load_corpus(cfg["data.path"], cfg["data.limit_bytes"] or None)
    top = int(tokens.max())
    if top >= cfg["model.vocab"]:
        raise ConfigError(f"corpus byte {top} is outside model.vocab {cfg['model.vocab']}")
    train, val, calib = split(
        tokens, cfg["data.val_fraction"], cfg["data.calib_fraction"], cfg["data.seed"]
    )
    eval_batches = fixed_eval_batches(
        val, cfg["eval.batches"], cfg["eval.batch_size"], cfg["data.seq_len"]
    )
    data = RunData(cfg, train, calib, eval_batches, token_fingerprint(eval_batches))
    for what in ("eval", "calib"):  # the calibration set is built, so a short slice is refused
        recorded, built = cfg.get(f"run.{what}_set_hash"), getattr(data, f"{what}_hash")
        if recorded and recorded != built:
            raise ConfigError(f"{what} set hash mismatch for run {cfg.get('run.id')}: "
                              f"corpus or config changed")
    return data


def _phase_boundaries(spec: ScheduleSpec) -> Tuple[int, ...]:
    marks = {spec.total_steps}
    if spec.warmup_steps:
        marks.add(spec.warmup_steps)
    if spec.decay_steps:
        marks.add(spec.total_steps - spec.decay_steps)
    return tuple(sorted(marks))


def ckpt_hook(
    cfg: Dict[str, object], target: int, fn: Optional[Callable[[TrainEvent], None]] = None
) -> TrainHook:
    """The hook that saves a run's checkpoints as it trains to `target`:
    every train.ckpt_interval steps, on the schedule's phase boundaries,
    and at `target`, where a resume starts. Its `due(step)` tells, before
    any training, whether a step will have a checkpoint."""
    marks = _phase_boundaries(cfgmod.schedule_spec(cfg)) + (target,)
    return TrainHook(cfg["train.ckpt_interval"], fn, marks)


def cmd_train(
    cfg: Dict[str, object],
    out_root: str,
    force: bool = False,
    stop_after: Optional[int] = None,
) -> str:
    """Train under `cfg` into out_root/<run_id>; returns the run directory.

    What the directory holds decides how the run starts. It resumes from
    the last step whose checkpoint and optimizer state are both saved, if
    its manifest's data sets still match; a run already there at the
    target returns at once and reads nothing. With no such step, or with
    `force`, it starts fresh (deleting the old run) and rewrites its
    manifest: from init, or for a branch (settings with lineage, as
    `branch_config` makes them) from the checkpoint, optimizer state and
    data cursor that out_root/<run.parent_id> saved at run.branch_step, on
    the data sets that parent's manifest records. Everything a start reads
    is read and verified before the first write.
    """
    spec = cfgmod.schedule_spec(cfg)
    run_id = cfgmod.run_id_of(cfg)
    run_dir = os.path.join(out_root, run_id)
    target = spec.total_steps if stop_after is None else min(stop_after, spec.total_steps)
    steps = [] if force else list_ckpt_steps(run_dir)
    saved = [s for s in steps if os.path.exists(opt_path(run_dir, s))]
    if saved and saved[-1] >= target:
        return run_dir
    lineage = {k: str(cfg[k]) for k in ("run.parent_id", "run.branch_step") if cfg.get(k)}
    # before any write: a config error, changed data or a missing or corrupt
    # start state leaves the run as it was, and makes no directory
    start, checked = None, cfg  # the saved state it starts from; what build_data checks
    if saved:
        start, checked = (run_dir, saved[-1]), load_manifest(run_dir)
    elif lineage:
        start = os.path.join(out_root, lineage["run.parent_id"]), int(lineage["run.branch_step"])
        for p in (ckpt_path(*start), opt_path(*start)):
            if not os.path.exists(p):
                raise ConfigError(f"branch {run_id} starts from {p}, which does not exist: "
                                  f"train its parent into {out_root} with a checkpoint at "
                                  f"step {start[1]}")
        parent = load_manifest(start[0])  # a branch runs on the sets its parent recorded
        checked = dict(cfg, **{k: parent.get(k) for k in
                               ("run.id", "run.eval_set_hash", "run.calib_set_hash")})
    data = build_data(checked)
    if start:
        ckpt = load_checkpoint(ckpt_path(*start))
        opt_state, cursor = load_opt_state(opt_path(*start))
    else:
        ckpt = init(cfgmod.model_config(cfg))
        opt_state, cursor = init_opt_state(ckpt), 0
    if force and os.path.isdir(run_dir):
        shutil.rmtree(run_dir)
    os.makedirs(run_dir, exist_ok=True)
    metrics_store = MetricsStore(os.path.join(run_dir, METRICS))
    norm_table = MetricsStore(os.path.join(run_dir, NORMS), NORMS_HEADER, ("step",))
    qeval = QevalTable(os.path.join(run_dir, QEVAL))
    pending: Dict[int, Tuple[float, float]] = {}  # step -> FP (CE, accuracy) for qeval.csv

    def save_state(ckpt: Checkpoint, opt_state: OptimState, cursor: int) -> None:
        # the start state and every checkpoint, after the step's eval and
        # norm rows: writes whichever of the step's files a crash left
        # missing, the optimizer state last, so a resume, which starts after
        # the last step saved with one, skips no row
        cpath, opath = ckpt_path(run_dir, ckpt.step), opt_path(run_dir, ckpt.step)
        checksum = None if os.path.exists(cpath) else save_checkpoint(cpath, ckpt)
        fp = pending.pop(ckpt.step, None)
        if fp:
            checksum = checksum or read_checkpoint(cpath)[1]  # left by a crash
            qeval.put(qeval_key(checksum, data.eval_hash), *fp)
            qeval.save()
        if not os.path.exists(opath):
            save_opt_state(opath, opt_state, cursor)

    if not saved:
        write_manifest(run_dir, cfg, {"run.id": run_id, "run.eval_set_hash": data.eval_hash,
                                      "run.calib_set_hash": data.calib_hash, **lineage})
        save_state(ckpt, opt_state, cursor)
    if ckpt.step >= target:
        return run_dir
    saves = ckpt_hook(cfg, target, lambda ev: save_state(ev.ckpt, ev.opt_state, ev.cursor))

    def eval_hook(ev: TrainEvent) -> None:
        ce, acc = eval_ce(ev.ckpt, data.eval_batches)
        rec = MetricRecord(
            run_id=run_id, step=ev.step, tokens_seen=ev.ckpt.tokens_seen, lr=ev.lr,
            train_loss=ev.train_loss, val_ce_fp=ce, acc_fp=acc,
            grad_norm=ev.grad_norm, weight_norm=frobenius_norm(*ev.ckpt.tensors.values()),
        )
        metrics_store.upsert(record_to_row(rec))
        metrics_store.save()
        if saves.due(ev.step):  # save_state records it under the checkpoint's checksum
            pending[ev.step] = (ce, acc)
        log.info("run %s step %d: train %.4f val %.4f acc %.4f lr %.3g",
                 run_id[:8], ev.step, ev.train_loss, ce, acc, ev.lr)

    def norm_hook(ev: TrainEvent) -> None:
        norm_table.upsert({
            "step": str(ev.step), "lr": fmt_real(ev.lr), "train_loss": fmt_real(ev.train_loss),
            "grad_norm": fmt_real(ev.grad_norm),
            "weight_norm": fmt_real(frobenius_norm(*ev.ckpt.tensors.values())),
        })
        norm_table.save()

    since = [time.perf_counter(), ckpt.step]  # clock and step of the last progress line

    def progress_hook(ev: TrainEvent) -> None:
        now = time.perf_counter()
        rate = (ev.step - since[1]) / max(now - since[0], 1e-9)
        since[:] = [now, ev.step]
        log.info("run %s step %d/%d: train %.4f, %.3g steps/s, eta %s",
                 run_id[:8], ev.step, target, ev.train_loss, rate,
                 _duration((target - ev.step) / rate))

    # eval/norm rows fire on intervals plus the schedule end only, before
    # the step's checkpoint, and a resume re-emits the rows since its
    # checkpoint, which merge, so a stopped or crashed and then resumed run
    # leaves byte-identical CSVs
    hooks = [
        TrainHook(cfg["train.eval_interval"], eval_hook, (spec.total_steps,)),
        TrainHook(cfg["train.log_interval"], norm_hook, (spec.total_steps,)),
        saves,
        TrainHook(cfg["train.log_interval"], progress_hook),
    ]
    train_loop(
        ckpt, opt_state, data.train, cursor, spec, cfgmod.optim_config(cfg),
        cfg["train.batch_size"], cfg["data.seq_len"], target - ckpt.step, hooks,
    )
    return run_dir


def _duration(seconds: float) -> str:
    """2h05m, 4m07s or 12s."""
    s = int(round(seconds))
    if s >= 3600:
        return f"{s // 3600}h{s % 3600 // 60:02d}m"
    return f"{s // 60}m{s % 60:02d}s" if s >= 60 else f"{s}s"


def cmd_branch(parent_dir: str, branch_step: int, decay_frac: float = 0.1,
               decay_steps: Optional[int] = None, force: bool = False) -> str:
    """Cool down the run in `parent_dir` from `branch_step` as `branch_config`
    says, next to it in its out-root; returns the child run directory. It
    is `cmd_train` of the branch's settings: a rerun resumes the child (a
    finished one reads nothing, not even the parent's checkpoint), and
    `force` redoes it."""
    cfg = branch_config(load_manifest(parent_dir), branch_step, decay_frac, decay_steps)
    return cmd_train(cfg, os.path.dirname(os.path.abspath(parent_dir)), force=force)


def branch_config(cfg: Dict[str, object], branch_step: int, decay_frac: float = 0.1,
                  decay_steps: Optional[int] = None) -> Dict[str, object]:
    """The settings of a cooldown branch from `branch_step` of the run with
    settings `cfg`, lineage included (run.parent_id, run.branch_step), so
    `run_id_of` of them names the branch and `cmd_train` of them starts it
    from its parent's saved state in the same out-root. The cooldown
    length defaults to decay_frac * branch_step and is at least 2 steps
    (`decay_steps` below 2, or a `decay_frac` of 0 or below, is a
    ConfigError): a WSD decay's last step runs at schedule.min_lr (0 by
    default), so one step would do nothing a constant run does not. The
    child's schedule is the WSD run that matches the trunk up to the
    branch point and then decays linearly to the trunk's schedule.min_lr;
    its schedule.total_steps is the branch's final step.
    """
    parent_spec = cfgmod.schedule_spec(cfg)
    if parent_spec.decay_steps and branch_step > parent_spec.total_steps - parent_spec.decay_steps:
        raise ConfigError(f"cannot branch at step {branch_step}, inside the parent's decay")
    if decay_steps is not None and decay_steps < 2:
        raise ConfigError(f"a cooldown needs at least 2 decay steps, got {decay_steps}")
    if decay_frac <= 0:
        raise ConfigError(f"a cooldown needs a positive decay fraction, got {decay_frac}")
    cool = decay_steps if decay_steps is not None else max(2, round(decay_frac * branch_step))
    total = branch_step + cool
    warmup = min(parent_spec.warmup_steps, branch_step)
    # its other run.* keys are the parent's, which build_data checks and write_manifest drops
    return dict(cfg, **{"run.parent_id": cfgmod.run_id_of(cfg), "run.branch_step": branch_step,
                        "schedule.kind": "wsd", "schedule.total_steps": total,
                        "schedule.warmup_frac": warmup / total,
                        "schedule.decay_frac": cool / total})


# -- quantize + eval -----------------------------------------------------------


def qeval_keys(checksum: str, eval_hash: str, calib_hash: str, cfg: Dict[str, object],
               bits: Sequence[int]) -> Tuple[tuple, Dict[int, tuple]]:
    """The qeval.csv keys of a checkpoint's FP result and of each bit width
    under cfg's quant settings, for the checkpoint whose payload checksum
    is `checksum`, on the eval set hashed `eval_hash` and, for a method that
    calibrates, the calibration set hashed `calib_hash`."""
    qcfgs = {b: cfgmod.quant_config(cfg, b) for b in bits}
    quant = {b: qeval_key(checksum, eval_hash, q, calib_hash if q.calibrated else "")
             for b, q in qcfgs.items()}
    return qeval_key(checksum, eval_hash), quant


def _record(table: QevalTable, cfg: Dict[str, object], kind: str, step: int,
            tokens_seen: int, weight_norm: float, keys: Tuple[tuple, Dict[int, tuple]]
            ) -> MetricRecord:
    """The record of the run's `kind` checkpoint at `step` from its results in
    `table` under `keys` (`qeval_keys`); one the table lacks is a ConfigError."""
    for key in (keys[0], *keys[1].values()):
        if table.get(key) is None:
            raise ConfigError(f"{table.path} lacks the {key[2]}{key[3]} result of run "
                              f"{cfg['run.id']}'s {kind} checkpoint at step {step}")
    spec = cfgmod.schedule_spec(cfg)
    lr = schedule_value(spec, cfg["optim.peak_lr"], step) if step <= spec.total_steps else None
    run_id = cfg["run.id"] if kind == "ckpt" else f"{cfg['run.id']}-{kind}"
    return table.record(run_id, step, tokens_seen, lr, weight_norm, *keys)


def records(run_dir: str, bits: Sequence[int], steps: Sequence[int],
            kind: str = "ckpt") -> List[MetricRecord]:
    """What `cmd_quantize_eval` returns for run_dir's `kind` checkpoints at
    `steps` (in that order) and `bits` under the manifest's method, read back
    from qeval.csv under each checkpoint's checksum, verified as it is read,
    and the set hashes the manifest recorded: no corpus is read. A missing
    checkpoint (StoreError) or result (ConfigError) names the run, family
    and step."""
    cfg = load_manifest(run_dir)
    table = QevalTable(os.path.join(run_dir, QEVAL))
    hashes = cfg.get("run.eval_set_hash", ""), cfg.get("run.calib_set_hash", "")
    out = []
    for s in steps:
        ckpt, checksum = read_checkpoint(ckpt_path(run_dir, s, kind))
        out.append(_record(table, cfg, kind, s, ckpt.tokens_seen,
                           frobenius_norm(*ckpt.tensors.values()),
                           qeval_keys(checksum, *hashes, cfg, bits)))
    return out


def evaluate_checkpoint_quantized(
    ckpt: Checkpoint,
    checksum: str,
    data: RunData,
    cfg: Dict[str, object],
    bits: Sequence[int],
    table: Optional[QevalTable] = None,
) -> Dict[tuple, Tuple[float, float, list]]:
    """{qeval key: (CE, accuracy, layer stats)} of the results `table`
    lacks (all without one) for the checkpoint whose payload checksum is
    `checksum`: the FP eval first, then each bit width in order, quantized
    by cfg's quant.method (a calibrated one on the run's calibration set).

    The bit widths left are quantized as the jobs of one parallel region,
    each walk handing GPTQ only d_in x d_in Grams, then evaluated in bit
    order, each eval with its shard items on the pool; inside a checkpoint
    job (2 or more checkpoints) the region runs serially. A failure raised
    is the first failing bit width's, as in a serial loop.
    """
    fp_key, quant_keys = qeval_keys(checksum, data.eval_hash, data.calib_hash, cfg, bits)
    found = {}
    if table is None or table.get(fp_key) is None:
        found[fp_key] = (*eval_ce(ckpt, data.eval_batches), [])
    todo = [cfgmod.quant_config(cfg, b) for b in bits
            if table is None or table.get(quant_keys[b]) is None]

    def quantize(qcfg):  # data.calib_hash built data.calib_set before the region
        return quantize_model(ckpt, data.calib_set if qcfg.calibrated else None, qcfg)

    # read in bit order: the first failing bit width raises, and closing the
    # stream waits for the others; perfbench traces the pool class looked up here
    with closing(parallel.stream(quantize, todo, ThreadPoolExecutor)) as done:
        quantized = [d.result() for d in done]
    for qcfg, (qm, stats) in zip(todo, quantized):
        found[quant_keys[qcfg.bits]] = (*eval_ce(qm, data.eval_batches), stats)
    return found


def cmd_quantize_eval(
    run_dir: str,
    bits: Optional[Sequence[int]] = None,
    method: Optional[str] = None,
    steps: Optional[Sequence[int]] = None,
    kind: str = "ckpt",
    force: bool = False,
) -> Tuple[List[MetricRecord], List[Tuple[int, str]]]:
    """Quantize and evaluate stored checkpoints; upserts qeval.csv rows,
    and metrics.csv rows if the method is the manifest's. Bits and method
    default to the manifest's.

    Returns (records, failures). Per-checkpoint failures are recorded and
    the sweep continues. The checkpoints run as parallel jobs; a lone
    checkpoint runs in the calling thread, its bit widths as the jobs.
    A job computes only the results qeval.csv lacks, for any checkpoint
    with the same payload (`force` recomputes them all, and its rows
    replace the recorded ones); every record is then read back from
    qeval.csv, in step order, as `records` reads it, with no checkpoint
    read twice. metrics.csv is a view of the manifest method's results
    at the bit widths it has columns for. A `kind` of which the run holds
    no checkpoint, and what `build_data` refuses at `bits` (quant settings,
    changed sets), are refused before any work. The tables are saved only
    after every row merged, so a conflict (MergeError) leaves both files
    unchanged.
    """
    cfg = load_manifest(run_dir)
    # a bit width named twice is quantized once, in first-seen order
    bits = list(dict.fromkeys(cfg["quant.bits"] if bits is None else bits))
    shown = method in (None, cfg["quant.method"])  # metrics.csv shows this method
    cfg["quant.method"] = method or str(cfg["quant.method"])
    available = list_ckpt_steps(run_dir, kind)
    if not available:
        raise ConfigError(f"{run_dir} holds no {kind} checkpoints; its checkpoint "
                          f"families: {', '.join(ckpt_families(run_dir)) or 'none'}")
    data = build_data(cfg, bits)  # checks the quant settings before any checkpoint is read
    selected = available if steps is None else [s for s in available if s in set(steps)]
    if steps is not None:
        missing = set(steps) - set(available)
        if missing:
            raise ConfigError(f"no {kind} checkpoints at steps {sorted(missing)}")
    if not selected:
        log.warning("quantize-eval selected zero checkpoints in %s", run_dir)
        return [], []
    table = QevalTable(os.path.join(run_dir, QEVAL))

    def job(step: int):
        ckpt, checksum = read_checkpoint(ckpt_path(run_dir, step, kind))
        found = evaluate_checkpoint_quantized(ckpt, checksum, data, cfg, bits,
                                              None if force else table)
        return ckpt.tokens_seen, frobenius_norm(*ckpt.tensors.values()), checksum, found

    # checkpoints run as parallel jobs, whose eval and walk items then run
    # serially; the pool class is looked up here, where perfbench traces it
    done = parallel.stream(job, selected, ThreadPoolExecutor)
    results: Dict[int, tuple] = {}
    failures: List[Tuple[int, str]] = []
    for d, s in zip(done, selected):  # the stream first: zip then runs it to its end
        try:
            results[s] = d.result()
        except QlabError as exc:
            failures.append((s, str(exc)))
            log.error("quantize-eval failed at step %d: %s", s, exc)

    metrics_store = MetricsStore(os.path.join(run_dir, METRICS))
    out = []
    for s in sorted(results):
        tokens_seen, weight_norm, checksum, found = results[s]
        keys = qeval_keys(checksum, data.eval_hash, data.calib_hash, cfg, bits)
        for key, result in found.items():
            table.put(key, *result, replace=force)
        rec = _record(table, cfg, kind, s, tokens_seen, weight_norm, keys)
        what = [] if keys[0] in found else ["fp"]
        reused = [str(b) for b in bits if keys[1][b] not in found]
        if reused:
            what.append(f"bits {','.join(reused)}")
        if what:
            log.info("%s step %d: %s reused", rec.run_id, s, ", ".join(what))
        row = record_to_row(rec)  # validates every record, shown or not
        if shown:
            metrics_store.upsert(row, force)
        out.append(rec)
    if shown:
        metrics_store.save()
    table.save()
    return out, failures


# -- averaging over a run --------------------------------------------------------


def cmd_average(run_dir: str, k: Optional[int] = None, interval: Optional[int] = None) -> List[str]:
    """Rolling LAWA over stored checkpoints; emits lawa<k>_<step>.qlab files.

    k and interval default to the manifest's lawa.k and lawa.interval. An
    existing file must hold the same average: one made with other
    settings is refused (ConfigError) and left as it is.
    """
    cfg = load_manifest(run_dir)
    k = cfg["lawa.k"] if k is None else k
    interval = cfg["lawa.interval"] if interval is None else interval
    if interval < 1:
        raise ConfigError(f"averaging interval must be at least 1, got {interval}")
    steps = [s for s in list_ckpt_steps(run_dir) if s > 0 and s % interval == 0]
    if not steps:
        raise ConfigError(f"no checkpoints at multiples of {interval} in {run_dir}")
    window = AveragingWindow(capacity=k)
    out = []
    for s in steps:
        ckpt = load_checkpoint(ckpt_path(run_dir, s))
        avg = lawa_push(window, ckpt)
        path = ckpt_path(run_dir, s, kind=f"lawa{k}")
        _save_or_verify(path, avg, "a different average (made with another --k or --interval)")
        out.append(path)
    return out


def _same_weights(a: Checkpoint, b: Checkpoint) -> bool:
    """Whether two float32 checkpoints hold the same step, token count and
    weights, bitwise."""
    same = (a.step, a.tokens_seen, a.tensors.keys()) == (b.step, b.tokens_seen, b.tensors.keys())
    return same and all(a.tensors[n].tobytes() == b.tensors[n].tobytes() for n in a.tensors)


def _save_or_verify(path: str, ckpt: Checkpoint, other: str) -> None:
    """Save `ckpt` to `path`; a file already there must hold the same
    weights, and one that holds `other` is refused (ConfigError) and
    left as it is."""
    if not os.path.exists(path):
        save_checkpoint(path, ckpt)
    elif not _same_weights(load_checkpoint(path), ckpt):
        raise ConfigError(f"{path} holds {other}; remove it to recompute")


def cmd_soup(inputs: Sequence[Tuple[str, float]], out_path: str) -> str:
    """Weighted merge of checkpoint files: [(path, weight), ...] -> out_path.
    An existing out_path must already hold this merge: other weights are
    refused (ConfigError) and left as they are."""
    ckpts = [load_checkpoint(p) for p, _ in inputs]
    merged = soup(ckpts, [w for _, w in inputs])
    _save_or_verify(out_path, merged, "other weights")
    return out_path


# -- sweeps ----------------------------------------------------------------------


def plan_steps(plan: cfgmod.Plan, cell: Dict[str, object]) -> Dict[str, Tuple[int, ...]]:
    """`cell`'s steps by plan key (plan.eval_steps defaults to its "final step"),
    plus plan.claim's where CLAIMS says: the trunk is evaluated at a cooldown's
    branch points and an LR sweep's final step, and LAWA steps are branched from."""
    total = cell["schedule.total_steps"]
    steps = {"plan.eval_steps": (total,) if plan.eval_steps is None else plan.eval_steps,
             "final step": (total,), "plan.branch_steps": plan.branch_steps,
             "plan.lawa_steps": plan.lawa_steps}
    if plan.claim:
        judged, into = CLAIMS[plan.claim][2]
        steps[into] = tuple(sorted({*steps[into], *steps[judged]}))
    return steps


def _check_cell(plan: cfgmod.Plan, cell: Dict[str, object]) -> None:
    """Refuse what `build_data` refuses for `cell`'s run at plan.bits, and a
    step of `plan_steps` the run saves no checkpoint at, a branch step
    inside its decay, or a LAWA step that is not a positive multiple of
    its lawa.interval."""
    total = cell["schedule.total_steps"]
    saved = ckpt_hook(cell, total).due
    steps = plan_steps(plan, cell)
    unsaved = sorted({s for v in steps.values() for s in v if not (0 <= s <= total and saved(s))})
    if unsaved:
        raise ConfigError(f"a {total}-step run of this plan saves no checkpoint at steps {unsaved}")
    for bs in steps["plan.branch_steps"]:
        branch_config(cell, bs)  # refuses a branch step inside the run's decay
    off = [s for s in plan.lawa_steps if s <= 0 or s % cell["lawa.interval"]]
    if off:
        raise ConfigError(f"plan.lawa_steps {off} are not positive multiples of "
                          f"lawa.interval ({cell['lawa.interval']})")
    build_data(cell, plan.bits)


def cmd_sweep(
    plan_path: str, out_root: str, force: bool = False, overrides: Optional[List[str]] = None
) -> Tuple[cfgmod.Plan, List[str], str]:
    """Run every cell of a plan (`cfgmod.Plan`, with --set `overrides`) at
    its `plan_steps` and write out_root/summary.csv, one row per cell with
    its final step's metrics as evaluated (blank if not evaluated).

    Each cell is checked (`_check_cell`; a refusal names its seed and axis
    values) before out_root is created. A rerun resumes each run, branch
    and average and reuses their results in qeval.csv; `force` retrains
    and recomputes. A failed cell is logged and marked, and the next one
    runs. Returns (plan, failures: a message per failed cell, summary path).
    """
    plan = cfgmod.load_plan(plan_path, overrides)
    if plan.claim and plan.claim not in CLAIMS:
        raise ConfigError(f"unknown plan.claim {plan.claim!r}; one of {sorted(CLAIMS)}")
    for cell in plan.cells:
        try:
            _check_cell(plan, cell)
        except QlabError as exc:
            axes = "".join(f", {k}={cfgmod.format_value(cell[k])}" for k in plan.axes)
            exc.args = (f"cell (seed {cell['model.init_seed']}{axes}): {exc}",)
            raise
    summary_path = os.path.join(out_root, "summary.csv")
    os.makedirs(out_root, exist_ok=True)
    header = ["run_id", "seed"] + plan.axes + ["final_step", *SUMMARY_METRICS, "status"]
    summary = MetricsStore(summary_path, ",".join(header), ("run_id",), load=False)

    def evaluate(run_dir: str, steps: Sequence[int], kind: str = "ckpt") -> List[MetricRecord]:
        recs, fails = cmd_quantize_eval(run_dir, bits=plan.bits, steps=steps, kind=kind,
                                        force=force) if steps else ([], [])
        if fails:
            raise PartialFailure(f"{kind} quantize-eval failures in {run_dir}: {fails}")
        return recs

    failures: List[str] = []
    for settings in plan.cells:
        final, seed = settings["schedule.total_steps"], settings["model.init_seed"]
        run_id = cfgmod.run_id_of(settings)
        row = {"run_id": run_id, "seed": str(seed),
               **{k: str(settings[k]) for k in plan.axes}, "final_step": str(final)}
        steps = plan_steps(plan, settings)
        try:
            run_dir = cmd_train(settings, out_root, force=force)
            trunk = {r.step: r for r in evaluate(run_dir, steps["plan.eval_steps"])}
            for bs in steps["plan.branch_steps"]:
                branch = branch_config(settings, bs)
                evaluate(cmd_train(branch, out_root, force=force), [branch["schedule.total_steps"]])
            if plan.lawa_steps:
                cmd_average(run_dir)
                evaluate(run_dir, plan.lawa_steps, f"lawa{settings['lawa.k']}")
            metrics = record_to_row(trunk[final]) if final in trunk else {}
            row.update({c: metrics.get(c, "") for c in SUMMARY_METRICS}, status="ok")
        except QlabError as exc:
            failures.append(f"seed {seed} run {run_id}: {exc}")
            log.error("sweep cell failed (seed %s, run %s): %s", seed, run_id, exc)
            row["status"] = "failed"
        summary.upsert(row)
    summary.save()
    return plan, failures, summary_path


def judge(plan: cfgmod.Plan, out_root: str) -> List[Comparison]:
    """plan.claim's comparisons over the plan's runs under out_root, each
    record read back by `records`. A trunk is found by its cell's run id, a
    branch by the run id of its settings (`branch_config` of the cell), and
    a LAWA average as the trunk's lawa<k> family. Run ids hash data.path,
    so `plan` needs the sweep's settings, though no corpus is read."""
    def read(cell: Dict[str, object], family: str, step: int) -> MetricRecord:
        if family == "branch":
            cell = branch_config(cell, step)
            step = cell["schedule.total_steps"]
        run_dir = os.path.join(out_root, cfgmod.run_id_of(cell))
        kind = f"lawa{cell['lawa.k']}" if family == "lawa" else "ckpt"
        return records(run_dir, plan.bits, [step], kind)[0]

    return CLAIMS[plan.claim][0](plan, read)
