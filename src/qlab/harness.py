"""Experiment orchestration: run directories, branching, sweeps, eval jobs.

`cmd_sweep` is the one engine for a set of runs: it trains each cell of
a plan, branches, averages and quantize-evaluates it as the plan says,
and returns the records a claim is judged by.

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
qeval.csv lacks, and reads every record back from it. Cooldown branches
resume the parent's checkpoint, optimizer state, and data cursor, so a
branch plus its trunk prefix is step-for-step identical to the
equivalent single WSD run.
"""

from __future__ import annotations

import logging
import os
import shutil
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass, field
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
from .experiments import CLAIMS
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


def build_data(cfg: Dict[str, object]) -> RunData:
    """A run's data under cfg; a ConfigError names the run if a set's hash
    differs from the one cfg records (run.eval_set_hash, run.calib_set_hash),
    and refuses settings no run can use: a batch size, calibration sample
    count, LAWA window or LAWA interval below 1, a schedule.min_lr outside
    [0, optim.peak_lr], an optim.eps of 0 or below, quant settings no
    QuantConfig takes at some quant.bits width, and a corpus byte the
    vocabulary lacks."""
    if not cfg["data.path"]:
        raise ConfigError("data.path is required")
    for key in ("train.batch_size", "quant.calib_samples", "lawa.k", "lawa.interval"):
        if cfg[key] < 1:
            raise ConfigError(f"{key} must be at least 1, got {cfg[key]}")
    if not 0 <= cfg["schedule.min_lr"] <= cfg["optim.peak_lr"]:
        raise ConfigError(f"schedule.min_lr must lie in [0, optim.peak_lr = "
                          f"{cfg['optim.peak_lr']}], got {cfg['schedule.min_lr']}")
    if not cfg["optim.eps"] > 0:
        raise ConfigError(f"optim.eps must be positive, got {cfg['optim.eps']}")
    for b in cfg["quant.bits"]:
        cfgmod.quant_config(cfg, b)
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
    for what in ("eval", "calib"):
        recorded = cfg.get(f"run.{what}_set_hash")
        if recorded and recorded != getattr(data, f"{what}_hash"):
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
    parent: Optional[Tuple[str, int]] = None,
    start_state: Optional[Callable[[], Tuple[Checkpoint, OptimState, int]]] = None,
) -> str:
    """Train under `cfg` into out_root/<run_id>; returns the run directory.

    What the directory holds decides how the run starts. It resumes from
    the last step whose checkpoint and optimizer state are both saved, if
    its manifest's data sets still match; a run already there at the
    target returns at once and reads nothing. With no such step, or with
    `force`, it starts fresh (deleting the old run) and rewrites its
    manifest; `start_state` then loads a branch's start (its parent's
    checkpoint, optimizer state and data cursor).
    """
    spec = cfgmod.schedule_spec(cfg)
    ocfg = cfgmod.optim_config(cfg)
    mcfg = cfgmod.model_config(cfg)
    run_id = cfgmod.run_id_of(cfg, parent)
    run_dir = os.path.join(out_root, run_id)
    target = spec.total_steps if stop_after is None else min(stop_after, spec.total_steps)
    steps = [] if force else list_ckpt_steps(run_dir)
    saved = [s for s in steps if os.path.exists(opt_path(run_dir, s))]
    if saved and saved[-1] >= target:
        return run_dir
    # before any write: a config error or changed data leaves the run as it was
    data = build_data(load_manifest(run_dir) if saved else cfg)
    calib_hash = data.calib_hash  # and so does a calibration slice too short for it
    qlab_threads()  # and so does a bad QLAB_THREADS
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

    if saved:
        ckpt = load_checkpoint(ckpt_path(run_dir, saved[-1]))
        opt_state, cursor = load_opt_state(opt_path(run_dir, saved[-1]))
    else:
        run_keys = {
            "run.id": run_id,
            "run.eval_set_hash": data.eval_hash,
            "run.calib_set_hash": calib_hash,
        }
        if parent:
            run_keys["run.parent_id"] = parent[0]
            run_keys["run.branch_step"] = str(parent[1])
        write_manifest(run_dir, cfg, run_keys)
        if start_state is not None:
            ckpt, opt_state, cursor = start_state()
        else:
            ckpt = init(mcfg)
            opt_state = init_opt_state(ckpt)
            cursor = 0
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
        ckpt, opt_state, data.train, cursor, spec, ocfg,
        cfg["train.batch_size"], cfg["data.seq_len"], target - ckpt.step, hooks,
    )
    return run_dir


def _duration(seconds: float) -> str:
    """2h05m, 4m07s or 12s."""
    s = int(round(seconds))
    if s >= 3600:
        return f"{s // 3600}h{s % 3600 // 60:02d}m"
    return f"{s // 60}m{s % 60:02d}s" if s >= 60 else f"{s}s"


def cmd_branch(
    parent_dir: str,
    branch_step: int,
    decay_frac: float = 0.1,
    out_root: Optional[str] = None,
    decay_steps: Optional[int] = None,
    force: bool = False,
) -> str:
    """Cool down a trunk from `branch_step`; returns the child run directory.

    The cooldown length defaults to decay_frac * branch_step and is at
    least 2 steps (`decay_steps` below 2, or a `decay_frac` of 0 or below,
    is a ConfigError): a WSD decay's last step runs at schedule.min_lr (0
    by default), so one step would do nothing a constant run does not. The
    child's schedule is the WSD run that matches the trunk up to the branch
    point and then decays linearly to the trunk's schedule.min_lr. Like
    `cmd_train`, a rerun resumes the child (a finished one
    reads nothing, not even the parent's checkpoint), and `force` redoes
    it.
    """
    cfg = load_manifest(parent_dir)
    cpath, opath = ckpt_path(parent_dir, branch_step), opt_path(parent_dir, branch_step)
    for p in (cpath, opath):
        if not os.path.exists(p):
            raise ConfigError(
                f"branch point {branch_step} needs {p}; rerun training with a "
                f"checkpoint interval that lands on step {branch_step}"
            )
    parent_spec = cfgmod.schedule_spec(cfg)
    if parent_spec.decay_steps and branch_step > parent_spec.total_steps - parent_spec.decay_steps:
        raise ConfigError("cannot branch inside the parent's own decay phase")
    if decay_steps is not None and decay_steps < 2:
        raise ConfigError(f"a cooldown needs at least 2 decay steps, got {decay_steps}")
    if decay_frac <= 0:
        raise ConfigError(f"a cooldown needs a positive decay fraction, got {decay_frac}")
    cool = decay_steps if decay_steps is not None else max(2, round(decay_frac * branch_step))
    total = branch_step + cool
    warmup = min(parent_spec.warmup_steps, branch_step)
    child = dict(cfg)  # its run.* keys are the parent's: write_manifest drops them
    child["schedule.kind"] = "wsd"
    child["schedule.total_steps"] = total
    child["schedule.warmup_frac"] = warmup / total
    child["schedule.decay_frac"] = cool / total
    return cmd_train(
        child,
        out_root or os.path.dirname(os.path.abspath(parent_dir)),
        force=force,
        parent=(cfg["run.id"], branch_step),
        start_state=lambda: (load_checkpoint(cpath), *load_opt_state(opath)),
    )


# -- quantize + eval -----------------------------------------------------------


def qeval_keys(checksum: str, data: RunData, cfg: Dict[str, object],
               bits: Sequence[int]) -> Tuple[tuple, Dict[int, tuple]]:
    """The qeval.csv keys of a checkpoint's FP result and of each bit width
    under cfg's quant settings, for the checkpoint whose payload checksum
    is `checksum`."""
    qcfgs = {b: cfgmod.quant_config(cfg, b) for b in bits}
    quant = {b: qeval_key(checksum, data.eval_hash, q, data.calib_hash if q.calibrated else "")
             for b, q in qcfgs.items()}
    return qeval_key(checksum, data.eval_hash), quant


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
    fp_key, quant_keys = qeval_keys(checksum, data, cfg, bits)
    found = {}
    if table is None or table.get(fp_key) is None:
        found[fp_key] = (*eval_ce(ckpt, data.eval_batches), [])
    todo = [cfgmod.quant_config(cfg, b) for b in bits
            if table is None or table.get(quant_keys[b]) is None]

    def quantize(qcfg):  # qeval_keys built data.calib_set before the region
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
    qeval.csv, in step order. metrics.csv is a view of the manifest
    method's results at the bit widths it has columns for. Invalid quant
    settings, a `kind` of which the run holds no checkpoint, and an eval
    or calibration set that differs from the one the manifest recorded,
    are refused before any work. The tables are saved only after every
    row merged, so a conflict (MergeError) leaves both files unchanged.
    """
    cfg = load_manifest(run_dir)
    # a bit width named twice is quantized once, in first-seen order
    bits = list(dict.fromkeys(cfg["quant.bits"] if bits is None else bits))
    for b in bits:  # a bit width outside [2, 8] exits 2 before any checkpoint is read
        cfgmod.quant_config(cfg, b, method)
    shown = method in (None, cfg["quant.method"])  # metrics.csv shows this method
    cfg["quant.method"] = method or str(cfg["quant.method"])
    run_id = cfg["run.id"] if kind == "ckpt" else f"{cfg['run.id']}-{kind}"
    available = list_ckpt_steps(run_dir, kind)
    if not available:
        raise ConfigError(f"{run_dir} holds no {kind} checkpoints; its checkpoint "
                          f"families: {', '.join(ckpt_families(run_dir)) or 'none'}")
    data = build_data(cfg)
    selected = available if steps is None else [s for s in available if s in set(steps)]
    if steps is not None:
        missing = set(steps) - set(available)
        if missing:
            raise ConfigError(f"no {kind} checkpoints at steps {sorted(missing)}")
    if not selected:
        log.warning("quantize-eval selected zero checkpoints in %s", run_dir)
        return [], []
    spec = cfgmod.schedule_spec(cfg)
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
    records = []
    for s in sorted(results):
        tokens_seen, weight_norm, checksum, found = results[s]
        fp_key, quant_keys = qeval_keys(checksum, data, cfg, bits)
        what = [] if fp_key in found else ["fp"]
        reused = [str(b) for b in bits if quant_keys[b] not in found]
        if reused:
            what.append(f"bits {','.join(reused)}")
        if what:
            log.info("%s step %d: %s reused", run_id, s, ", ".join(what))
        for key, result in found.items():
            table.put(key, *result, replace=force)
        lr = schedule_value(spec, cfg["optim.peak_lr"], s) if s <= spec.total_steps else None
        rec = table.record(run_id, s, tokens_seen, lr, weight_norm, fp_key, quant_keys)
        row = record_to_row(rec)  # validates every record, shown or not
        if shown:
            metrics_store.upsert(row, force)
        records.append(rec)
    if shown:
        metrics_store.save()
    table.save()
    return records, failures


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


@dataclass
class SweepCell:
    """One cell of a sweep: its settings, run directory, and the records its
    plan evaluated, by step: the run's own checkpoints (`trunk`), each
    branch's final step by branch step (`branches`), and the LAWA family
    (`lawa`). `error` says what failed, if anything did."""

    settings: Dict[str, object]
    run_dir: str = ""
    trunk: Dict[int, MetricRecord] = field(default_factory=dict)
    branches: Dict[int, MetricRecord] = field(default_factory=dict)
    lawa: Dict[int, MetricRecord] = field(default_factory=dict)
    error: str = ""


def _check_plan(plan: cfgmod.Plan) -> None:
    """Refuse, before anything trains, a claim the plan cannot judge, quant
    settings no QuantConfig takes at some plan.bits width, and a step some
    cell saves no checkpoint at, branches from inside its decay or, for
    LAWA steps, that is not a positive multiple of its lawa.interval."""
    if plan.claim and plan.claim not in CLAIMS:
        raise ConfigError(f"unknown plan.claim {plan.claim!r}; one of {sorted(CLAIMS)}")
    for cell in plan.cells:
        for b in plan.bits:
            cfgmod.quant_config(cell, b)
        total = cell["schedule.total_steps"]
        saved = ckpt_hook(cell, total).due
        steps = {"plan.eval_steps": plan.eval_steps_of(cell), "final step": (total,),
                 "plan.branch_steps": plan.branch_steps, "plan.lawa_steps": plan.lawa_steps}
        unsaved = sorted({s for v in steps.values() for s in v if not (0 <= s <= total and saved(s))})
        if unsaved:
            raise ConfigError(f"a {total}-step run of this plan saves no checkpoint at steps {unsaved}")
        decay = cfgmod.schedule_spec(cell).decay_steps
        late = [s for s in plan.branch_steps if decay and s > total - decay]
        if late:
            raise ConfigError(f"plan.branch_steps {late} are inside the {total}-step run's decay")
        off = [s for s in plan.lawa_steps if s <= 0 or s % cell["lawa.interval"]]
        if off:
            raise ConfigError(f"plan.lawa_steps {off} are not positive multiples of "
                              f"lawa.interval ({cell['lawa.interval']})")
        if plan.claim:
            judged, within = CLAIMS[plan.claim][2]
            missing = sorted(set(steps[judged]) - set(steps[within]))
            if missing:
                raise ConfigError(f"plan.claim {plan.claim} judges {judged} {missing}, "
                                  f"which {within} must include")


def _evaluated(run_dir: str, bits: Sequence[int], steps: Sequence[int],
               kind: str = "ckpt", force: bool = False) -> Dict[int, MetricRecord]:
    if not steps:
        return {}
    recs, fails = cmd_quantize_eval(run_dir, bits=bits, steps=steps, kind=kind, force=force)
    if fails:
        raise PartialFailure(f"{kind} quantize-eval failures in {run_dir}: {fails}")
    return {r.step: r for r in recs}


def cmd_sweep(
    plan_path: str, out_root: str, force: bool = False, overrides: Optional[List[str]] = None
) -> Tuple[cfgmod.Plan, List[SweepCell], str]:
    """Run every cell of a plan (`cfgmod.Plan`, with --set `overrides`) and
    write out_root/summary.csv, one row per cell with its final step's
    metrics (blank if the plan does not evaluate that step).

    A rerun resumes each run, branch and average and takes their results
    from each run's qeval.csv; `force` retrains and recomputes. A cell
    that fails is logged and marked, and the next one runs. Returns
    (plan, cells, summary_csv_path).
    """
    plan = cfgmod.load_plan(plan_path, overrides)
    _check_plan(plan)
    summary_path = os.path.join(out_root, "summary.csv")
    os.makedirs(out_root, exist_ok=True)
    header = ["run_id", "seed"] + plan.axes + ["final_step", *SUMMARY_METRICS, "status"]
    summary = MetricsStore(summary_path, ",".join(header), ("run_id",), load=False)
    cells: List[SweepCell] = []
    for settings in plan.cells:
        cell = SweepCell(settings)
        cells.append(cell)
        final = settings["schedule.total_steps"]
        row = {"seed": str(settings["model.init_seed"]),
               **{k: str(settings[k]) for k in plan.axes}, "final_step": str(final)}
        try:
            cell.run_dir = cmd_train(settings, out_root, force=force)
            cell.trunk = _evaluated(cell.run_dir, plan.bits, plan.eval_steps_of(settings),
                                    force=force)
            for bs in plan.branch_steps:
                child = cmd_branch(cell.run_dir, bs, out_root=out_root, force=force)
                end = cfgmod.schedule_spec(load_manifest(child)).total_steps
                cell.branches[bs] = _evaluated(child, plan.bits, [end], force=force)[end]
            if plan.lawa_steps:
                cmd_average(cell.run_dir)
                cell.lawa = _evaluated(cell.run_dir, plan.bits, plan.lawa_steps,
                                       kind=f"lawa{settings['lawa.k']}", force=force)
            metrics = record_to_row(cell.trunk[final]) if final in cell.trunk else {}
            row.update({c: metrics.get(c, "") for c in SUMMARY_METRICS}, status="ok")
        except QlabError as exc:
            cell.error = str(exc)
            log.error("sweep cell failed (%s): %s", [row[k] for k in plan.axes], exc)
            row["status"] = "failed"
        summary.upsert(dict(row, run_id=cfgmod.run_id_of(settings)))
    summary.save()
    return plan, cells, summary_path
