"""The four benchmark workloads: fixtures, set-up, the timed operation and,
for the training workloads, a checkpoint round trip through ``store``.

Every function here runs inside a child interpreter whose working
directory is the run's scratch directory, so the corpus is always
``corpus.bin`` and run ids do not depend on where the checkout lives.
qlab is driven only through its public functions.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import time
from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from qlab import config as cfgmod
from qlab import harness, model, optim
from qlab.data import Batch
from qlab.metrics import record_to_row

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = "corpus.bin"
FIXTURE_RUNS = "fixture_runs"

# Sizing. The desk corpus is the smallest that holds desk.cfg's 64x16
# evaluation windows in its 10% validation slice.
DESK_CORPUS_BYTES = 3 << 20
TINY_CORPUS_BYTES = 1 << 20
# One train-tiny operation: long enough that, on top of the step-0 save, the
# checkpoint hook fires at steps 20 (warm-up boundary), 100 and 200, the
# eval hook at 100 and 200, and the norm hook every 50 steps.
TINY_TRAIN_STEPS = 200
# The stored tiny run trajectory-tiny evaluates: checkpoints at 0, 20 and
# 100, and one LAWA average at 100.
TRAJECTORY_STEPS = 100
# qeval-desk cuts only these two sizes so one quantize-eval stays near 20 s
# on two cores; everything else is desk.cfg as it stands.
QEVAL_DESK_SIZES = {"quant.calib_samples": 4, "eval.batches": 1}
# CE in nats over 256 byte values: a uniform guess scores ln 256.
CE_RANGE = (0.0, 2.0 * math.log(256))


def resolve(profile: str, extra: Dict[str, object] = None) -> Dict[str, object]:
    sets = [f"data.path={CORPUS}"] + [f"{k}={v}" for k, v in (extra or {}).items()]
    return cfgmod.resolve(os.path.join(ROOT, "configs", f"{profile}.cfg"), sets)


def file_checksum(path: str) -> str:
    """The FNV-1a footer a tensor file carries (read, not recomputed)."""
    with open(path, "rb") as f:
        f.seek(max(0, os.path.getsize(path) - 64))
        return f.read().rstrip().rsplit(b"\n", 1)[-1].decode()


def digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()[:16]


def in_ce_range(x) -> bool:
    return x is not None and math.isfinite(x) and CE_RANGE[0] < x < CE_RANGE[1]


@dataclass
class OpResult:
    fingerprint: str
    values: Dict[str, float]  # CE-like values that must be finite and in range
    failures: int = 0  # quantize-eval failures reported by qlab
    tokens: int = 0
    steps: int = 0
    checkpoints: int = 0
    average_s: float = 0.0


@dataclass
class RoundTrip:
    save_s: float
    load_s: float
    mb: float
    checksum: str
    matches: bool


@dataclass
class State:
    cfg: Dict[str, object]
    data: object
    warm_fingerprint: str
    extra: dict
    scratch: str = "."  # where this child's operations write


# -- fixtures --------------------------------------------------------------------


def make_corpus(size: int, seed: int) -> None:
    import sys

    sys.path.insert(0, os.path.join(ROOT, "scripts"))
    from make_corpus import generate

    with open(CORPUS, "wb") as f:
        f.write(generate(size, seed))


def build_fixture(name: str, seed: int) -> dict:
    """Inputs made from the seed before any timing; never part of a metric."""
    desk = name.endswith("-desk")
    make_corpus(DESK_CORPUS_BYTES if desk else TINY_CORPUS_BYTES, seed)
    info = {"corpus_bytes": os.path.getsize(CORPUS)}
    if name == "qeval-desk":
        info.update(run_dir=_desk_run(), sizes=dict(QEVAL_DESK_SIZES), checkpoints=1)
    elif name == "trajectory-tiny":
        cfg = resolve("tiny")
        run_dir = harness.cmd_train(cfg, FIXTURE_RUNS, stop_after=TRAJECTORY_STEPS)
        steps = trained_steps(run_dir)
        lawa = [s for s in steps if s % cfg["lawa.interval"] == 0]
        info.update(run_dir=run_dir, train_steps=TRAJECTORY_STEPS, checkpoints=len(steps) + len(lawa))
    return info


def _desk_run() -> str:
    """A desk run directory holding the seeded step-0 checkpoint.

    It carries the manifest keys cmd_train records, without the optimizer
    state quantize-eval never reads. A trained prefix would add one
    8-10 s desk step to every run's fixture; GPTQ and eval do the same
    work for any weights.
    """
    cfg = resolve("desk", QEVAL_DESK_SIZES)
    data = harness.build_data(cfg)
    run_id = cfgmod.run_id_of(cfg)
    run_dir = os.path.join(FIXTURE_RUNS, run_id)
    os.makedirs(run_dir)
    harness.write_manifest(run_dir, cfg, {"run.id": run_id, "run.eval_set_hash": data.eval_hash})
    model.save_checkpoint(harness.ckpt_path(run_dir, 0), model.init(cfgmod.model_config(cfg)))
    return run_dir


# -- set-up ------------------------------------------------------------------------


def setup(name: str, fixture: dict) -> State:
    """Config, build_data (with its fingerprints), init, and a small warm-up.

    The warm-up runs forward, loss and backward on two evaluation rows at
    the workload's shapes from the seeded init; its output fingerprint
    must repeat bitwise in every fresh interpreter of the run.
    """
    if "run_dir" in fixture:
        cfg = harness.load_manifest(fixture["run_dir"])
    else:
        cfg = resolve("desk" if name.endswith("-desk") else "tiny")
    data = harness.build_data(cfg)
    ckpt = model.init(cfgmod.model_config(cfg))
    first = data.eval_batches[0]
    batch = Batch(first.inputs[:2], first.targets[:2])
    logits, cache = model.forward(ckpt, batch)
    warm_loss = model.loss(logits, batch.targets)
    grads = model.backward(ckpt, batch, cache)
    fp = digest(warm_loss, *(grads[k].tobytes() for k in sorted(grads)))
    extra = {"fixture_run": fixture.get("run_dir")}
    if name == "train-desk":
        extra.update(ckpt=ckpt, opt=optim.init_opt_state(ckpt), cursor=0)
    return State(cfg, data, fp, extra)


# -- timed operations ---------------------------------------------------------------


def op_train_desk(st: State, i: int) -> OpResult:
    """One desk-shape optimizer step through train_loop, no hooks that write."""
    cfg, x = st.cfg, st.extra
    losses = []
    hook = optim.TrainHook(1, lambda ev: losses.append(ev.train_loss))
    x["ckpt"], x["opt"], x["cursor"] = optim.train_loop(
        x["ckpt"], x["opt"], st.data.train, x["cursor"], cfgmod.schedule_spec(cfg),
        cfgmod.optim_config(cfg), cfg["train.batch_size"], cfg["data.seq_len"], 1, [hook],
    )
    x.setdefault("losses", []).extend(losses)
    return OpResult(digest(x["losses"]), {"train_loss": losses[-1]},
                    tokens=cfg["train.batch_size"] * cfg["data.seq_len"], steps=1)


def _csv_rows(path: str) -> List[List[str]]:
    with open(path, encoding="utf-8") as f:
        return [ln.rstrip("\n").split(",") for ln in f][1:]


def op_train_tiny(st: State, i: int) -> OpResult:
    """A fresh cmd_train run of TINY_TRAIN_STEPS steps with all its hooks."""
    run_dir = harness.cmd_train(st.cfg, os.path.join(st.scratch, f"op{i}"), stop_after=TINY_TRAIN_STEPS)
    st.extra["run_dir"] = run_dir
    norms = _csv_rows(os.path.join(run_dir, harness.NORMS))
    metric_rows = _csv_rows(os.path.join(run_dir, harness.METRICS))
    last_ckpt = harness.ckpt_path(run_dir, TINY_TRAIN_STEPS)
    values = {"train_loss": float(norms[-1][2])}
    for row in metric_rows:
        values[f"val_ce_fp@{row[1]}"] = float(row[5])
    return OpResult(
        digest(norms[-1], metric_rows, file_checksum(last_ckpt)), values,
        tokens=TINY_TRAIN_STEPS * st.cfg["train.batch_size"] * st.cfg["data.seq_len"],
        steps=TINY_TRAIN_STEPS,
    )


def _record_values(recs) -> Dict[str, float]:
    values = {}
    for rec in recs:
        tag = f"{rec.run_id[-6:]}@{rec.step}"
        values[f"val_ce_fp {tag}"] = rec.val_ce_fp
        for b, v in rec.val_ce_q.items():
            values[f"val_ce_q{b} {tag}"] = v
    return values


def _rows(recs) -> list:
    return [sorted(record_to_row(r).items()) for r in recs]


def op_qeval_desk(st: State, i: int) -> OpResult:
    """cmd_quantize_eval of the one desk checkpoint at bits 3,4 with GPTQ."""
    recs, fails = harness.cmd_quantize_eval(st.extra["run_dir"], bits=st.cfg["quant.bits"])
    return OpResult(digest(_rows(recs)), _record_values(recs), failures=len(fails),
                    checkpoints=len(recs))


def trained_steps(run_dir: str) -> List[int]:
    """Stored checkpoint steps after the untrained step-0 init."""
    return [s for s in harness.list_ckpt_steps(run_dir) if s > 0]


def op_trajectory_tiny(st: State, i: int) -> OpResult:
    """LAWA over the stored run, then quantize-eval of both families.

    The ckpt family skips the step-0 init (7 s of untrained-model GPTQ);
    steps 20 and 100 remain, two jobs for the harness pool.
    """
    run_dir = st.extra["run_dir"]
    k, interval = st.cfg["lawa.k"], st.cfg["lawa.interval"]
    t0 = time.perf_counter()
    lawa_paths = harness.cmd_average(run_dir, k, interval)
    average_s = time.perf_counter() - t0
    recs, fails = harness.cmd_quantize_eval(run_dir, bits=st.cfg["quant.bits"], kind="ckpt",
                                            steps=trained_steps(run_dir))
    lrecs, lfails = harness.cmd_quantize_eval(run_dir, bits=st.cfg["quant.bits"], kind=f"lawa{k}")
    return OpResult(
        digest(_rows(recs + lrecs), [file_checksum(p) for p in lawa_paths]),
        _record_values(recs + lrecs), failures=len(fails) + len(lfails),
        checkpoints=len(recs) + len(lrecs), average_s=average_s,
    )


def prepare_op(st: State, i: int) -> None:
    """Untimed work before operation i: the quantize-eval workloads get a
    fresh copy of the stored run, so every operation does the same reads
    and writes."""
    if st.extra["fixture_run"]:
        dst = os.path.join(st.scratch, f"op{i}", os.path.basename(st.extra["fixture_run"]))
        shutil.copytree(st.extra["fixture_run"], dst)
        st.extra["run_dir"] = dst


OPS: Dict[str, Callable[[State, int], OpResult]] = {
    "train-desk": op_train_desk,
    "train-tiny": op_train_tiny,
    "qeval-desk": op_qeval_desk,
    "trajectory-tiny": op_trajectory_tiny,
}

# -- checkpoint round trip (training workloads) -----------------------------------------


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def round_trip(name: str, st: State) -> RoundTrip:
    """One timed save and one timed load of the training state, compared.

    train-desk saves its in-memory checkpoint and optimizer state and
    loads them back. train-tiny loads the final checkpoint and optimizer
    state of its last cmd_train run and saves them again, which must
    repeat the file bytes.
    """
    out_dir = os.path.join(st.scratch, "roundtrip")
    os.makedirs(out_dir)
    ck_out, opt_out = os.path.join(out_dir, "ckpt.qlab"), os.path.join(out_dir, "ckpt.opt.qlab")
    got = {}
    if name == "train-desk":
        x = st.extra
        save_s = _timed(lambda: (model.save_checkpoint(ck_out, x["ckpt"]),
                                 harness.save_opt_state(opt_out, x["opt"], x["cursor"])))
        load_s = _timed(lambda: got.update(ck=model.load_checkpoint(ck_out),
                                           opt=harness.load_opt_state(opt_out)))
        ck, (opt, cursor) = got["ck"], got["opt"]
        same = ck.step == x["ckpt"].step and cursor == x["cursor"] and opt.t == x["opt"].t
        for mine, theirs in ((x["ckpt"].tensors, ck.tensors), (x["opt"].m, opt.m),
                             (x["opt"].v, opt.v)):
            same = same and all(np.array_equal(t, theirs[k]) for k, t in mine.items())
    else:
        run_dir = st.extra["run_dir"]
        src = harness.ckpt_path(run_dir, TINY_TRAIN_STEPS)
        src_opt = harness.opt_path(run_dir, TINY_TRAIN_STEPS)
        load_s = _timed(lambda: got.update(ck=model.load_checkpoint(src),
                                           opt=harness.load_opt_state(src_opt)))
        save_s = _timed(lambda: (model.save_checkpoint(ck_out, got["ck"]),
                                 harness.save_opt_state(opt_out, *got["opt"])))
        same = True
        for a, b in ((src, ck_out), (src_opt, opt_out)):
            with open(a, "rb") as fa, open(b, "rb") as fb:
                same = same and fa.read() == fb.read()
    mb = (os.path.getsize(ck_out) + os.path.getsize(opt_out)) / 1e6
    return RoundTrip(save_s, load_s, mb, file_checksum(ck_out), bool(same))
