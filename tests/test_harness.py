import os
import shutil

import numpy as np
import pytest

from conftest import micro_train_config
from qlab.config import run_id_of, schedule_spec
from qlab.errors import ConfigError
from qlab.harness import (
    MANIFEST,
    METRICS,
    NORMS,
    QEVAL,
    branch_config,
    ckpt_path,
    cmd_average,
    cmd_branch,
    cmd_quantize_eval,
    cmd_soup,
    cmd_sweep,
    cmd_train,
    list_ckpt_steps,
    load_manifest,
    load_opt_state,
    opt_path,
    save_opt_state,
)
from qlab.metrics import MetricsStore, QevalTable, fmt_real
from qlab.model import init, load_checkpoint
from qlab.optim import OptimState, init_opt_state


def read(path):
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory, corpus_path):
    out = str(tmp_path_factory.mktemp("runs"))
    cfg = micro_train_config(corpus_path)
    run_dir = cmd_train(cfg, out)
    return cfg, run_dir


def test_train_produces_run_artifacts(trained_run):
    cfg, run_dir = trained_run
    assert os.path.isdir(run_dir)
    assert os.path.basename(run_dir) == run_id_of(cfg)
    manifest = load_manifest(run_dir)
    assert manifest["run.id"] == run_id_of(cfg)
    assert manifest["run.eval_set_hash"]
    steps = list_ckpt_steps(run_dir)
    assert 0 in steps and 60 in steps and 10 in steps
    # phase boundary checkpoints: warmup end 6, decay start 48
    assert 6 in steps and 48 in steps
    csv = read(os.path.join(run_dir, METRICS))
    assert csv.count("\n") >= 3  # header + eval rows at 20/40/60
    norms = read(os.path.join(run_dir, NORMS)).strip().splitlines()
    assert norms[0] == "step,lr,train_loss,grad_norm,weight_norm"
    vals = [line.split(",") for line in norms[1:]]
    assert all(float(v[4]) > 0 and np.isfinite(float(v[4])) for v in vals)


def test_plain_rerun_of_a_finished_run_reads_nothing(trained_run, loads):
    cfg, run_dir = trained_run
    files = run_files(run_dir)
    assert cmd_train(cfg, os.path.dirname(run_dir)) == run_dir
    assert loads == []
    assert run_files(run_dir) == files


def test_opt_state_roundtrip(tmp_path):
    from conftest import tiny_model_config

    ck = init(tiny_model_config())
    st = init_opt_state(ck)
    st.t = 7
    path = str(tmp_path / "o.qlab")
    save_opt_state(path, st, cursor=123)
    back, cursor = load_opt_state(path)
    assert back.t == 7 and cursor == 123
    assert set(back.m) == set(ck.tensors)
    for k in ck.tensors:
        assert back.m[k].shape == ck.tensors[k].shape


def test_opt_state_load_refuses_checkpoint_file(tmp_path):
    from conftest import tiny_model_config
    from qlab.model import save_checkpoint

    path = str(tmp_path / "ckpt_0.qlab")
    save_checkpoint(path, init(tiny_model_config()))
    with pytest.raises(ConfigError, match="optimizer metadata"):
        load_opt_state(path)


class _Crash(Exception):
    pass


def test_resume_bitwise_equals_unbroken(tmp_path, corpus_path, monkeypatch):
    from qlab import harness

    # norm rows every 5 steps, checkpoints every 10: a resume re-runs norm rows
    cfg = micro_train_config(corpus_path, **{"train.log_interval": 5})
    full_dir = cmd_train(cfg, str(tmp_path / "full"))

    # case 1: a planned stop at step 30
    part_dir = cmd_train(cfg, str(tmp_path / "split"), stop_after=30)
    assert list_ckpt_steps(part_dir)[-1] == 30

    def crashed(name, fn, crashes):
        """A run whose harness.`fn` raised on the first call whose first
        argument `crashes` accepts: the files it wrote before stay."""
        real = getattr(harness, fn)

        def crashing(first, *args, **kwargs):
            if crashes(first):
                raise _Crash(fn)
            return real(first, *args, **kwargs)

        monkeypatch.setattr(harness, fn, crashing)
        with pytest.raises(_Crash):
            cmd_train(cfg, str(tmp_path / name))
        monkeypatch.undo()
        return os.path.join(str(tmp_path / name), os.path.basename(full_dir))

    def saving(step):  # harness.save_checkpoint's or save_opt_state's file of `step`
        return lambda path: os.path.basename(path).startswith(f"ckpt_{step}.")

    # case 2: a crash while saving the step-20 checkpoint, after norm row 15
    crash_dir = crashed("crash", "save_checkpoint", saving(20))
    assert list_ckpt_steps(crash_dir)[-1] == 10
    assert "\n15," in read(os.path.join(crash_dir, NORMS))
    # case 3: a crash inside save_opt_state at step 20, after ckpt_20.qlab
    half_dir = crashed("half", "save_opt_state", saving(20))
    assert os.path.exists(ckpt_path(half_dir, 20)) and not os.path.exists(opt_path(half_dir, 20))
    # cases 4 and 5: a crash saving the start state, with or without ckpt_0.qlab
    start_dirs = [crashed(f"start-{f}", f, saving(0)) for f in ("save_checkpoint", "save_opt_state")]
    assert [sorted(os.listdir(d)) for d in start_dirs] == [[MANIFEST], ["ckpt_0.qlab", MANIFEST]]
    # case 6: a crash inside the step-20 eval, which runs before that step's
    # checkpoint, so the resume starts at 10 and re-emits the step's rows
    eval_dir = crashed("eval", "eval_ce", lambda target: target.step == 20)
    assert list_ckpt_steps(eval_dir)[-1] == 10

    for interrupted in (part_dir, crash_dir, half_dir, *start_dirs, eval_dir):
        resumed_dir = cmd_train(cfg, os.path.dirname(interrupted))
        assert resumed_dir == interrupted
        assert run_files(resumed_dir) == run_files(full_dir)


def test_resume_of_a_finished_run_builds_no_calibration_set(trained_run, monkeypatch):
    from qlab import harness

    cfg, run_dir = trained_run
    built, real = [], harness.RunData.calibration

    def calibration(self, cfg):
        built.append(cfg["quant.calib_samples"])
        return real(self, cfg)

    monkeypatch.setattr(harness.RunData, "calibration", calibration)
    manifest = read(os.path.join(run_dir, harness.MANIFEST))
    assert cmd_train(cfg, os.path.dirname(run_dir)) == run_dir
    assert built == []
    assert read(os.path.join(run_dir, harness.MANIFEST)) == manifest


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def run_files(run_dir):
    """Every file of a run directory by name."""
    return {n: read_bytes(os.path.join(run_dir, n)) for n in os.listdir(run_dir)}


def test_branch_whose_parent_failed_to_load_reruns_once_repaired(tmp_path, corpus_path):
    from qlab.errors import QlabError

    cfg = micro_train_config(
        corpus_path,
        **{"schedule.kind": "constant", "schedule.total_steps": 20, "schedule.decay_frac": 0.0},
    )
    root = str(tmp_path / "runs")
    trunk = cmd_train(cfg, root)
    copy = str(tmp_path / "unbroken" / os.path.basename(trunk))
    shutil.copytree(trunk, copy)
    unbroken = cmd_branch(copy, 20, decay_steps=4)
    good = read_bytes(ckpt_path(trunk, 20))
    with open(ckpt_path(trunk, 20), "wb") as f:  # one payload byte flipped: a bad checksum
        f.write(good[:-40] + bytes([good[-40] ^ 1]) + good[-39:])
    with pytest.raises(QlabError) as exc:
        cmd_branch(trunk, 20, decay_steps=4)
    assert ckpt_path(trunk, 20) in str(exc.value)
    assert os.listdir(root) == [os.path.basename(trunk)]  # refused before the first write
    with open(ckpt_path(trunk, 20), "wb") as f:
        f.write(good)
    child = cmd_branch(trunk, 20, decay_steps=4)
    assert child == os.path.join(root, os.path.basename(unbroken))
    assert run_files(child) == run_files(unbroken)


def test_branch_refuses_a_corpus_changed_since_its_parent_trained(tmp_path):
    from conftest import make_corpus_bytes

    corpus = tmp_path / "corpus.bin"
    corpus.write_bytes(make_corpus_bytes())
    cfg = micro_train_config(
        str(corpus),
        **{"schedule.kind": "constant", "schedule.total_steps": 12, "schedule.decay_frac": 0.0},
    )
    root = str(tmp_path / "runs")
    trunk = cmd_train(cfg, root)
    corpus.write_bytes(make_corpus_bytes(seed=5))
    # the settings record no data sets (a sweep's cell): the parent's manifest does
    with pytest.raises(ConfigError, match=f"eval set hash mismatch for run {run_id_of(cfg)}"):
        cmd_train(branch_config(cfg, 12), root)
    assert os.listdir(root) == [os.path.basename(trunk)]


def test_branch_requires_checkpoint(trained_run):
    cfg, run_dir = trained_run
    with pytest.raises(ConfigError) as exc:
        cmd_branch(run_dir, 33)
    assert ckpt_path(run_dir, 33) in str(exc.value)
    child = run_id_of(branch_config(cfg, 33))
    assert not os.path.exists(os.path.join(os.path.dirname(run_dir), child))


def test_branch_matches_equivalent_single_run(tmp_path, corpus_path):
    # constant trunk + cooldown == one wsd run with the same total
    cfg = micro_train_config(
        corpus_path,
        **{"schedule.kind": "constant", "schedule.total_steps": 40,
           "schedule.warmup_frac": 0.1, "schedule.decay_frac": 0.0},
    )
    root = str(tmp_path / "runs")
    trunk = cmd_train(cfg, root)
    child = cmd_branch(trunk, 40, decay_steps=10)
    man = load_manifest(child)
    assert man["run.parent_id"] == load_manifest(trunk)["run.id"]
    assert int(man["run.branch_step"]) == 40
    spec = schedule_spec(man)
    assert spec.total_steps == 50 and spec.decay_steps == 10 and spec.warmup_steps == 4

    single_cfg = micro_train_config(
        corpus_path,
        **{"schedule.kind": "wsd", "schedule.total_steps": 50,
           "schedule.warmup_frac": 4 / 50, "schedule.decay_frac": 10 / 50},
    )
    single = cmd_train(single_cfg, str(tmp_path / "single"))
    a = load_checkpoint(ckpt_path(child, 50))
    b = load_checkpoint(ckpt_path(single, 50))
    for k in a.tensors:
        assert np.array_equal(a.tensors[k], b.tensors[k])


def test_branch_decays_to_the_parents_min_lr(tmp_path, corpus_path):
    min_lr = 3e-4
    cfg = micro_train_config(
        corpus_path,
        **{"schedule.kind": "constant", "schedule.total_steps": 20, "schedule.min_lr": min_lr,
           "schedule.warmup_frac": 0.1, "schedule.decay_frac": 0.0},
    )
    root = str(tmp_path / "runs")
    child = cmd_branch(cmd_train(cfg, root), 20, decay_steps=4)
    assert load_manifest(child)["schedule.min_lr"] == min_lr
    header, *_, last = read(os.path.join(child, NORMS)).strip().splitlines()
    final = dict(zip(header.split(","), last.split(",")))
    assert final["step"] == "24" and final["lr"] == fmt_real(min_lr)


def test_branch_of_wsd_at_decay_start_continues_identically(tmp_path, corpus_path):
    cfg = micro_train_config(corpus_path)  # wsd total 60, decay 12 -> decay starts at 48
    root = str(tmp_path / "runs")
    trunk = cmd_train(cfg, root)
    child = cmd_branch(trunk, 48, decay_steps=12)
    for step in (50, 60):
        a = load_checkpoint(ckpt_path(trunk, step))
        b = load_checkpoint(ckpt_path(child, step))
        for k in a.tensors:
            assert np.array_equal(a.tensors[k], b.tensors[k])


def test_branch_shares_trunk_prefix(tmp_path, corpus_path):
    cfg = micro_train_config(
        corpus_path,
        **{"schedule.kind": "constant", "schedule.total_steps": 30,
           "schedule.warmup_frac": 0.1, "schedule.decay_frac": 0.0},
    )
    root = str(tmp_path / "runs")
    trunk = cmd_train(cfg, root)
    c1 = cmd_branch(trunk, 20, decay_steps=5)
    c2 = cmd_branch(trunk, 30, decay_steps=5)
    assert c1 != c2
    t = read_bytes(ckpt_path(trunk, 20))
    assert read_bytes(ckpt_path(c1, 20)) == t  # branch starts from the trunk state
    assert read_bytes(ckpt_path(c2, 30)) == read_bytes(ckpt_path(trunk, 30))


def test_default_cooldown_takes_at_least_two_steps(tmp_path, corpus_path):
    # the default 0.1 x 6 rounds to 1 step, which would run at LR 0 (a decay's last step)
    cfg = micro_train_config(
        corpus_path,
        **{"schedule.kind": "constant", "schedule.total_steps": 12,
           "schedule.decay_frac": 0.0, "train.ckpt_interval": 6},
    )
    root = str(tmp_path / "runs")
    trunk = cmd_train(cfg, root)
    child = cmd_branch(trunk, 6)
    spec = schedule_spec(load_manifest(child))
    assert spec.total_steps == 8 and spec.decay_steps == 2
    a = load_checkpoint(ckpt_path(trunk, 6))
    b = load_checkpoint(ckpt_path(child, 8))
    assert any(not np.array_equal(a.tensors[k], b.tensors[k]) for k in a.tensors)


@pytest.fixture
def loads(monkeypatch):
    """Every checkpoint and optimizer-state file harness reads, in order."""
    from qlab import harness

    paths = []
    for name in ("load_checkpoint", "load_opt_state"):
        real = getattr(harness, name)
        monkeypatch.setattr(harness, name, lambda p, real=real: (paths.append(p), real(p))[1])
    return paths


def test_finished_rerun_loads_nothing_and_a_stopped_one_its_last_state(
    tmp_path, corpus_path, loads
):
    cfg = micro_train_config(corpus_path, **{"schedule.total_steps": 20})
    root = str(tmp_path / "runs")
    run_dir = cmd_train(cfg, root, stop_after=12)
    assert loads == []
    cmd_train(cfg, root)  # a stop saves a checkpoint where it stops
    assert loads == [ckpt_path(run_dir, 12), opt_path(run_dir, 12)]
    del loads[:]
    files = {n: read_bytes(os.path.join(run_dir, n)) for n in os.listdir(run_dir)}
    assert cmd_train(cfg, root) == run_dir
    assert loads == []
    assert {n: read_bytes(os.path.join(run_dir, n)) for n in os.listdir(run_dir)} == files


def test_branch_loads_its_parent_only_when_it_starts_fresh(tmp_path, corpus_path, loads):
    cfg = micro_train_config(
        corpus_path,
        **{"schedule.kind": "constant", "schedule.total_steps": 20, "schedule.decay_frac": 0.0},
    )
    root = str(tmp_path / "runs")
    trunk = cmd_train(cfg, root)
    child = cmd_branch(trunk, 20, decay_steps=4)
    assert loads == [ckpt_path(trunk, 20), opt_path(trunk, 20)]
    del loads[:]
    assert cmd_branch(trunk, 20, decay_steps=4) == child
    assert loads == []  # neither the parent's state nor the finished child's
    cmd_branch(trunk, 20, decay_steps=4, force=True)
    assert loads == [ckpt_path(trunk, 20), opt_path(trunk, 20)]


def test_quantize_eval_appends_rows(trained_run):
    cfg, run_dir = trained_run
    records, failures = cmd_quantize_eval(run_dir, bits=(3, 4), steps=[60])
    assert not failures and len(records) == 1
    rec = records[0]
    assert rec.step == 60
    assert 3 in rec.val_ce_q and 4 in rec.val_ce_q
    assert rec.rel_ce_err[3] == rec.val_ce_q[3] / rec.val_ce_fp - 1.0
    assert abs(rec.delta_ptq[3] - rec.rel_ce_err[3] * rec.val_ce_fp) < 1e-12
    store = MetricsStore(os.path.join(run_dir, METRICS))
    row = store.rows[(rec.run_id, "60")]
    assert row["val_ce_q3"] and row["val_ce_q4"] and row["rel_ce_err3"]
    assert row["train_loss"]  # merged with the training row
    table = QevalTable(os.path.join(run_dir, QEVAL))
    assert "layers.0.attn.wq" in {k[-1] for k in table.rows if k[3] in ("3", "4")}


def test_quantize_eval_rerun_is_idempotent(trained_run):
    cfg, run_dir = trained_run
    cmd_quantize_eval(run_dir, bits=(3, 4), steps=[60])
    before = {t: read(os.path.join(run_dir, t)) for t in (METRICS, QEVAL)}
    records, failures = cmd_quantize_eval(run_dir, bits=(3, 4), steps=[60])
    assert not failures
    assert {t: read(os.path.join(run_dir, t)) for t in (METRICS, QEVAL)} == before


@pytest.fixture(scope="module")
def unevaluated_run(tmp_path_factory, corpus_path):
    """A micro run nothing but training wrote to; tests copy it. Its eval
    hook (every 20 steps) and checkpoint hook (every 10) meet at 20, 40
    and 60."""
    return cmd_train(micro_train_config(corpus_path), str(tmp_path_factory.mktemp("fresh")))


def count_work(monkeypatch) -> dict:
    """Counts harness.quantize_model calls (step, bits) and harness.eval_ce
    calls while `monkeypatch` holds its patches."""
    from qlab import harness

    made = {"quantize": [], "eval": 0}
    real_quantize, real_eval = harness.quantize_model, harness.eval_ce

    def quantize(ckpt, calib, qcfg):
        made["quantize"].append((ckpt.step, qcfg.bits))
        return real_quantize(ckpt, calib, qcfg)

    def evaluate(target, batches):
        made["eval"] += 1
        return real_eval(target, batches)

    monkeypatch.setattr(harness, "quantize_model", quantize)
    monkeypatch.setattr(harness, "eval_ce", evaluate)
    return made


def test_training_records_the_fp_result_of_each_evaluated_checkpoint(unevaluated_run):
    from qlab.model import read_checkpoint

    table = QevalTable(os.path.join(unevaluated_run, QEVAL))
    assert {k[2] for k in table.rows} == {"fp"}
    recorded = [k[0] for k in table.rows]
    assert recorded == [read_checkpoint(ckpt_path(unevaluated_run, s))[1] for s in (20, 40, 60)]
    metrics = MetricsStore(os.path.join(unevaluated_run, METRICS))
    for key, row in zip(table.rows, [metrics.rows[(os.path.basename(unevaluated_run), str(s))]
                                     for s in (20, 40, 60)]):
        ce, acc, _ = table.get(key[:-1])
        assert (fmt_real(ce), fmt_real(acc)) == (row["val_ce_fp"], row["acc_fp"])


def test_quantize_eval_of_an_eval_hook_step_makes_no_fp_pass(
    tmp_path, unevaluated_run, monkeypatch
):
    run_dir = shutil.copytree(unevaluated_run, str(tmp_path / "run"))
    work = count_work(monkeypatch)
    cmd_quantize_eval(run_dir, bits=(3,), steps=[40])
    assert work == {"quantize": [(40, 3)], "eval": 1}  # the 3-bit model's only
    cmd_quantize_eval(run_dir, bits=(3,), steps=[30])  # no eval hook at 30
    assert work == {"quantize": [(40, 3), (30, 3)], "eval": 3}


def test_quantize_eval_rerun_recomputes_nothing_and_force_everything(
    tmp_path, unevaluated_run, monkeypatch
):
    run_dir = shutil.copytree(unevaluated_run, str(tmp_path / "run"))
    assert cmd_quantize_eval(run_dir, bits=(3, 4), steps=[30, 40])[1] == []
    files = run_files(run_dir)
    for force, calls, evals in ((False, [], 0), (True, [(30, 3), (30, 4), (40, 3), (40, 4)], 6)):
        with monkeypatch.context() as m:
            made = count_work(m)
            records, failures = cmd_quantize_eval(run_dir, bits=(3, 4), steps=[30, 40],
                                                  force=force)
        assert not failures and [r.step for r in records] == [30, 40]
        assert sorted(made["quantize"]) == calls and made["eval"] == evals
        assert run_files(run_dir) == files


def test_force_replaces_a_recorded_result_that_differs(tmp_path, unevaluated_run):
    from qlab.errors import MergeError

    run_dir = shutil.copytree(unevaluated_run, str(tmp_path / "run"))
    cmd_quantize_eval(run_dir, bits=(3,), steps=[60])
    files = run_files(run_dir)
    table = QevalTable(os.path.join(run_dir, QEVAL))
    row = next(r for r in table.rows.values() if r["bits"] == "3" and not r["layer"])
    row["ce"] = repr(float(row["ce"]) * 1.01)  # as if recorded before an arithmetic change
    table.save()
    edited = run_files(run_dir)
    # the edited value is reused, and conflicts with metrics.csv's
    with pytest.raises(MergeError, match="val_ce_q3"):
        cmd_quantize_eval(run_dir, bits=(3,), steps=[60])
    assert run_files(run_dir) == edited
    cmd_quantize_eval(run_dir, bits=(3,), steps=[60], force=True)
    assert run_files(run_dir) == files


def test_a_byte_identical_checkpoint_reuses_the_recorded_results(
    tmp_path, unevaluated_run, monkeypatch
):
    run_dir = shutil.copytree(unevaluated_run, str(tmp_path / "run"))
    cmd_average(run_dir, k=1, interval=10)  # a one-checkpoint window: the checkpoint itself
    assert read_bytes(ckpt_path(run_dir, 30, "lawa1")) == read_bytes(ckpt_path(run_dir, 30))
    cmd_quantize_eval(run_dir, bits=(3, 4), steps=[30])
    with monkeypatch.context() as m:
        made = count_work(m)
        records, failures = cmd_quantize_eval(run_dir, bits=(3, 4), steps=[30], kind="lawa1")
    assert not failures and records[0].run_id.endswith("-lawa1")
    assert made == {"quantize": [], "eval": 0}
    reused = run_files(run_dir)
    cmd_quantize_eval(run_dir, bits=(3, 4), steps=[30], kind="lawa1", force=True)
    assert run_files(run_dir) == reused  # the rows recomputation writes


def test_a_rerun_that_reuses_every_result_returns_the_fresh_records(tmp_path, unevaluated_run):
    run_dir = shutil.copytree(unevaluated_run, str(tmp_path / "run"))
    cmd_average(run_dir, k=2, interval=10)
    for kind, steps in (("ckpt", [30, 40]), ("lawa2", [20, 30])):
        fresh, failures = cmd_quantize_eval(run_dir, bits=(3, 4), steps=steps, kind=kind)
        assert not failures and [r.step for r in fresh] == steps
        reused, failures = cmd_quantize_eval(run_dir, bits=(3, 4), steps=steps, kind=kind)
        assert not failures and [vars(r) for r in reused] == [vars(r) for r in fresh]


def test_each_quantized_metrics_row_is_rendered_from_qeval_csv(tmp_path, unevaluated_run):
    from qlab import harness
    from qlab.metrics import record_to_row
    from qlab.model import read_checkpoint
    from qlab.ndkernel import frobenius_norm
    from qlab.optim import schedule_value

    run_dir = shutil.copytree(unevaluated_run, str(tmp_path / "run"))
    cmd_quantize_eval(run_dir, bits=(3, 4), steps=[30, 40, 60])
    cmd_quantize_eval(run_dir, bits=(3,), method="rtn", steps=[10])  # qeval.csv only
    cfg = load_manifest(run_dir)
    data, spec = harness.build_data(cfg), schedule_spec(cfg)
    table = QevalTable(os.path.join(run_dir, QEVAL))
    rows = MetricsStore(os.path.join(run_dir, METRICS)).rows
    quantized = {int(step): row for (_, step), row in rows.items() if row["val_ce_q3"]}
    assert sorted(quantized) == [30, 40, 60]
    for step, row in quantized.items():
        ckpt, checksum = read_checkpoint(ckpt_path(run_dir, step))
        rec = table.record(cfg["run.id"], step, ckpt.tokens_seen,
                           schedule_value(spec, cfg["optim.peak_lr"], step),
                           frobenius_norm(*ckpt.tensors.values()),
                           *harness.qeval_keys(checksum, data.eval_hash, data.calib_hash,
                                              cfg, (3, 4)))
        # training alone fills train_loss and grad_norm
        assert row == dict(record_to_row(rec), train_loss=row["train_loss"],
                           grad_norm=row["grad_norm"])


KEY_CHANGES = {  # setting changed after a first 3-bit GPTQ eval -> (bits, quantizes, evals)
    "nothing": ({}, (3,), 0, 0),
    "bits": ({}, (4,), 1, 1),
    "method": ({"quant.method": "rtn"}, (3,), 1, 1),
    "group size": ({"quant.group_size": 16}, (3,), 1, 1),
    "damping": ({"quant.damping_frac": 0.02}, (3,), 1, 1),
    "propagation": ({"quant.propagate": False}, (3,), 1, 1),
    "static groups": ({"quant.static_groups": True}, (3,), 1, 1),
    "calibration samples": ({"quant.calib_samples": 4}, (3,), 1, 1),
    "eval set": ({"eval.batches": 2}, (3,), 1, 2),
}


@pytest.mark.parametrize("change", list(KEY_CHANGES))
def test_a_change_to_any_key_setting_recomputes(tmp_path, unevaluated_run, monkeypatch, change):
    from qlab import harness
    from qlab.model import read_checkpoint

    cfg = {k: v for k, v in load_manifest(unevaluated_run).items() if not k.startswith("run.")}
    ckpt, checksum = read_checkpoint(ckpt_path(unevaluated_run, 30))
    table = QevalTable(str(tmp_path / "qeval.csv"))
    data = harness.build_data(cfg)
    for key, result in harness.evaluate_checkpoint_quantized(ckpt, checksum, data, cfg, (3,),
                                                             table).items():
        table.put(key, *result)
    work = count_work(monkeypatch)
    settings, bits, quantizes, evals = KEY_CHANGES[change]
    cfg = dict(cfg, **settings)
    harness.evaluate_checkpoint_quantized(ckpt, checksum, harness.build_data(cfg), cfg, bits,
                                          table)
    assert (len(work["quantize"]), work["eval"]) == (quantizes, evals)


def test_gptq_quantize_eval_builds_one_calibration_set(trained_run, monkeypatch):
    from qlab import harness

    cfg, run_dir = trained_run
    built, real = [], harness.RunData.calibration

    def calibration(self, cfg):
        built.append(cfg["quant.calib_samples"])
        return real(self, cfg)

    monkeypatch.setattr(harness.RunData, "calibration", calibration)
    cmd_quantize_eval(run_dir, bits=(3,), method="gptq", steps=[60])
    assert built == [cfg["quant.calib_samples"]]


def test_repeated_bit_width_quantizes_once(trained_run, monkeypatch):
    from qlab import harness

    cfg, run_dir = trained_run
    calls, real = [], harness.quantize_model

    def count(ckpt, calib, qcfg):
        calls.append((ckpt.step, qcfg.bits))
        return real(ckpt, calib, qcfg)

    monkeypatch.setattr(harness, "quantize_model", count)
    steps = list_ckpt_steps(run_dir)[-2:]
    # force: earlier tests recorded these results, which would be reused
    records, failures = cmd_quantize_eval(run_dir, bits=(4, 3, 4, 3), steps=steps, force=True)
    assert not failures and len(records) == 2
    # two checkpoints run as jobs, each its bit widths in order
    for s in steps:
        assert [b for step, b in calls if step == s] == [4, 3]


def test_records_are_what_quantize_eval_returns_and_it_reads_each_checkpoint_once(
    trained_run, monkeypatch
):
    from qlab import harness

    cfg, run_dir = trained_run
    reads, real = [], harness.read_checkpoint
    monkeypatch.setattr(harness, "read_checkpoint", lambda p: (reads.append(p), real(p))[1])
    got, failures = cmd_quantize_eval(run_dir, bits=(3, 4), steps=[30, 60])
    assert not failures and sorted(reads) == [ckpt_path(run_dir, 30), ckpt_path(run_dir, 60)]
    assert harness.records(run_dir, (3, 4), [60, 30]) == got[::-1]


def test_quantize_eval_empty_selection_warns(trained_run):
    cfg, run_dir = trained_run
    records, failures = cmd_quantize_eval(run_dir, bits=(3,), steps=[])
    assert records == [] and failures == []


def test_quantize_eval_missing_step_is_error(trained_run):
    cfg, run_dir = trained_run
    with pytest.raises(ConfigError):
        cmd_quantize_eval(run_dir, bits=(3,), steps=[17])


def test_average_and_eval_lawa(trained_run):
    cfg, run_dir = trained_run
    paths = cmd_average(run_dir, k=3, interval=10)
    assert len(paths) == 6  # steps 10..60
    assert list_ckpt_steps(run_dir, kind="lawa3") == [10, 20, 30, 40, 50, 60]
    # averaged checkpoints evaluate under their own run id
    records, failures = cmd_quantize_eval(run_dir, bits=(3,), steps=[60], kind="lawa3")
    assert not failures and records[0].run_id.endswith("-lawa3")


def test_soup_cli_roundtrip(tmp_path, trained_run):
    cfg, run_dir = trained_run
    out = str(tmp_path / "merged.qlab")
    cmd_soup([(ckpt_path(run_dir, 50), 0.9), (ckpt_path(run_dir, 60), 0.1)], out)
    merged = load_checkpoint(out)
    a = load_checkpoint(ckpt_path(run_dir, 50))
    b = load_checkpoint(ckpt_path(run_dir, 60))
    for k in merged.tensors:
        expect = 0.9 * a.tensors[k].astype(np.float64) + 0.1 * b.tensors[k]
        assert np.max(np.abs(merged.tensors[k] - expect)) < 1e-7


def test_sweep_runs_cells_and_summary(tmp_path, corpus_path):
    plan = tmp_path / "plan.cfg"
    base = micro_train_config(corpus_path)
    lines = [f"{k} = {v}" for k, v in [
        ("data.path", corpus_path), ("data.seq_len", 32),
        ("model.d_model", 32), ("model.n_layers", 2), ("model.n_heads", 2),
        ("model.d_ff", 64), ("train.batch_size", 4),
        ("schedule.total_steps", 20), ("schedule.warmup_frac", 0.1),
        ("schedule.decay_frac", 0.2), ("train.ckpt_interval", 10),
        ("train.eval_interval", 10), ("eval.batches", 2), ("eval.batch_size", 4),
        ("quant.calib_samples", 4), ("quant.group_size", 32), ("quant.bits", "3"),
    ]]
    lines.append("sweep.optim.peak_lr = 1e-3, 3e-3")
    lines.append("sweep.seeds = 1, 2")
    plan.write_text("\n".join(lines))
    out_root = str(tmp_path / "sweep")
    sweep, failures, summary = cmd_sweep(str(plan), out_root)
    assert not failures and len(sweep.cells) == 4
    rows = read(summary).strip().splitlines()
    assert rows[0].startswith("run_id,seed,optim.peak_lr,final_step,val_ce_fp")
    assert len(rows) == 5
    # summary CE matches the tail row of each run's metrics CSV
    for line in rows[1:]:
        parts = line.split(",")
        run_id, ce = parts[0], parts[4]
        run_dir = os.path.join(out_root, run_id)
        store = MetricsStore(os.path.join(run_dir, METRICS))
        assert store.rows[(run_id, "20")]["val_ce_fp"] == ce


def test_sweep_rerun_resumes_every_cell(tmp_path, corpus_path, monkeypatch):
    from qlab.cli import main

    plan = tmp_path / "plan.cfg"
    plan.write_text("\n".join([
        f"data.path = {corpus_path}", "data.seq_len = 32", "model.d_model = 32",
        "model.n_layers = 2", "model.n_heads = 2", "model.d_ff = 64", "train.batch_size = 4",
        "schedule.total_steps = 20", "train.ckpt_interval = 10", "train.eval_interval = 10",
        "eval.batches = 2", "eval.batch_size = 4", "quant.calib_samples = 4",
        "quant.group_size = 32", "quant.bits = 3", "sweep.optim.peak_lr = 1e-3, 3e-3",
    ]))
    argv = ["sweep", "--plan", str(plan), "--out-root", str(tmp_path / "sweep")]
    assert main(argv) == 0
    first = read_bytes(str(tmp_path / "sweep" / "summary.csv"))
    assert first.count(b",ok\n") == 2
    made = count_work(monkeypatch)
    assert main(argv) == 0
    assert read_bytes(str(tmp_path / "sweep" / "summary.csv")) == first
    assert made == {"quantize": [], "eval": 0}  # every result came from qeval.csv
    assert main(argv + ["--force"]) == 0
    assert read_bytes(str(tmp_path / "sweep" / "summary.csv")) == first
    assert made["quantize"] == [(20, 3), (20, 3)]


def test_lineage_forms_forest(tmp_path, corpus_path):
    cfg = micro_train_config(
        corpus_path,
        **{"schedule.kind": "constant", "schedule.total_steps": 20,
           "schedule.warmup_frac": 0.1, "schedule.decay_frac": 0.0},
    )
    root = str(tmp_path / "runs")
    trunk = cmd_train(cfg, root)
    child = cmd_branch(trunk, 20, decay_steps=4)
    grand = cmd_branch(child, 20, decay_steps=2)
    trunk_m, child_m, grand_m = (load_manifest(d) for d in (trunk, child, grand))
    assert not trunk_m.get("run.parent_id")
    assert child_m["run.parent_id"] == trunk_m["run.id"]
    assert grand_m["run.parent_id"] == child_m["run.id"]
    assert int(child_m["run.branch_step"]) == 20 and int(grand_m["run.branch_step"]) == 20


def test_single_cell_sweep_equals_train(tmp_path, corpus_path):
    plan = tmp_path / "plan.cfg"
    plan.write_text(
        "\n".join(
            [
                f"data.path = {corpus_path}", "data.seq_len = 32",
                "model.d_model = 32", "model.n_layers = 2", "model.n_heads = 2",
                "model.d_ff = 64", "train.batch_size = 4",
                "schedule.total_steps = 20", "schedule.warmup_frac = 0.1",
                "schedule.decay_frac = 0.2", "train.ckpt_interval = 10",
                "train.eval_interval = 10", "eval.batches = 2",
                "eval.batch_size = 4", "quant.calib_samples = 4",
                "quant.group_size = 32", "quant.bits = 3", "sweep.seeds = 5",
            ]
        )
    )
    out_root = str(tmp_path / "sweep")
    sweep, failures, summary = cmd_sweep(str(plan), out_root)
    assert not failures and len(sweep.cells) == 1
    from qlab.config import resolve

    plain = tmp_path / "plain.cfg"
    plain.write_text("\n".join(
        ln for ln in plan.read_text().splitlines() if not ln.startswith("sweep.")
    ))
    cfg = resolve(str(plain))
    cfg["model.init_seed"] = 5
    cfg["data.seed"] = 5
    # the cell's run directory, as summary.csv names it
    run_id = read(summary).splitlines()[1].split(",")[0]
    assert run_id == run_id_of(sweep.cells[0]) == run_id_of(cfg)
    assert os.path.isdir(os.path.join(out_root, run_id_of(cfg)))
