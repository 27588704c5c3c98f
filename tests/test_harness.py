import os

import numpy as np
import pytest

from conftest import micro_train_config
from qlab.config import run_id_of, schedule_spec
from qlab.errors import ConfigError
from qlab.harness import (
    MANIFEST,
    METRICS,
    NORMS,
    QUANT_LAYERS,
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
from qlab.metrics import MetricsStore
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

    def crashed(name, save, step):
        """A run whose `save` (harness.save_checkpoint or save_opt_state)
        raised at `step`: the files it wrote before stay."""
        real = getattr(harness, save)

        def crashing(path, *args, **kwargs):
            if os.path.basename(path).startswith(f"ckpt_{step}."):
                raise _Crash(path)
            real(path, *args, **kwargs)

        monkeypatch.setattr(harness, save, crashing)
        with pytest.raises(_Crash):
            cmd_train(cfg, str(tmp_path / name))
        monkeypatch.undo()
        return os.path.join(str(tmp_path / name), os.path.basename(full_dir))

    # case 2: a crash while saving the step-20 checkpoint, after norm row 15
    crash_dir = crashed("crash", "save_checkpoint", 20)
    assert list_ckpt_steps(crash_dir)[-1] == 10
    assert "\n15," in read(os.path.join(crash_dir, NORMS))
    # case 3: a crash inside save_opt_state at step 20, after ckpt_20.qlab
    half_dir = crashed("half", "save_opt_state", 20)
    assert os.path.exists(ckpt_path(half_dir, 20)) and not os.path.exists(opt_path(half_dir, 20))
    # cases 4 and 5: a crash saving the start state, with or without ckpt_0.qlab
    start_dirs = [crashed(f"start-{f}", f, 0) for f in ("save_checkpoint", "save_opt_state")]
    assert [sorted(os.listdir(d)) for d in start_dirs] == [[MANIFEST], ["ckpt_0.qlab", MANIFEST]]

    for interrupted in (part_dir, crash_dir, half_dir, *start_dirs):
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
    unbroken = cmd_branch(trunk, 20, decay_steps=4, out_root=str(tmp_path / "unbroken"))
    good = read_bytes(ckpt_path(trunk, 20))
    with open(ckpt_path(trunk, 20), "wb") as f:  # one payload byte flipped: a bad checksum
        f.write(good[:-40] + bytes([good[-40] ^ 1]) + good[-39:])
    with pytest.raises(QlabError):
        cmd_branch(trunk, 20, decay_steps=4, out_root=root)
    child = os.path.join(root, os.path.basename(unbroken))
    assert os.listdir(child) == [MANIFEST]  # the start failed after the manifest
    with open(ckpt_path(trunk, 20), "wb") as f:
        f.write(good)
    assert cmd_branch(trunk, 20, decay_steps=4, out_root=root) == child
    assert run_files(child) == run_files(unbroken)


def test_branch_requires_checkpoint(trained_run):
    _, run_dir = trained_run
    with pytest.raises(ConfigError) as exc:
        cmd_branch(run_dir, 33)
    assert "33" in str(exc.value)


def test_branch_matches_equivalent_single_run(tmp_path, corpus_path):
    # constant trunk + cooldown == one wsd run with the same total
    cfg = micro_train_config(
        corpus_path,
        **{"schedule.kind": "constant", "schedule.total_steps": 40,
           "schedule.warmup_frac": 0.1, "schedule.decay_frac": 0.0},
    )
    root = str(tmp_path / "runs")
    trunk = cmd_train(cfg, root)
    child = cmd_branch(trunk, 40, decay_steps=10, out_root=root)
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


def test_branch_of_wsd_at_decay_start_continues_identically(tmp_path, corpus_path):
    cfg = micro_train_config(corpus_path)  # wsd total 60, decay 12 -> decay starts at 48
    root = str(tmp_path / "runs")
    trunk = cmd_train(cfg, root)
    child = cmd_branch(trunk, 48, decay_steps=12, out_root=root)
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
    c1 = cmd_branch(trunk, 20, decay_steps=5, out_root=root)
    c2 = cmd_branch(trunk, 30, decay_steps=5, out_root=root)
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
    child = cmd_branch(trunk, 6, out_root=root)
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
    child = cmd_branch(trunk, 20, decay_steps=4, out_root=root)
    assert loads == [ckpt_path(trunk, 20), opt_path(trunk, 20)]
    del loads[:]
    assert cmd_branch(trunk, 20, decay_steps=4, out_root=root) == child
    assert loads == []  # neither the parent's state nor the finished child's
    cmd_branch(trunk, 20, decay_steps=4, out_root=root, force=True)
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
    layers_csv = read(os.path.join(run_dir, QUANT_LAYERS))
    assert "layers.0.attn.wq" in layers_csv


def test_quantize_eval_rerun_is_idempotent(trained_run):
    cfg, run_dir = trained_run
    cmd_quantize_eval(run_dir, bits=(3, 4), steps=[60])
    before = {t: read(os.path.join(run_dir, t)) for t in (METRICS, QUANT_LAYERS)}
    records, failures = cmd_quantize_eval(run_dir, bits=(3, 4), steps=[60])
    assert not failures
    assert {t: read(os.path.join(run_dir, t)) for t in (METRICS, QUANT_LAYERS)} == before


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
    records, failures = cmd_quantize_eval(run_dir, bits=(4, 3, 4, 3), steps=steps)
    assert not failures and len(records) == 2
    # two checkpoints run as jobs, each its bit widths in order
    for s in steps:
        assert [b for step, b in calls if step == s] == [4, 3]


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
    _, cells, summary = cmd_sweep(str(plan), out_root)
    assert not any(c.error for c in cells) and len(cells) == 4
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


def test_sweep_rerun_resumes_every_cell(tmp_path, corpus_path):
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
    assert main(argv) == 0
    assert read_bytes(str(tmp_path / "sweep" / "summary.csv")) == first


def test_lineage_forms_forest(tmp_path, corpus_path):
    cfg = micro_train_config(
        corpus_path,
        **{"schedule.kind": "constant", "schedule.total_steps": 20,
           "schedule.warmup_frac": 0.1, "schedule.decay_frac": 0.0},
    )
    root = str(tmp_path / "runs")
    trunk = cmd_train(cfg, root)
    child = cmd_branch(trunk, 20, decay_steps=4, out_root=root)
    grand = cmd_branch(child, 20, decay_steps=2, out_root=root)
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
    _, cells, summary = cmd_sweep(str(plan), out_root)
    assert not cells[0].error and len(cells) == 1
    from qlab.config import resolve

    plain = tmp_path / "plain.cfg"
    plain.write_text("\n".join(
        ln for ln in plan.read_text().splitlines() if not ln.startswith("sweep.")
    ))
    cfg = resolve(str(plain))
    cfg["model.init_seed"] = 5
    cfg["data.seed"] = 5
    assert os.path.basename(cells[0].run_dir) == run_id_of(cfg)
