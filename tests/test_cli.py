import logging
import os

import pytest

from conftest import make_corpus_bytes
from qlab import harness, quant
from qlab.cli import main
from qlab.config import resolve, run_id_of
from qlab.metrics import QevalTable


@pytest.fixture(scope="module")
def cfg_file(tmp_path_factory, corpus_path):
    path = tmp_path_factory.mktemp("cli") / "micro.cfg"
    path.write_text(
        f"""
data.path = {corpus_path}
data.seq_len = 32
model.d_model = 32
model.n_layers = 2
model.n_heads = 2
model.d_ff = 64
model.init_std = 0.05
schedule.total_steps = 30
schedule.warmup_frac = 0.1
schedule.decay_frac = 0.2
train.batch_size = 4
train.ckpt_interval = 10
train.eval_interval = 10
train.log_interval = 10
eval.batches = 2
eval.batch_size = 4
quant.calib_samples = 4
quant.group_size = 32
"""
    )
    return str(path)


def test_cli_train_eval_report_flow(tmp_path, cfg_file):
    root = str(tmp_path / "runs")
    assert main(["train", "--config", cfg_file, "--out-root", root]) == 0
    cfg = resolve(cfg_file)
    run_dir = os.path.join(root, run_id_of(cfg))
    assert os.path.isdir(run_dir)

    assert main(["eval", "--run", run_dir, "--bits", "3", "--steps", "30"]) == 0
    evaluated = _tree_bytes(run_dir)
    for extra in ([], ["--force"]):  # a rerun reuses qeval.csv's results, --force recomputes
        assert main(["eval", "--run", run_dir, "--bits", "3", "--steps", "30", *extra]) == 0
        assert _tree_bytes(run_dir) == evaluated

    out = str(tmp_path / "fig.svg")
    assert main(["report", "--run", run_dir, "--metric", "val_ce_fp", "--out", out]) == 0
    assert os.path.exists(out) and os.path.exists(out.replace(".svg", ".csv"))

    assert main(["average", "--run", run_dir, "--k", "2", "--interval", "10"]) == 0
    merged = str(tmp_path / "merged.qlab")
    c1 = os.path.join(run_dir, "ckpt_20.qlab")
    c2 = os.path.join(run_dir, "ckpt_30.qlab")
    assert main(["soup", "--ckpt", f"{c1}:0.9", "--ckpt", f"{c2}:0.1", "--out", merged]) == 0
    assert os.path.exists(merged)

    qout = str(tmp_path / "q.qlab")
    assert main(["quantize", "--ckpt", c2, "--bits", "3", "--method", "gptq",
                 "--set", "quant.group_size=32", "--set", "quant.calib_samples=4",
                 "--out", qout]) == 0
    assert os.path.exists(qout)


def test_cli_train_rerun_resumes_and_force_redoes(tmp_path, cfg_file, capsys):
    argv = ["train", "--config", cfg_file, "--out-root", str(tmp_path / "runs")]
    assert main(argv + ["--stop-after", "10"]) == 0
    run_dir = capsys.readouterr().out.strip()
    assert main(argv) == 0
    assert capsys.readouterr().out.strip() == run_dir
    finished = _tree_bytes(run_dir)
    assert any(name.endswith("ckpt_30.qlab") for name in finished)
    assert main(argv) == 0
    assert capsys.readouterr().out.strip() == run_dir
    assert _tree_bytes(run_dir) == finished
    with pytest.raises(SystemExit) as exc:  # there is no --resume: every rerun resumes
        main(argv + ["--resume"])
    assert exc.value.code == 2
    assert main(argv + ["--force"]) == 0


def test_cli_unknown_key_is_config_error(tmp_path, cfg_file):
    root = str(tmp_path / "runs2")
    rc = main(["train", "--config", cfg_file, "--out-root", root,
               "--set", "optim.nesterov=true"])
    assert rc == 2


@pytest.mark.parametrize("setting", ["eval.batches=0", "eval.batch_size=0"])
def test_cli_train_empty_eval_set_is_config_error(tmp_path, cfg_file, setting):
    root = str(tmp_path / "runs")
    assert main(["train", "--config", cfg_file, "--out-root", root, "--set", setting]) == 2
    assert not os.path.exists(root)


@pytest.mark.parametrize("setting", [
    "schedule.decay_frac=-0.5", "schedule.warmup_frac=-0.1", "schedule.total_steps=0",
])
def test_cli_train_negative_or_empty_schedule_is_config_error(tmp_path, cfg_file, setting):
    root = str(tmp_path / "runs")
    assert main(["train", "--config", cfg_file, "--out-root", root, "--set", setting]) == 2
    assert not os.path.exists(root)


@pytest.mark.parametrize("setting", [
    "train.batch_size=0", "train.batch_size=-2", "data.limit_bytes=-5", "model.n_heads=0",
    "model.d_model=0", "model.d_ff=0", "model.n_layers=-1", "model.vocab=100",
    "quant.calib_samples=0", "quant.calib_samples=-1", "schedule.min_lr=-1",
    "schedule.kind=cosine schedule.min_lr=1", "optim.eps=0", "lawa.k=0", "lawa.interval=0",
    "quant.group_size=0", "quant.damping_frac=0", "quant.method=awq", "quant.bits=9",
    "quant.calib_samples=100000",
])
def test_cli_train_bad_setting_exits_2_before_writing(tmp_path, cfg_file, setting):
    # model.vocab=100: the corpus holds lowercase ASCII letters, bytes 97-122;
    # a case of several settings separates them by spaces
    root = str(tmp_path / "runs")
    sets = [arg for item in setting.split() for arg in ("--set", item)]
    assert main(["train", "--config", cfg_file, "--out-root", root, *sets]) == 2
    assert not os.path.exists(root)


def test_cli_train_ascii_corpus_with_a_128_token_vocab(tmp_path, cfg_file, capsys):
    from qlab.model import load_checkpoint

    with open(resolve(cfg_file)["data.path"], "rb") as f:
        assert max(f.read()) < 128
    argv = ["train", "--config", cfg_file, "--out-root", str(tmp_path / "runs"),
            "--set", "model.vocab=128", "--stop-after", "10"]
    assert main(argv) == 0
    ck = load_checkpoint(os.path.join(capsys.readouterr().out.strip(), "ckpt_10.qlab"))
    assert ck.config.vocab == 128
    assert ck.tensors["embed.tok"].shape[0] == ck.tensors["unembed"].shape[0] == 128


def test_cli_report_missing_column_is_config_error(tmp_path, cfg_file):
    rc = main(["report", "--run", str(tmp_path), "--metric", "nope",
               "--out", str(tmp_path / "n.svg")])
    assert rc == 2


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory, cfg_file):
    root = str(tmp_path_factory.mktemp("cli-eval") / "runs")
    assert main(["train", "--config", cfg_file, "--out-root", root]) == 0
    return os.path.join(root, run_id_of(resolve(cfg_file)))


def test_cli_branch_negative_decay_steps_is_config_error(tmp_path, trained_run):
    root = tmp_path / "children"
    assert main(["branch", "--run", trained_run, "--step", "10", "--decay-steps", "-3",
                 "--out-root", str(root)]) == 2
    assert not root.exists()


def test_cli_branch_one_decay_step_is_config_error(tmp_path, trained_run):
    root = tmp_path / "children"
    assert main(["branch", "--run", trained_run, "--step", "10", "--decay-steps", "1",
                 "--out-root", str(root)]) == 2
    assert not root.exists()


@pytest.mark.parametrize("frac", ["0", "-1"])
def test_cli_branch_nonpositive_decay_frac_is_config_error(tmp_path, trained_run, frac):
    root = tmp_path / "children"
    assert main(["branch", "--run", trained_run, "--step", "10", "--decay-frac", frac,
                 "--out-root", str(root)]) == 2
    assert not root.exists()


def _tree_bytes(root):
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = f.read()
    return out


def test_cli_branch_rerun_resumes(tmp_path, trained_run, capsys):
    args = ["branch", "--run", trained_run, "--step", "10", "--decay-steps", "2",
            "--out-root", str(tmp_path / "children")]
    assert main(args) == 0
    child = capsys.readouterr().out.strip()
    before = _tree_bytes(child)
    assert any(name.endswith("ckpt_12.qlab") for name in before)
    assert main(args) == 0
    assert capsys.readouterr().out.strip() == child
    assert _tree_bytes(child) == before


def test_cli_eval_methods_land_side_by_side(trained_run):
    # qeval.csv keys each result by its method; metrics.csv shows the
    # manifest's (gptq) only, so rtn leaves it as it was
    metrics = os.path.join(trained_run, harness.METRICS)
    before = _bytes(metrics)
    argv = ["eval", "--run", trained_run, "--bits", "3", "--steps", "10,20", "--method"]
    assert main(argv + ["rtn"]) == 0
    assert _bytes(metrics) == before
    assert main(argv + ["gptq"]) == 0
    table = QevalTable(os.path.join(trained_run, harness.QEVAL))
    assert {(k[0], k[2]) for k in table.rows if k[3] == "3"} == {
        (_checksum(trained_run, s), m) for s in (10, 20) for m in ("rtn", "gptq")}


def _checksum(run_dir, step):
    from qlab.model import read_checkpoint

    return read_checkpoint(harness.ckpt_path(run_dir, step))[1]


def test_cli_eval_bits_without_metrics_columns_land_in_qeval_only(trained_run):
    assert main(["eval", "--run", trained_run, "--bits", "3", "--steps", "30"]) == 0
    metrics = _bytes(os.path.join(trained_run, harness.METRICS))
    assert main(["eval", "--run", trained_run, "--bits", "2", "--steps", "30"]) == 0
    assert _bytes(os.path.join(trained_run, harness.METRICS)) == metrics
    table = QevalTable(os.path.join(trained_run, harness.QEVAL))
    ce, acc, stats = table.get(next(k[:-1] for k in table.rows
                                    if k[0] == _checksum(trained_run, 30) and k[3] == "2"))
    assert ce > 0 and 0 <= acc <= 1 and stats


@pytest.mark.parametrize("bits", ["9", "3,9", "1"])
def test_cli_eval_bits_outside_2_to_8_refused_before_quantizing(trained_run, monkeypatch, bits):
    def no_quantization(*args, **kwargs):
        raise AssertionError("quantized before refusing the bit widths")

    monkeypatch.setattr(harness, "quantize_model", no_quantization)
    before = _tree_bytes(trained_run)
    assert main(["eval", "--run", trained_run, "--bits", bits, "--steps", "30"]) == 2
    assert _tree_bytes(trained_run) == before


def test_cli_eval_kind_without_checkpoints_exits_2_naming_the_families(trained_run, caplog):
    # a typo in --kind once evaluated nothing and exited 0
    before = _tree_bytes(trained_run)
    assert main(["eval", "--run", trained_run, "--kind", "lawa0"]) == 2
    assert _tree_bytes(trained_run) == before
    errors = " ".join(r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR)
    assert "no lawa0 checkpoints" in errors and "checkpoint families: ckpt" in errors


@pytest.mark.parametrize("threads", ["two", "0", "-3"])
def test_cli_eval_bad_thread_count_is_config_error(trained_run, monkeypatch, threads):
    monkeypatch.setenv("QLAB_THREADS", threads)
    assert main(["eval", "--run", trained_run, "--bits", "3", "--steps", "30"]) == 2


@pytest.mark.parametrize("threads", ["two", "0", "-3"])
def test_cli_train_bad_thread_count_is_config_error(tmp_path, cfg_file, monkeypatch, threads):
    # read before the run directory is made, so none is left
    monkeypatch.setenv("QLAB_THREADS", threads)
    assert main(["train", "--config", cfg_file, "--out-root", str(tmp_path / "runs")]) == 2
    assert not os.path.exists(tmp_path / "runs")


@pytest.mark.parametrize("method,sets", [
    ("gptq", []),
    ("gptq", ["quant.damping_frac=0.5", "quant.calib_samples=2"]),
    ("rtn", ["quant.group_size=16", "quant.static_groups=true", "quant.propagate=false"]),
])
def test_cli_quantize_follows_manifest_then_set(tmp_path, trained_run, monkeypatch, method, sets):
    from qlab import config as cfgmod, harness
    from qlab.quant import load_quantized

    samples = []
    real = harness.RunData.calibration

    def calibration(self, cfg):
        samples.append(cfg["quant.calib_samples"])
        return real(self, cfg)

    monkeypatch.setattr(harness.RunData, "calibration", calibration)
    out = str(tmp_path / "q.qlab")
    argv = ["quantize", "--ckpt", os.path.join(trained_run, "ckpt_30.qlab"), "--bits", "3",
            "--method", method, "--out", out]
    assert main(argv + [a for kv in sets for a in ("--set", kv)]) == 0
    manifest = harness.load_manifest(trained_run)
    assert (manifest["quant.group_size"], manifest["quant.calib_samples"]) == (32, 4)
    cfg = cfgmod.apply_overrides(dict(manifest), sets)
    assert load_quantized(out).quant == cfgmod.quant_config(cfg, 3, method)
    # gptq first checks the run's own calibration set, then quantizes with
    # it, or, after a --set, with one built under the new settings
    own = manifest["quant.calib_samples"]
    expect = [own, cfg["quant.calib_samples"]] if sets else [own]
    assert samples == (expect if method == "gptq" else [])


def test_cli_quantize_exits_3_when_every_damping_rung_fails(tmp_path, trained_run, monkeypatch):
    from qlab import quant
    from qlab.errors import FactorizationError

    def singular(h):
        raise FactorizationError(0, -1.0)

    monkeypatch.setattr(quant, "spd_inverse", singular)
    out = str(tmp_path / "q.qlab")
    assert main(["quantize", "--ckpt", os.path.join(trained_run, "ckpt_30.qlab"), "--bits", "3",
                 "--method", "gptq", "--out", out]) == 3
    assert not os.path.exists(out)


def test_cli_soup_bad_weight_is_config_error(tmp_path, trained_run):
    ckpt = os.path.join(trained_run, "ckpt_30.qlab")
    out = str(tmp_path / "s.qlab")
    assert main(["soup", "--ckpt", f"{ckpt}:abc", "--out", out]) == 2
    assert main(["soup", "--ckpt", f"{ckpt}:", "--out", out]) == 2
    assert not os.path.exists(out)


def test_cli_soup_rerun_accepts_the_same_weights_and_refuses_others(tmp_path, trained_run,
                                                                    caplog):
    c20, c30 = (os.path.join(trained_run, f"ckpt_{s}.qlab") for s in (20, 30))
    out = str(tmp_path / "s.qlab")
    argv = ["soup", "--ckpt", f"{c20}:0.5", "--ckpt", f"{c30}:0.5", "--out", out]
    assert main(argv) == 0
    merged, mtime = _bytes(out), os.stat(out).st_mtime_ns
    assert main(argv) == 0
    assert (_bytes(out), os.stat(out).st_mtime_ns) == (merged, mtime)  # untouched
    caplog.clear()
    assert main(["soup", "--ckpt", f"{c20}:0.25", "--ckpt", f"{c30}:0.75", "--out", out]) == 2
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) == 1 and out in errors[0]
    assert _bytes(out) == merged


def test_cli_soup_corrupt_footer_is_format_error(tmp_path, trained_run):
    with open(os.path.join(trained_run, "ckpt_30.qlab"), "rb") as f:
        blob = f.read()
    bad = str(tmp_path / "bad.qlab")
    with open(bad, "wb") as f:
        f.write(blob[:-3] + b"\xff" + blob[-2:])
    out = str(tmp_path / "o.qlab")
    assert main(["soup", "--ckpt", f"{bad}:1", "--out", out]) == 2
    assert not os.path.exists(out)


def test_cli_unreadable_checkpoint_or_unwritable_out_exits_2(tmp_path, trained_run, caplog,
                                                             monkeypatch):
    # a missing file, a directory, or an output in a missing directory is a
    # file error naming the path, not a traceback; quantize checks its
    # output directory before it reads any data or quantizes anything
    def never(*args, **kwargs):
        raise AssertionError("work began before the error was found")

    monkeypatch.setattr(harness, "build_data", never)
    monkeypatch.setattr(quant, "quantize_model", never)
    ckpt = os.path.join(trained_run, "ckpt_30.qlab")
    missing = str(tmp_path / "nofile.qlab")
    nodir = str(tmp_path / "nodir" / "q.qlab")
    plot = str(tmp_path / "nodir" / "p.svg")
    cases = [
        (["quantize", "--method", "rtn", "--ckpt", missing, "--out", str(tmp_path / "y.qlab")],
         missing),
        (["soup", "--ckpt", f"{missing}:1.0", "--out", str(tmp_path / "x.qlab")], missing),
        (["quantize", "--method", "rtn", "--ckpt", str(tmp_path), "--out", str(tmp_path / "z.qlab")],
         str(tmp_path)),
        (["quantize", "--method", "gptq", "--ckpt", ckpt, "--out", nodir], nodir),
        (["report", "--run", trained_run, "--metric", "val_ce_fp", "--out", plot], plot),
    ]
    for argv, path in cases:
        caplog.clear()
        assert main(argv) == 2, argv
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1 and path in errors[0], argv
    assert sorted(os.listdir(tmp_path)) == []


def _train(tmp_path, cfg_file, *sets):
    root = str(tmp_path / "runs")
    argv = ["train", "--config", cfg_file, "--out-root", root]
    assert main(argv + [a for kv in sets for a in ("--set", kv)]) == 0
    return os.path.join(root, run_id_of(resolve(cfg_file, list(sets))))


def _bytes(path):
    with open(path, "rb") as f:
        return f.read()


@pytest.mark.parametrize("axis", ["sweep.optim.peak_lr = abc, 1e-3", "sweep.seeds = 1, x"])
def test_cli_sweep_malformed_plan_exits_2_before_any_run(tmp_path, cfg_file, axis):
    plan = tmp_path / "plan.cfg"
    with open(cfg_file, encoding="utf-8") as f:
        plan.write_text(f.read() + axis + "\n")
    out_root = tmp_path / "sweep"
    assert main(["sweep", "--plan", str(plan), "--out-root", str(out_root)]) == 2
    assert not out_root.exists()


def test_cli_average_refuses_a_stale_lawa_file(tmp_path, cfg_file):
    run_dir = _train(tmp_path, cfg_file)
    lawa = os.path.join(run_dir, "lawa5_20.qlab")
    assert main(["average", "--run", run_dir, "--k", "5", "--interval", "10"]) == 0
    made = _bytes(lawa)  # mean of ckpt 10 and ckpt 20
    assert main(["average", "--run", run_dir, "--k", "5", "--interval", "20"]) == 2
    assert _bytes(lawa) == made
    assert main(["average", "--run", run_dir, "--k", "5", "--interval", "10"]) == 0
    assert _bytes(lawa) == made
    assert main(["average", "--run", run_dir, "--interval", "0"]) == 2


def test_cli_commands_default_to_the_manifest(tmp_path, cfg_file):
    from qlab.quant import load_quantized

    run_dir = _train(tmp_path, cfg_file, "quant.bits=3", "quant.method=rtn",
                     "lawa.k=2", "lawa.interval=20")
    assert main(["eval", "--run", run_dir, "--steps", "30"]) == 0
    table = QevalTable(os.path.join(run_dir, harness.QEVAL))
    layers = [k for k in table.rows if k[-1]]  # the per-layer rows
    assert layers and {(k[2], k[3]) for k in layers} == {("rtn", "3")}
    assert main(["average", "--run", run_dir]) == 0
    assert sorted(n for n in os.listdir(run_dir) if n.startswith("lawa")) == ["lawa2_20.qlab"]
    out = str(tmp_path / "q.qlab")
    assert main(["quantize", "--ckpt", os.path.join(run_dir, "ckpt_30.qlab"), "--out", out]) == 0
    assert load_quantized(out).quant.method == "rtn"


def test_cli_quantize_config_may_name_a_manifest(tmp_path, trained_run):
    from qlab import harness

    ckpt = os.path.join(trained_run, "ckpt_30.qlab")
    elsewhere = tmp_path / "ckpt_30.qlab"  # no manifest next to it
    elsewhere.write_bytes(_bytes(ckpt))
    beside, named = str(tmp_path / "beside.qlab"), str(tmp_path / "named.qlab")
    argv = ["--bits", "3", "--method", "gptq", "--set", "quant.calib_samples=2"]
    assert main(["quantize", "--ckpt", ckpt, "--out", beside] + argv) == 0
    manifest = os.path.join(trained_run, harness.MANIFEST)
    assert main(["quantize", "--ckpt", str(elsewhere), "--config", manifest,
                 "--out", named] + argv) == 0
    assert _bytes(named) == _bytes(beside)


def _edit_calibration_hash(run_dir):
    from qlab import harness

    path = os.path.join(run_dir, harness.MANIFEST)
    text = _bytes(path).decode()
    recorded = harness.load_manifest(run_dir)["run.calib_set_hash"]
    with open(path, "w", encoding="utf-8") as f:
        f.write(text.replace(recorded, "0" * 16))


def _run_on_its_own_corpus(tmp_path, cfg_file):
    """The train command of a 30-step run on a corpus of its own, the run
    stopped at step 10, and that corpus."""
    corpus = tmp_path / "corpus.bin"
    corpus.write_bytes(make_corpus_bytes())
    root = str(tmp_path / "runs")
    argv = ["train", "--config", cfg_file, "--out-root", root, "--set", f"data.path={corpus}"]
    assert main(argv + ["--stop-after", "10"]) == 0
    return argv, os.path.join(root, run_id_of(resolve(cfg_file, [f"data.path={corpus}"]))), corpus


def _change(corpus):
    corpus.write_bytes(make_corpus_bytes(seed=5))


def test_cli_resume_on_a_changed_corpus_exits_2_and_changes_nothing(tmp_path, cfg_file):
    argv, run_dir, corpus = _run_on_its_own_corpus(tmp_path, cfg_file)
    _change(corpus)
    before = _tree_bytes(run_dir)
    assert main(argv) == 2
    assert _tree_bytes(run_dir) == before


def test_cli_branch_of_a_run_on_a_changed_corpus_exits_2_and_makes_no_child(tmp_path, cfg_file):
    _, run_dir, corpus = _run_on_its_own_corpus(tmp_path, cfg_file)
    branch = ["branch", "--run", run_dir, "--step", "10", "--out-root"]
    kept = str(tmp_path / "kept")
    assert main(branch + [kept]) == 0
    child = _tree_bytes(kept)
    _change(corpus)
    children = tmp_path / "children"
    assert main(branch + [str(children)]) == 2
    assert not children.exists()
    assert main(branch + [kept, "--force"]) == 2  # refused before --force deletes the child
    assert _tree_bytes(kept) == child
    # eval and quantize refuse the run too
    assert main(["eval", "--run", run_dir, "--method", "rtn", "--steps", "10"]) == 2
    out = str(tmp_path / "q.qlab")
    assert main(["quantize", "--ckpt", os.path.join(run_dir, "ckpt_10.qlab"), "--bits", "3",
                 "--method", "gptq", "--out", out]) == 2
    assert not os.path.exists(out)


def test_cli_fresh_runs_of_the_same_settings_write_identical_files(tmp_path, cfg_file):
    a, b = (_train(tmp_path / name, cfg_file, "schedule.total_steps=10") for name in "ab")
    assert _tree_bytes(a) == _tree_bytes(b)  # the manifest too: it records no time
    run_keys = sorted(k for k in harness.load_manifest(a) if k.startswith("run."))
    assert run_keys == ["run.calib_set_hash", "run.eval_set_hash", "run.id"]


def test_cli_eval_refuses_an_edited_calibration_hash(tmp_path, cfg_file):
    from qlab import harness

    run_dir = _train(tmp_path, cfg_file)
    _edit_calibration_hash(run_dir)
    tables = [_bytes(os.path.join(run_dir, t)) for t in (harness.METRICS, harness.QEVAL)]
    assert main(["eval", "--run", run_dir, "--method", "gptq", "--steps", "30"]) == 2
    assert [_bytes(os.path.join(run_dir, t)) for t in (harness.METRICS, harness.QEVAL)] == tables


def test_cli_quantize_refuses_an_edited_calibration_hash(tmp_path, cfg_file):
    run_dir = _train(tmp_path, cfg_file)
    _edit_calibration_hash(run_dir)
    out = str(tmp_path / "q.qlab")
    argv = ["quantize", "--ckpt", os.path.join(run_dir, "ckpt_30.qlab"), "--bits", "3",
            "--out", out]
    assert main(argv + ["--method", "gptq"]) == 2
    assert main(argv + ["--method", "gptq", "--set", "quant.calib_samples=2"]) == 2
    assert not os.path.exists(out)
    assert main(argv + ["--method", "rtn"]) == 0  # RTN calibrates on nothing


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_class_exits_with_its_documented_code(monkeypatch):
    from qlab import cli
    from qlab.errors import (
        FactorizationError, NumericFailure, PartialFailure, QlabError, QuantizationError,
    )

    documented = {NumericFailure: 3, FactorizationError: 3, QuantizationError: 3, PartialFailure: 4}
    classes = [QlabError, *_subclasses(QlabError)]
    assert len(classes) >= 11
    for cls in classes:
        want = documented.get(cls, 2)
        assert cls.exit_code == want, cls

        def fail(args, cls=cls):
            raise cls.__new__(cls)

        monkeypatch.setattr(cli, "_dispatch", fail)
        assert main(["average", "--run", "x"]) == want, cls


def test_cli_train_from_a_manifest_reproduces_the_run(tmp_path, trained_run):
    from qlab import harness

    root = tmp_path / "again"
    manifest = os.path.join(trained_run, harness.MANIFEST)
    assert main(["train", "--config", manifest, "--out-root", str(root), "--stop-after", "10"]) == 0
    again = root / os.path.basename(trained_run)
    assert _bytes(str(again / "ckpt_10.qlab")) == _bytes(os.path.join(trained_run, "ckpt_10.qlab"))
    # a branch's settings train as a run of their own, without the branch's lineage
    branch = harness.cmd_branch(trained_run, 20, decay_steps=2, out_root=str(tmp_path / "b"))
    assert harness.load_manifest(branch)["run.parent_id"]
    assert main(["train", "--config", os.path.join(branch, harness.MANIFEST),
                 "--out-root", str(root), "--stop-after", "0"]) == 0
    fresh = {name for name in os.listdir(root)} - {os.path.basename(trained_run)}
    assert len(fresh) == 1
    copied = harness.load_manifest(str(root / fresh.pop()))
    assert "run.parent_id" not in copied and "run.branch_step" not in copied
