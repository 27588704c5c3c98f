import os

import pytest

from qlab.cli import main
from qlab.config import resolve, run_id_of


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


def test_cli_rerun_without_force_is_config_error(tmp_path, cfg_file):
    root = str(tmp_path / "runs")
    assert main(["train", "--config", cfg_file, "--out-root", root]) == 0
    assert main(["train", "--config", cfg_file, "--out-root", root]) == 2
    assert main(["train", "--config", cfg_file, "--out-root", root, "--force"]) == 0


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


def test_cli_report_missing_column_is_config_error(tmp_path, cfg_file):
    rc = main(["report", "--run", str(tmp_path), "--metric", "nope",
               "--out", str(tmp_path / "n.svg")])
    assert rc == 2


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory, cfg_file):
    root = str(tmp_path_factory.mktemp("cli-eval") / "runs")
    assert main(["train", "--config", cfg_file, "--out-root", root]) == 0
    return os.path.join(root, run_id_of(resolve(cfg_file)))


def test_cli_eval_method_conflict_is_config_error(trained_run):
    # metrics.csv has no method in its key, so a second method on the same
    # step conflicts with the recorded row
    assert main(["eval", "--run", trained_run, "--bits", "3", "--steps", "20",
                 "--method", "rtn"]) == 0
    before = read_tables(trained_run)
    # step 10 merges cleanly, step 20 conflicts: neither table is written
    assert main(["eval", "--run", trained_run, "--bits", "3", "--steps", "10,20",
                 "--method", "gptq"]) == 2
    assert read_tables(trained_run) == before


def read_tables(run_dir):
    texts = []
    for name in ("metrics.csv", "quant_layers.csv"):
        with open(os.path.join(run_dir, name), encoding="utf-8") as f:
            texts.append(f.read())
    return texts


def test_cli_eval_unrecordable_bits_refused_before_quantizing(trained_run, monkeypatch):
    from qlab import harness

    def no_quantization(*args, **kwargs):
        raise AssertionError("quantized before refusing the bit widths")

    monkeypatch.setattr(harness, "quantize_model", no_quantization)
    metrics = os.path.join(trained_run, harness.METRICS)
    with open(metrics, encoding="utf-8") as f:
        before = f.read()
    assert main(["eval", "--run", trained_run, "--bits", "2", "--steps", "30"]) == 2
    assert main(["eval", "--run", trained_run, "--bits", "3,8", "--steps", "30"]) == 2
    with open(metrics, encoding="utf-8") as f:
        assert f.read() == before


def test_cli_eval_bad_thread_count_is_config_error(trained_run, monkeypatch):
    monkeypatch.setenv("QLAB_THREADS", "two")
    assert main(["eval", "--run", trained_run, "--bits", "3", "--steps", "30"]) == 2


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
    cfg = cfgmod.apply_overrides(manifest, sets)
    assert load_quantized(out).quant == cfgmod.quant_config(cfg, 3, method)
    assert samples == ([cfg["quant.calib_samples"]] if method == "gptq" else [])


def test_cli_soup_bad_weight_is_config_error(tmp_path, trained_run):
    ckpt = os.path.join(trained_run, "ckpt_30.qlab")
    out = str(tmp_path / "s.qlab")
    assert main(["soup", "--ckpt", f"{ckpt}:abc", "--out", out]) == 2
    assert main(["soup", "--ckpt", f"{ckpt}:", "--out", out]) == 2
    assert not os.path.exists(out)


def test_cli_soup_corrupt_footer_is_format_error(tmp_path, trained_run):
    with open(os.path.join(trained_run, "ckpt_30.qlab"), "rb") as f:
        blob = f.read()
    bad = str(tmp_path / "bad.qlab")
    with open(bad, "wb") as f:
        f.write(blob[:-3] + b"\xff" + blob[-2:])
    out = str(tmp_path / "o.qlab")
    assert main(["soup", "--ckpt", f"{bad}:1", "--out", out]) == 2
    assert not os.path.exists(out)
