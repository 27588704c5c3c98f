import glob
import os
import re

import pytest

from qlab import config as cfgmod
from qlab import experiments
from qlab.cli import build_parser, main
from qlab.errors import ConfigError

MICRO_PROFILE = """
data.seq_len = 32
model.d_model = 32
model.n_layers = 2
model.n_heads = 2
model.d_ff = 64
model.init_std = 0.05
train.batch_size = 4
train.ckpt_interval = 6
train.eval_interval = 6
train.log_interval = 6
eval.batches = 2
eval.batch_size = 4
quant.calib_samples = 4
quant.group_size = 32
lawa.interval = 6
"""


@pytest.fixture
def micro_profile(tmp_path, monkeypatch):
    configs = tmp_path / "configs"
    configs.mkdir()
    (configs / "micro.cfg").write_text(MICRO_PROFILE)
    monkeypatch.setattr(experiments, "CONFIGS_DIR", str(configs))
    # an 18-step trunk: its thirds land on the profile's checkpoints
    monkeypatch.setitem(experiments.TRUNK_STEPS, "micro", 18)
    return "micro"


def _snapshot(root):
    out = {}
    for path in sorted(glob.glob(os.path.join(root, "**", "*"), recursive=True)):
        if os.path.isfile(path):
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = f.read()
    return out


@pytest.mark.parametrize("driver, kwargs", [
    (experiments.cooldown_branching, dict(trunk_steps=12, branch_steps=(6, 12))),
    (experiments.lr_sweep, dict(total_steps=12, lrs=(1e-3, 3e-3))),
    (experiments.lawa_vs_cooldown, dict(trunk_steps=12, compare_steps=(6, 12), k=2)),
])
def test_driver_rerun_is_idempotent(tmp_path, corpus_path, micro_profile, driver, kwargs):
    out_root = str(tmp_path / "runs")
    first = driver(corpus_path, out_root, profile=micro_profile, seeds=(1,), **kwargs)
    before = _snapshot(out_root)
    assert any(name.endswith("metrics.csv") for name in before)
    second = driver(corpus_path, out_root, profile=micro_profile, seeds=(1,), **kwargs)
    assert second == first
    assert _snapshot(out_root) == before


def test_lawa_interval_comes_from_profile(tmp_path, corpus_path, micro_profile):
    configs = experiments.CONFIGS_DIR
    with open(os.path.join(configs, "micro12.cfg"), "w") as f:
        f.write(MICRO_PROFILE.replace("lawa.interval = 6", "lawa.interval = 12"))
    out_root = str(tmp_path / "runs")
    experiments.lawa_vs_cooldown(
        corpus_path, out_root, profile="micro12", trunk_steps=12,
        compare_steps=(12,), seeds=(1,), k=2,
    )
    # train.ckpt_interval (6) would also have averaged at step 6
    lawa = glob.glob(os.path.join(out_root, "*", "lawa2_*.qlab"))
    assert [os.path.basename(p) for p in lawa] == ["lawa2_12.qlab"]


def test_lawa_k_comes_from_profile(tmp_path, corpus_path, micro_profile):
    with open(os.path.join(experiments.CONFIGS_DIR, "micro_k3.cfg"), "w") as f:
        f.write(MICRO_PROFILE + "lawa.k = 3\n")
    out_root = str(tmp_path / "runs")
    experiments.lawa_vs_cooldown(
        corpus_path, out_root, profile="micro_k3", trunk_steps=12,
        compare_steps=(12,), seeds=(1,),
    )
    lawa = glob.glob(os.path.join(out_root, "*", "lawa*.qlab"))
    assert sorted(os.path.basename(p) for p in lawa) == ["lawa3_12.qlab", "lawa3_6.qlab"]


REAL = r"-?\d+\.\d{4}"
PRINTED = {
    "cooldown": (
        [rf"seed 1 branch {bs}: val_ce {REAL} -> {REAL} \((improves|worsens)\), "
         rf"rel_err3 {REAL} -> {REAL} \((rises|falls)\)" for bs in (6, 12, 18)],
        "/3 branches show loss improving while quantization error rises",
        lambda line: "(improves)" in line and "(rises)" in line,
    ),
    "lr-sweep": (
        [rf"seed 1: rel_err4 by lr \{{3e-04: {REAL}, 1e-03: {REAL}, 3e-03: {REAL}\}} "
         r"inverse-ordered=(True|False)"],
        "/1 seeds inversely ordered by learning rate",
        lambda line: line.endswith("=True"),
    ),
    "lawa": (
        [rf"seed 1 step {step}: lawa ce_q3 {REAL} vs cooldown {REAL} "
         r"\((lawa matches/beats|cooldown wins)\)" for step in (12, 18)],
        "/2 comparisons favor weight averaging",
        lambda line: line.endswith("(lawa matches/beats)"),
    ),
}


def test_experiment_prints_one_line_per_comparison_and_a_tally(
    tmp_path, corpus_path, micro_profile, capsys
):
    out_root = str(tmp_path / "runs")
    for protocol, (patterns, tally, holds) in PRINTED.items():
        assert main(["experiment", protocol, "--corpus", corpus_path, "--profile",
                     micro_profile, "--out-root", out_root, "--seeds", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(patterns) + 1
        for pattern, line in zip(patterns, lines):
            assert re.fullmatch(pattern, line), (pattern, line)
        assert lines[-1] == f"{sum(map(holds, lines[:-1]))}{tally}"
    # lawa's window is the profile's lawa.k (5, the registry default)
    assert glob.glob(os.path.join(out_root, "*", "lawa5_18.qlab"))


@pytest.mark.parametrize("protocol, steps", [
    ("cooldown", ["--trunk-steps", "10"]),  # thirds 3, 6, 10: no ckpt_3
    ("cooldown", ["--trunk-steps", "12", "--branch-steps", "6", "13"]),
    ("lawa", ["--trunk-steps", "10", "--compare-steps", "10"]),  # saved, not a lawa.interval
    ("lawa", ["--trunk-steps", "12", "--compare-steps", "0", "12"]),
])
def test_steps_without_checkpoints_exit_2_before_training(
    tmp_path, corpus_path, micro_profile, protocol, steps
):
    out_root = tmp_path / "runs"
    assert main(["experiment", protocol, "--corpus", corpus_path, "--profile", micro_profile,
                 "--out-root", str(out_root), "--seeds", "1", *steps]) == 2
    assert not out_root.exists()


def test_quantize_eval_failure_exits_4(tmp_path, corpus_path, micro_profile, monkeypatch):
    def failing_eval(run_dir, bits, steps, kind):
        return [], [(steps[0], "non-finite activations in layers.0")]

    monkeypatch.setattr(experiments, "cmd_quantize_eval", failing_eval)
    monkeypatch.setitem(experiments.TRUNK_STEPS, micro_profile, 6)
    code = main([
        "experiment", "lr-sweep", "--corpus", corpus_path, "--profile", micro_profile,
        "--out-root", str(tmp_path / "runs"), "--seeds", "1", "--total-steps", "6",
        "--lrs", "1e-3",
    ])
    assert code == 4


def test_missing_profile_is_config_error(tmp_path, monkeypatch):
    monkeypatch.setattr(experiments, "CONFIGS_DIR", str(tmp_path))
    with pytest.raises(ConfigError):
        experiments.base_config("corpus.bin", "tiny", 1)
    assert main(["experiment", "cooldown", "--corpus", "corpus.bin", "--profile", "tiny",
                 "--out-root", str(tmp_path / "runs")]) == 2


def test_unknown_profile_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "cooldown", "--corpus", "corpus.bin", "--profile", "nosuch"])
    assert exc.value.code == 2


def _action(parser, dest):
    return next(a for a in parser._actions if a.dest == dest)


def test_profile_choices_match_configs():
    stems = {
        os.path.splitext(os.path.basename(p))[0]
        for p in glob.glob(os.path.join(experiments.CONFIGS_DIR, "*.cfg"))
    }
    experiment = _action(build_parser(), "cmd").choices["experiment"]
    subcommands = _action(experiment, "experiment").choices
    assert set(subcommands) == {"cooldown", "lr-sweep", "lawa"} == set(experiments.PROTOCOLS)
    for sp in subcommands.values():
        assert set(_action(sp, "profile").choices) == stems
    for stem in stems:
        cfgmod.resolve(os.path.join(experiments.CONFIGS_DIR, f"{stem}.cfg"))


def test_profile_defaults_follow_trunk_length():
    assert experiments._thirds(experiments.TRUNK_STEPS["desk"]) == [10000, 20000, 30000]
    assert experiments._thirds(experiments.TRUNK_STEPS["tiny"]) == [400, 800, 1200]


# run ids of the desk experiments, computed before the profiles moved into
# configs/desk.cfg; a changed id would orphan every cached desk run
DESK_TRUNK_IDS = {1: "d1e15fd1f08e2d64", 2: "ba3e621846733ed8", 3: "f6dfbedd21b9d2d6"}
DESK_LR_SWEEP_IDS = {
    (1, 3e-4): "f9f7444b9a19555a", (1, 1e-3): "2cfb7cf6d934a9a7", (1, 3e-3): "bbf4e53f20bc3736",
    (2, 3e-4): "b120c729bc981a58", (2, 1e-3): "c989eb26695201e2", (2, 3e-3): "e0739361be815781",
    (3, 3e-4): "1f0881827ecfd943", (3, 1e-3): "5d3caad7d6820309", (3, 3e-3): "e32a1cd5f578cabb",
}


def _desk_run_id(seed, kind, lr):
    overrides = experiments.schedule_overrides(kind, experiments.TRUNK_STEPS["desk"], lr)
    return cfgmod.run_id_of(experiments.base_config("corpus.bin", "desk", seed, **overrides))


def test_desk_run_ids_are_pinned():
    for seed, want in DESK_TRUNK_IDS.items():
        assert _desk_run_id(seed, "constant", 3e-3) == want
        # the drivers' trunks take the profile's optim.peak_lr
        assert _desk_run_id(seed, "constant", None) == want
    for (seed, lr), want in DESK_LR_SWEEP_IDS.items():
        assert _desk_run_id(seed, "wsd", lr) == want
