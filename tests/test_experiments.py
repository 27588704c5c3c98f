import glob
import os
import re
from types import SimpleNamespace

import pytest

from qlab import config as cfgmod
from qlab import harness
from qlab.cli import main
from qlab.errors import ConfigError
from qlab.experiments import CLAIMS, lr_sweep

PLANS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs", "experiments"
)
PROFILES = os.path.dirname(PLANS)

# the micro profile as --set items: every other tiny.cfg setting is at its default
MICRO_PROFILE = [
    "data.seq_len=32", "model.d_model=32", "model.n_layers=2", "model.n_heads=2",
    "model.d_ff=64", "model.init_std=0.05", "train.batch_size=4", "train.ckpt_interval=6",
    "train.eval_interval=6", "train.log_interval=6", "eval.batches=2", "eval.batch_size=4",
    "quant.calib_samples=4", "quant.group_size=32", "lawa.interval=6",
]

# each tiny plan on an 18-step trunk: its thirds land on the micro profile's checkpoints
SHRUNK = {
    "cooldown": ["plan.branch_steps=6,12,18", "plan.eval_steps=6,12,18"],
    "lr-sweep": [],
    "lawa": ["plan.branch_steps=12,18", "plan.lawa_steps=12,18"],
}


def _sweep_argv(protocol, corpus, out_root, *sets):
    sets = [f"data.path={corpus}", *MICRO_PROFILE, "schedule.total_steps=18",
            "sweep.seeds=1", *SHRUNK[protocol], *sets]
    argv = ["sweep", "--plan", os.path.join(PLANS, f"{protocol}-tiny.plan"),
            "--out-root", str(out_root)]
    for item in sets:
        argv += ["--set", item]
    return argv


def _snapshot(root):
    out = {}
    for path in sorted(glob.glob(os.path.join(root, "**", "*"), recursive=True)):
        if os.path.isfile(path):
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = f.read()
    return out


@pytest.mark.parametrize("protocol, sets", [
    ("cooldown", []), ("lr-sweep", ["sweep.optim.peak_lr=1e-3,3e-3"]), ("lawa", ["lawa.k=2"]),
], ids=["cooldown", "lr-sweep", "lawa"])
def test_plan_rerun_is_idempotent(tmp_path, corpus_path, protocol, sets, capsys):
    out_root = tmp_path / "runs"
    argv = _sweep_argv(protocol, corpus_path, out_root, *sets)
    assert main(argv) == 0
    first = capsys.readouterr().out
    before = _snapshot(out_root)
    assert any(name.endswith("metrics.csv") for name in before)
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert _snapshot(out_root) == before


def test_lawa_interval_comes_from_profile(tmp_path, corpus_path):
    out_root = tmp_path / "runs"
    assert main(_sweep_argv("lawa", corpus_path, out_root, "lawa.interval=12", "lawa.k=2",
                            "schedule.total_steps=12", "plan.branch_steps=12",
                            "plan.lawa_steps=12")) == 0
    # train.ckpt_interval (6) would also have averaged at step 6
    lawa = glob.glob(os.path.join(out_root, "*", "lawa2_*.qlab"))
    assert [os.path.basename(p) for p in lawa] == ["lawa2_12.qlab"]


def test_lawa_k_comes_from_profile(tmp_path, corpus_path):
    out_root = tmp_path / "runs"
    assert main(_sweep_argv("lawa", corpus_path, out_root, "lawa.k=3", "schedule.total_steps=12",
                            "plan.branch_steps=12", "plan.lawa_steps=12")) == 0
    lawa = glob.glob(os.path.join(out_root, "*", "lawa*.qlab"))
    assert sorted(os.path.basename(p) for p in lawa) == ["lawa3_12.qlab", "lawa3_6.qlab"]


REAL = r"-?\d+(\.\d+)?(e[-+]\d+)?"  # metrics.fmt_real: %.9g
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


def test_experiment_prints_one_line_per_comparison_and_a_tally(tmp_path, corpus_path, capsys):
    out_root = tmp_path / "runs"
    for protocol, (patterns, tally, holds) in PRINTED.items():
        assert main(_sweep_argv(protocol, corpus_path, out_root)) == 0
        summary, *lines = capsys.readouterr().out.splitlines()
        assert summary == str(out_root / "summary.csv")
        assert len(lines) == len(patterns) + 1
        for pattern, line in zip(patterns, lines):
            assert re.fullmatch(pattern, line), (pattern, line)
        assert lines[-1] == f"{sum(map(holds, lines[:-1]))}{tally}"
    # lawa's window is the profile's lawa.k (5, the registry default)
    assert glob.glob(os.path.join(out_root, "*", "lawa5_18.qlab"))


@pytest.mark.parametrize("protocol, steps", [
    ("cooldown", ["schedule.total_steps=10", "plan.branch_steps=3,6,10",
                  "plan.eval_steps=3,6,10"]),  # thirds of 10: no ckpt_3
    ("cooldown", ["schedule.total_steps=12", "plan.branch_steps=6,13", "plan.eval_steps=6,13"]),
    ("lawa", ["schedule.total_steps=10", "plan.branch_steps=10",
              "plan.lawa_steps=10"]),  # saved, not a lawa.interval
    ("lawa", ["schedule.total_steps=12", "plan.branch_steps=0,12", "plan.lawa_steps=0,12"]),
])
def test_steps_without_checkpoints_exit_2_before_training(tmp_path, corpus_path, protocol, steps):
    out_root = tmp_path / "runs"
    assert main(_sweep_argv(protocol, corpus_path, out_root, *steps)) == 2
    assert not out_root.exists()


@pytest.mark.parametrize("protocol, steps", [
    ("cooldown", ["plan.eval_steps=6,18"]),  # branch 12 has no trunk record to compare
    ("lr-sweep", ["plan.eval_steps=12"]),  # the final step is not evaluated
    ("lawa", ["plan.branch_steps=18"]),  # LAWA at 12 has no cooldown to compare
])
def test_steps_a_claim_cannot_judge_exit_2_before_training(
    tmp_path, corpus_path, protocol, steps
):
    out_root = tmp_path / "runs"
    assert main(_sweep_argv(protocol, corpus_path, out_root, *steps)) == 2
    assert not out_root.exists()


def test_branch_inside_a_decay_exits_2_before_training(tmp_path, corpus_path):
    out_root = tmp_path / "runs"  # the 18-step WSD runs decay from step 16
    assert main(_sweep_argv("lr-sweep", corpus_path, out_root, "plan.branch_steps=18")) == 2
    assert not out_root.exists()


def test_lr_sweep_judges_each_value_of_another_axis():
    def cell(seed, wd, lr, err):
        rec = SimpleNamespace(rel_ce_err={4: err})
        settings = {"model.init_seed": seed, "optim.weight_decay": wd, "optim.peak_lr": lr,
                    "schedule.total_steps": 12}
        return SimpleNamespace(settings=settings, trunk={12: rec})

    cells = [cell(1, wd, lr, err) for wd, errs in ((0.0, (2, 1)), (0.1, (1, 2)))
             for lr, err in zip((1e-3, 3e-3), errs)]
    assert [(r.seed, r.holds) for r in lr_sweep(cells, (4,))] == [(1, True), (1, False)]


def test_quantize_eval_failure_exits_4(tmp_path, corpus_path, monkeypatch, capsys):
    def failing_eval(run_dir, bits, steps, kind, force):
        return [], [(steps[0], "non-finite activations in layers.0")]

    monkeypatch.setattr(harness, "cmd_quantize_eval", failing_eval)
    out_root = tmp_path / "runs"
    code = main(_sweep_argv("lr-sweep", corpus_path, out_root, "schedule.total_steps=6",
                            "sweep.optim.peak_lr=1e-3"))
    assert code == 4
    # the claim is not judged over a partial set of records
    assert capsys.readouterr().out.splitlines() == [str(out_root / "summary.csv")]
    assert (out_root / "summary.csv").read_text().endswith(",failed\n")


def test_missing_profile_is_config_error(tmp_path):
    plan = tmp_path / "plan.plan"
    plan.write_text("plan.base = nosuch.cfg\n")
    with pytest.raises(ConfigError, match="nosuch.cfg"):
        cfgmod.load_plan(str(plan))
    assert main(["sweep", "--plan", str(plan), "--out-root", str(tmp_path / "runs")]) == 2
    assert not (tmp_path / "runs").exists()


def test_unknown_claim_exits_2(tmp_path):
    plan = os.path.join(PLANS, "cooldown-tiny.plan")
    out_root = tmp_path / "runs"
    assert main(["sweep", "--plan", plan, "--out-root", str(out_root),
                 "--set", "plan.claim=nosuch"]) == 2
    assert not out_root.exists()


@pytest.mark.parametrize("setting", ["plan.bits=9", "quant.method=awq"])
def test_plan_quant_settings_no_eval_can_use_exit_2_before_any_run(tmp_path, corpus_path,
                                                                   setting):
    out_root = tmp_path / "runs"
    assert main(_sweep_argv("cooldown", corpus_path, out_root, setting)) == 2
    assert not out_root.exists()


def test_profile_choices_match_configs():
    stems = {os.path.splitext(os.path.basename(p))[0]
             for p in glob.glob(os.path.join(PROFILES, "*.cfg"))}
    plans = sorted(glob.glob(os.path.join(PLANS, "*.plan")))
    assert {os.path.basename(p) for p in plans} == {
        f"{claim}-{stem}.plan" for claim in CLAIMS for stem in stems
    }
    for path in plans:
        plan = cfgmod.load_plan(path)
        assert plan.claim == os.path.basename(path).rsplit("-", 1)[0]
        harness._check_plan(plan)  # every step it names is checkpointed and judgeable


def test_profile_defaults_follow_trunk_length():
    for stem, trunk in (("desk", 30000), ("tiny", 1200)):
        thirds = (trunk // 3, 2 * trunk // 3, trunk)
        plans = {c: cfgmod.load_plan(os.path.join(PLANS, f"{c}-{stem}.plan")) for c in CLAIMS}
        for plan in plans.values():
            assert {c["schedule.total_steps"] for c in plan.cells} == {trunk}
        assert plans["cooldown"].branch_steps == plans["cooldown"].eval_steps == thirds
        assert plans["lawa"].branch_steps == plans["lawa"].lawa_steps == thirds[1:]
        assert plans["lawa"].eval_steps == ()


# run ids of the desk experiments, computed before the profiles moved into
# configs/desk.cfg; a changed id would orphan every cached desk run
DESK_TRUNK_IDS = {1: "d1e15fd1f08e2d64", 2: "ba3e621846733ed8", 3: "f6dfbedd21b9d2d6"}
DESK_LR_SWEEP_IDS = {
    (1, 3e-4): "f9f7444b9a19555a", (1, 1e-3): "2cfb7cf6d934a9a7", (1, 3e-3): "bbf4e53f20bc3736",
    (2, 3e-4): "b120c729bc981a58", (2, 1e-3): "c989eb26695201e2", (2, 3e-3): "e0739361be815781",
    (3, 3e-4): "1f0881827ecfd943", (3, 1e-3): "5d3caad7d6820309", (3, 3e-3): "e32a1cd5f578cabb",
}


def _desk_cells(protocol):
    path = os.path.join(PLANS, f"{protocol}-desk.plan")
    return cfgmod.load_plan(path, ["data.path=corpus.bin"]).cells


def test_desk_run_ids_are_pinned():
    for protocol in ("cooldown", "lawa"):
        # the trunks take the profile's optim.peak_lr
        assert {c["model.init_seed"]: cfgmod.run_id_of(c)
                for c in _desk_cells(protocol)} == DESK_TRUNK_IDS
    assert {(c["model.init_seed"], c["optim.peak_lr"]): cfgmod.run_id_of(c)
            for c in _desk_cells("lr-sweep")} == DESK_LR_SWEEP_IDS
