"""Self-tests of the benchmark: wrapper coverage, untraced runs, output
fingerprints and the refusal to run outside a qlab checkout.

Run from the repository root (about five minutes on two cores):

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from spans import self_times  # noqa: E402

SEED = 101

# Span names each workload must produce in a traced run. A rename in qlab
# that stops a wrapper from firing fails here instead of reporting a zero.
COMMON = {"data.build", "store.hash", "model.forward", "model.loss", "model.backward"}
EXPECTED = {
    "train-desk": COMMON | {"optim.train_loop", "data.next_batch", "optim.step", "optim.clip",
                            "model.save_checkpoint", "model.load_checkpoint",
                            "harness.save_opt_state", "harness.load_opt_state",
                            "store.write", "store.read"},
    "train-tiny": COMMON | {"harness.cmd_train", "optim.train_loop", "data.next_batch",
                            "optim.step", "optim.clip", "store.write", "store.read",
                            "metrics.eval_ce", "metrics.eval_acc", "metrics.csv_save"},
    "qeval-desk": COMMON | {"harness.cmd_quantize_eval", "harness.evaluate", "store.read",
                            "quant.quantize_model", "quant.capture", "quant.gptq",
                            "quant.dequantize", "ndkernel.spd_inverse", "ndkernel.cholesky",
                            "metrics.eval_ce", "metrics.eval_acc", "metrics.csv_save"},
    "trajectory-tiny": COMMON | {"harness.cmd_average", "averaging.lawa_push",
                                 "harness.cmd_quantize_eval", "harness.pool", "harness.pool_task",
                                 "harness.evaluate", "store.read", "store.write",
                                 "quant.quantize_model", "quant.capture", "quant.gptq",
                                 "ndkernel.spd_inverse", "ndkernel.cholesky", "metrics.csv_save"},
}
# Spans that must not appear: quant on training, optimizer on quantize-eval.
ABSENT = {
    "train-desk": {"quant.quantize_model", "harness.pool_task", "averaging.lawa_push"},
    "train-tiny": {"quant.quantize_model", "harness.pool_task", "averaging.lawa_push"},
    "qeval-desk": {"optim.step", "harness.pool_task", "averaging.lawa_push"},
    "trajectory-tiny": {"optim.step"},
}
# Per-layer figures that must be positive on a workload.
POSITIVE = {
    "train-desk": ["optim.step_s", "store.write_MB", "store.read_MB", "model.backward_roofline_frac"],
    "train-tiny": ["store.write_s", "store.write_MB", "metrics.eval_ce_s", "data.next_batch_s"],
    "qeval-desk": ["quant.gptq_s", "quant.capture_forwards", "quant.layers", "ndkernel.cholesky_s",
                   "harness.jobs", "model.forward_roofline_frac"],
    "trajectory-tiny": ["averaging.lawa_push_s", "harness.job_busy_s", "harness.pool_efficiency",
                        "quant.layers", "store.read_MB"],
}


def run(workload, seed=SEED, trace=0, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300,
    )
    return proc


def record(workload, seed=SEED, trace=0):
    stem = os.path.join(ROOT, ".perfbench", "results", f"{workload}-seed{seed}-trace{trace}")
    with open(stem + ".json", encoding="utf-8") as f:
        rec = json.load(f)
    spans = None
    if trace:
        with open(stem + "-spans.json", encoding="utf-8") as f:
            spans = json.load(f)["spans"]
    return rec, spans


def per_layer_names():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return [m["name"] for m in json.load(f)["per_layer"]]


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_traced_run_fires_every_wrapper(workload):
    proc = run(workload, trace=1)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(per_layer_names())
    rec, spans = record(workload, trace=1)
    untraced, traced = rec["measures"]
    assert untraced["wrappers"] == []
    assert traced["wrappers"]
    names = {s[2] for s in spans}
    assert EXPECTED[workload] <= names, sorted(EXPECTED[workload] - names)
    assert not ABSENT[workload] & names
    for name in POSITIVE[workload]:
        assert result["metrics"][name]["value"] > 0, name
    if workload == "trajectory-tiny":
        assert result["metrics"]["harness.jobs"]["value"] >= 3
        assert sum(s[2] == "harness.pool_task" for s in spans) >= 2
    # every span's parent is a recorded span
    ids = {s[0] for s in spans}
    assert all(s[1] is None or s[1] in ids for s in spans)


def test_untraced_run_installs_no_wrapper_and_repeats_bitwise():
    first = run("train-tiny")
    assert first.returncode == 0, first.stderr[-3000:]
    rec1, _ = record("train-tiny")
    assert all(s["wrappers"] == [] for s in rec1["setups"] + rec1["measures"])
    second = run("train-tiny")
    assert second.returncode == 0, second.stderr[-3000:]
    rec2, _ = record("train-tiny")
    fp = [r["measures"][0]["ops"][0]["fingerprint"] for r in (rec1, rec2)]
    assert fp[0] == fp[1]
    assert rec1["measures"][0]["round_trip"]["checksum"] == rec2["measures"][0]["round_trip"]["checksum"]
    other = run("train-tiny", seed=SEED + 1)
    assert other.returncode == 0, other.stderr[-3000:]
    rec3, _ = record("train-tiny", seed=SEED + 1)
    assert rec3["measures"][0]["ops"][0]["fingerprint"] != fp[0]


def test_refuses_to_run_without_qlab_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("train-tiny", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_subtracts_child_coverage():
    spans = [
        (1, None, "a", 0, 0.0, 10.0, True, None),
        (2, 1, "b", 0, 1.0, 4.0, True, None),
        (3, 1, "c", 1, 3.0, 6.0, True, None),  # overlaps b (another thread)
        (4, 2, "d", 0, 2.0, 3.0, True, None),
    ]
    got = self_times(spans)
    assert got == {1: 5.0, 2: 2.0, 3: 3.0, 4: 1.0}
