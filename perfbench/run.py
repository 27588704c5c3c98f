#!/usr/bin/env python3
"""qlab benchmark: four seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of train-desk, train-tiny, qeval-desk, trajectory-tiny, or
``all`` to run each in turn. Run it from the root of a qlab checkout.

Each run builds its inputs from the seed in a scratch directory under
``.perfbench/work``, untimed, and then starts fresh interpreters
(perfbench/worker.py): with ``--trace 0`` one measuring child between
set-up-only children, with ``--trace 1`` one untraced and one traced
measuring child. The measuring child repeats the workload's operation in a closed
loop with one client until ``--seconds`` of operation time have passed,
then the training workloads make one timed checkpoint round trip through
``store``.

Output: a summary of every metric by name and unit, then as the last line
one JSON object {"correct", "attempted", "failed", "metrics"} holding the
end-to-end metrics of BENCHMARK.json (``--trace 0``) or its per-layer
metrics (``--trace 1``). The full record, machine fingerprint included,
goes to ``.perfbench/results``; a traced run also writes its spans there.
Any failed output check prints ``"correct": false`` and exits 1. A
checkout without qlab's sources exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("train-desk", "train-tiny", "qeval-desk", "trajectory-tiny")
REQUIRED = ("src/qlab/__init__.py", "scripts/make_corpus.py", "configs/desk.cfg", "configs/tiny.cfg")
RUN_DEADLINE_S = 175.0
# An untraced run times set-up in this many fresh interpreters: the
# measuring child and set-up-only children, half before and half after it,
# so the median spans the run rather than one moment of a noisy machine.
SETUPS = 5


class ChildFailed(RuntimeError):
    pass


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run_child(role: str, args, work: str, tag: str, deadline: float) -> dict:
    out = os.path.join(work, f"{tag}.json")
    cmd = [sys.executable, WORKER, role, args.workload, str(args.seed), str(args.seconds), out]
    try:
        proc = subprocess.run(cmd, cwd=work, stdout=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise ChildFailed(f"{role} child timed out") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{role} child exited with {proc.returncode}")
    with open(out, encoding="utf-8") as f:
        return json.load(f)


# -- output checks -------------------------------------------------------------


def check(workload: str, fx: dict, setups: list, measures: list, trace: int):
    """Count attempted and failed operations; list what failed and why.

    An operation is a set-up, a timed operation or a round trip. It fails
    if it raised, if qlab reported a quantize-eval failure, if a CE value
    is non-finite or out of range, if a checkpoint count is off, if a
    round trip does not reproduce the checkpoint bitwise, or if its
    output fingerprint differs from the run's reference for the same work.
    """
    problems = []
    attempted = failed = 0
    warm_ref = (setups + measures)[0]["warm_fp"]
    for i, s in enumerate(setups + measures):
        attempted += 1
        if s["warm_fp"] != warm_ref:
            failed += 1
            problems.append(f"set-up {i}: warm-up fingerprint {s['warm_fp']} != {warm_ref}")
    ref_ops = measures[0]["ops"]
    for k, m in enumerate(measures):
        label = "traced" if trace and k == 1 else "untraced"
        if bool(m["wrappers"]) != (label == "traced"):
            problems.append(f"{label} child: span wrappers installed: {m['wrappers'][:3]}")
        for e in m["errors"]:
            attempted += 1
            failed += 1
            problems.append(f"{label} child raised:\n{e}")
        for i, op in enumerate(m["ops"]):
            attempted += 1
            why = []
            if op["failures"]:
                why.append(f"{op['failures']} quantize-eval failures")
            if op["out_of_range"]:
                why.append(f"values out of range {op['out_of_range']}")
            if "checkpoints" in fx and op["checkpoints"] != fx["checkpoints"]:
                why.append(f"{op['checkpoints']} checkpoints evaluated, expected {fx['checkpoints']}")
            # train-desk ops continue one trajectory; elsewhere every op repeats the same work
            j = i if workload == "train-desk" else 0
            if j < len(ref_ops) and op["fingerprint"] != ref_ops[j]["fingerprint"]:
                why.append(f"fingerprint {op['fingerprint']} != {ref_ops[j]['fingerprint']}")
            if why:
                failed += 1
                problems.append(f"{label} op {i}: " + "; ".join(why))
        rt = m.get("round_trip")
        if rt is not None:
            attempted += 1
            if not rt["matches"]:
                failed += 1
                problems.append(f"{label} round trip did not reproduce the checkpoint")
    return attempted, failed, problems


# -- metrics -----------------------------------------------------------------------


def end_to_end(setups: list, m: dict) -> dict:
    return {
        "setup_s": statistics.median(s["setup_s"] for s in setups + [m]),
        "op_s.p50": statistics.median(op["s"] for op in m["ops"]),
        "peak_rss_MB": m["peak_rss_MB"],
    }


def per_layer(fx: dict, untraced: dict, traced: dict) -> dict:
    layers = dict(traced["layers"])
    peak = fx["sgemm_peak_gflops"] * 1e9
    fwd, bwd = layers.pop("model.forward_flops"), layers.pop("model.backward_flops")
    f_s, b_s = layers["model.forward_s"], layers["model.backward_s"]
    layers["model.forward_roofline_frac"] = fwd / (f_s * peak) if f_s else 0.0
    layers["model.backward_roofline_frac"] = bwd / (b_s * peak) if b_s else 0.0
    base = statistics.median(op["s"] for op in untraced["ops"])
    layers["trace.overhead_frac"] = statistics.median(op["s"] for op in traced["ops"]) / base - 1.0
    return layers


def workload_figures(workload: str, m: dict) -> list:
    """Figures that exist on this workload only, as (name, value, unit, note)."""
    ops = m["ops"]
    op_total = sum(op["s"] for op in ops)
    rows = []
    if workload.startswith("train-"):
        tokens = sum(op["tokens"] for op in ops)
        rows.append(("train_tokens_per_s", tokens / op_total, "1/s", "hooks included"))
        steps = sum(op["steps"] for op in ops)
        rows.append(("step_s.mean", op_total / steps, "s", f"n={steps} steps"))
        if workload == "train-desk":
            rows.append(("step_s.p50", statistics.median(op["s"] for op in ops), "s",
                         f"n={len(ops)} steps"))
        rt = m["round_trip"]
        rows.append(("ckpt_save_MB_per_s", rt["mb"] / rt["save_s"], "MB/s",
                     f"{rt['mb']:.4g} MB checkpoint + optimizer state"))
        rows.append(("ckpt_load_MB_per_s", rt["mb"] / rt["load_s"], "MB/s", "the same files"))
    else:
        ckpts = sum(op["checkpoints"] for op in ops)
        avg = sum(op["average_s"] for op in ops)
        rows.append(("qeval_s", (op_total - avg) / ckpts, "s",
                     f"per checkpoint quantize-evaluated, n={ckpts}"))
        if workload == "trajectory-tiny":
            rows.append(("average_s", statistics.median(op["average_s"] for op in ops), "s",
                         f"n={len(ops)}"))
    return rows


# -- one workload --------------------------------------------------------------------


def run_workload(args) -> int:
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: not a qlab checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    bench = spec()
    results_dir = os.path.join(ROOT, ".perfbench", "results")
    work = os.path.join(ROOT, ".perfbench", "work", f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(results_dir, exist_ok=True)
    os.makedirs(work)
    stem = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    try:
        fx = run_child("fixture", args, work, "fixture", deadline)
        with open(os.path.join(work, "fixture.json"), "w", encoding="utf-8") as f:
            json.dump(fx, f)
        setups = []
        if args.trace:
            measures = [run_child("measure", args, work, "measure", deadline),
                        run_child("trace", args, work, "trace", deadline)]
            with open(stem + "-spans.json", "w", encoding="utf-8") as f:
                json.dump({"fields": ["id", "parent", "name", "thread", "start", "end", "ok", "attrs"],
                           "spans": measures[1].pop("spans")}, f)
        else:
            setups = [run_child("setup", args, work, f"setup{i}", deadline)
                      for i in range(SETUPS // 2)]
            measures = [run_child("measure", args, work, "measure", deadline)]
            setups += [run_child("setup", args, work, f"setup{i}", deadline)
                       for i in range(SETUPS // 2, SETUPS - 1)]
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, problems = check(args.workload, fx, setups, measures, args.trace)
    m = measures[0]
    complete = all(not c["errors"] and c["ops"] for c in measures)
    metrics = {}
    if complete:
        values = per_layer(fx, m, measures[1]) if args.trace else end_to_end(setups, m)
        units = {e["name"]: e["unit"] for e in bench["per_layer" if args.trace else "end_to_end"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    correct = bool(complete) and failed == 0 and not problems

    print(f"machine: {json.dumps(fx['machine'])} sgemm_peak_gflops={fx['sgemm_peak_gflops']:.4g}")
    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(m['ops'])} x {args.workload} operation(s) in {sum(o['s'] for o in m['ops']):.2f} s")
    for name, v in metrics.items():
        print(f"  {name} = {v['value']:.6g} {v['unit']}")
    if complete and not args.trace:
        for name, value, unit, note in workload_figures(args.workload, m):
            print(f"  {name} = {value:.6g} {unit} ({note})")
    print(f"  failed_frac = {failed / max(1, attempted):.6g} ({failed}/{attempted} operations)")
    for p in problems:
        print(f"  CHECK FAILED: {p}", file=sys.stderr)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "fixture": fx, "setups": setups, "measures": measures,
              "metrics": metrics, "problems": problems}
    with open(stem + ".json", "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({"correct": correct, "attempted": max(1, attempted), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own interpreter, then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode == 2 or not lines:
            return proc.returncode or 1
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{w}/{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
