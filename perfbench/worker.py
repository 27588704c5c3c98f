"""One child interpreter of a benchmark run.

    python3 perfbench/worker.py ROLE WORKLOAD SEED SECONDS OUT_JSON

ROLE is ``fixture`` (build the seeded inputs, fingerprint the machine and
measure the sgemm peak), ``setup`` (time set-up only), ``measure`` (set
up, then run the timed closed loop; the training workloads end with one
timed checkpoint round trip) or ``trace`` (the same as ``measure`` with
span wrappers installed right after the imports). run.py starts each
role in a fresh interpreter with the run's scratch directory as working
directory; the result goes to OUT_JSON.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here, before the imports

import json
import os
import resource
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402  (imports numpy and qlab: part of set-up)
from spans import Tracer, installed_wrappers, layer_metrics, summarize  # noqa: E402


def fixture(name: str, seed: int) -> dict:
    import machine  # only the fixture child fingerprints the machine

    info = workloads.build_fixture(name, seed)
    info["machine"] = machine.fingerprint()
    info["sgemm_peak_gflops"] = machine.sgemm_peak_gflops()
    return info


def measure(name: str, seconds: float, fx: dict, tracer, scratch: str) -> dict:
    if tracer is not None:
        tracer.install()
    st = workloads.setup(name, fx)
    out = {"setup_s": time.perf_counter() - T0, "warm_fp": st.warm_fingerprint,
           "ops": [], "errors": []}
    st.scratch = scratch
    os.makedirs(scratch)
    op = workloads.OPS[name]
    spent = 0.0
    i = 0
    try:
        while spent < seconds:
            workloads.prepare_op(st, i)
            t0 = time.perf_counter()
            res = op(st, i)
            dt = time.perf_counter() - t0
            spent += dt
            bad = {k: v for k, v in res.values.items() if not workloads.in_ce_range(v)}
            out["ops"].append(dict(vars(res), s=dt, out_of_range=bad))
            i += 1
        if name.startswith("train-"):
            out["round_trip"] = vars(workloads.round_trip(name, st))
    except Exception:  # the run reports the failure instead of dying mid-way
        out["errors"].append(traceback.format_exc())
    out["wrappers"] = installed_wrappers()
    out["peak_rss_MB"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if tracer is not None:
        out["layers"] = layer_metrics(tracer.spans)
        out["span_summary"] = summarize(tracer.spans)
        out["spans"] = tracer.spans
    return out


def main(argv) -> int:
    role, name, seed, seconds, out_path = argv
    if role == "fixture":
        result = fixture(name, int(seed))
    else:
        with open("fixture.json", encoding="utf-8") as f:
            fx = json.load(f)
        if role == "setup":
            st = workloads.setup(name, fx)
            result = {"setup_s": time.perf_counter() - T0, "warm_fp": st.warm_fingerprint,
                      "wrappers": installed_wrappers()}
        else:
            tracer = Tracer() if role == "trace" else None
            result = measure(name, float(seconds), fx, tracer, role)
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
