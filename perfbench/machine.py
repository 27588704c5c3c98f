"""Machine fingerprint and measured sgemm peak, recorded with every result."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import time

import numpy as np

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "QLAB_THREADS")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_info():
    """(OpenBLAS version string, thread count in effect) as far as visible."""
    version = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        version = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError, AttributeError):
        pass
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
        if threads is not None:
            break
    return version, threads


def sgemm_peak_gflops(n: int = 2048, reps: int = 5) -> float:
    """Best observed float32 GEMM rate at n x n x n with the default BLAS threads."""
    rng = np.random.Generator(np.random.PCG64(0))
    a = rng.standard_normal((n, n), dtype=np.float32)
    b = rng.standard_normal((n, n), dtype=np.float32)
    a @ b
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - t0)
    return 2.0 * n ** 3 / best / 1e9


def fingerprint() -> dict:
    from qlab import harness

    version, blas_threads = _blas_info()
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    return {
        "nproc": affinity,
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": version,
        "blas_threads": blas_threads,
        "qlab_threads": harness.qlab_threads(),
        "env": {k: os.environ.get(k) for k in THREAD_VARS},
    }
