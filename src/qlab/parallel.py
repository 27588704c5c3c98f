"""The one owner of the lab's threads: worker threads and OpenBLAS threads.

`QLAB_THREADS` (default: the CPU count) sets both. `stream(fn, items)`,
the one entry, calls `fn` on every item, on that many worker threads
while OpenBLAS is held at one thread, and yields a completed future per
item in item order while later items still run: at most 2 x workers
items are in flight, the one being consumed included, and the next is
submitted only when the consumer asks for it, so a consumer that folds
each result in and drops it holds few results at once. Callers split
work so that no result depends on how the items are scheduled, so
results never depend on the thread count.

The items run serially, in order and in the calling thread as they are
consumed, when there is one worker or one item, when the caller is itself
a worker (a nested region), or when numpy's bundled OpenBLAS exposes no
thread control (the workers would then oversubscribe the cores; the lookup
logs a warning then, once per process). Every item runs even when some
raise. A consumer that stops early closes the generator (dropping it does
too): the items already submitted finish and no more start. Outside a
parallel region OpenBLAS runs min(QLAB_THREADS, cores) threads: every
`stream` call outside a worker, a serial one included, sets that count
unless a region is open, and the last region to close sets it again.

The owner also sets how the process allocates, once, at its first `stream`
call (serial or not) or BLAS lookup: it caps glibc malloc at one arena
(`mallopt(M_ARENA_MAX, 1)`) and fixes its mmap threshold at 32 MB and its
trim threshold at 256 MB; it skips that where the C library has no
`mallopt`. glibc otherwise gives each new thread an arena of its own,
which keeps the pages the thread freed: on 2 vCPUs, 200 tiny.cfg training
steps with their evals then peaked at 149 MB instead of 127 MB, and
quantize-evaluating a stored tiny run at 132 MB instead of 117 MB. With
glibc's default, moving thresholds, a training step's per-shard caches,
freed at the top of the heap, are trimmed and faulted back in at every
step: the same 200 steps (2 vCPUs) took 0.64-0.69M minor page faults and
14.1-15.0 s, against 9.6-9.9K faults and 11.7-12.8 s with the fixed
thresholds, at the same 91 MB peak RSS.

The BLAS thread count and the malloc arenas are process-wide state, so
their owner is one object per process.
"""

from __future__ import annotations

import contextvars
import logging
import os
import threading
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor, wait
from contextlib import contextmanager
from itertools import islice
from typing import Callable, Iterator, Optional, Sequence, Tuple

from .errors import ConfigError

log = logging.getLogger("qlab")

_BLAS_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_")
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD, M_ARENA_MAX = -1, -3, -8  # glibc's mallopt parameters
MMAP_THRESHOLD = 32 << 20  # glibc's largest
TRIM_THRESHOLD = 256 << 20


def qlab_threads() -> int:
    env = os.environ.get("QLAB_THREADS", "")
    if not env:
        return os.cpu_count() or 1
    try:
        n = int(env)
    except ValueError:
        n = 0
    if n < 1:
        raise ConfigError(f"QLAB_THREADS must be a positive integer, got {env!r}")
    return n


def _find_blas() -> Optional[Tuple[Callable[[], int], Callable[[int], None]]]:
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None."""
    import ctypes  # here, not at import: only the first parallel region pays for it
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)  # already loaded by numpy: the same handle
            get, set_ = (getattr(lib, s) for s in _BLAS_SYMBOLS)
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


def _libc():
    """The C library's symbols (the process's global namespace), or None."""
    import ctypes

    try:
        return ctypes.CDLL(None)
    except (OSError, TypeError):  # TypeError: no global namespace to open (Windows)
        return None


def _set_malloc() -> None:
    """One glibc malloc arena for every thread and fixed mmap and trim
    thresholds; nothing where the C library has no mallopt."""
    mallopt = getattr(_libc(), "mallopt", None)
    if mallopt is not None:  # int arguments and results: ctypes' defaults
        mallopt(M_ARENA_MAX, 1)
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


class _Owner:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._regions = 0  # parallel regions open: OpenBLAS is at one thread
        self._blas_api = None
        self._started = False

    def blas(self) -> Optional[Tuple[Callable[[], int], Callable[[int], None]]]:
        """(get, set) of OpenBLAS's thread count, or None; the first call
        also sets malloc."""
        with self._lock:
            if not self._started:
                _set_malloc()
                self._blas_api, self._started = _find_blas(), True
                if self._blas_api is None:
                    log.warning("numpy's OpenBLAS exposes no thread control: "
                                "shards and parallel jobs run serially")
            return self._blas_api

    def in_worker(self) -> bool:
        return getattr(self._local, "worker", False)

    def _mark_worker(self) -> None:
        self._local.worker = True

    def _set_blas(self, n: int) -> None:
        """OpenBLAS at n threads, unless a region is open; under the lock."""
        if self._regions == 0 and self._blas_api is not None:
            self._blas_api[1](n)

    @contextmanager
    def _blas_single(self, outside: int) -> Iterator[None]:
        with self._lock:
            self._set_blas(1)
            self._regions += 1
        try:
            yield
        finally:
            with self._lock:
                self._regions -= 1
                self._set_blas(outside)

    def stream(self, fn, items: Sequence, executor=ThreadPoolExecutor) -> Iterator[Future]:
        if self.in_worker():
            return (_call(fn, x) for x in items)
        blas = self.blas()
        threads = qlab_threads()
        outside = min(threads, os.cpu_count() or 1)
        with self._lock:
            self._set_blas(outside)
        workers = min(threads, len(items))
        if workers <= 1 or blas is None:
            return (_call(fn, x) for x in items)
        # each item runs in a copy of the caller's context (np.errstate and the like)
        return self._pooled(fn, items, workers, outside, executor, contextvars.copy_context())

    def _pooled(self, fn, items, workers, outside, executor, context) -> Iterator[Future]:
        todo = iter(items)
        with self._blas_single(outside), executor(
            workers, thread_name_prefix="qlab", initializer=self._mark_worker
        ) as pool:
            ahead = deque(pool.submit(context.copy().run, fn, x)
                          for x in islice(todo, 2 * workers))
            while ahead:
                wait((ahead[0],))
                yield ahead.popleft()  # popped first: only the consumer holds it
                for x in islice(todo, 1):  # the next item, if any
                    ahead.append(pool.submit(context.copy().run, fn, x))
        # leaving the pool waits for the items submitted, also after an early stop


def _call(fn, item) -> Future:
    fut: Future = Future()
    try:
        fut.set_result(fn(item))
    except Exception as exc:  # handed over through the future, as a pool does
        fut.set_exception(exc)
    return fut


_OWNER = _Owner()


def stream(fn: Callable, items: Sequence, executor=ThreadPoolExecutor) -> Iterator[Future]:
    """Call fn on every item; yield each item's completed future in item
    order, while later items still run (at most 2 x workers in flight).

    Every item runs even when some raise, so the caller can choose which
    failure to report. `executor` is the pool class (ThreadPoolExecutor).
    """
    return _OWNER.stream(fn, items, executor)
