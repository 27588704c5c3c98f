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
too): the items already submitted finish, no more start, and OpenBLAS gets
its count back. Outside a parallel region OpenBLAS keeps the count it had;
`blas_threads` sets it for a block and restores it after, as every region
does.

The owner also sets how the process allocates, once, at its first `stream`
call, a serial one included: it caps glibc malloc at one arena
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
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"QLAB_THREADS must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


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
        self._regions = 0  # parallel regions open; the last to close restores BLAS
        self._blas_before = 0
        self._blas_api = None
        self._looked_up = False
        self._malloc_set = False

    def blas(self) -> Optional[Tuple[Callable[[], int], Callable[[int], None]]]:
        with self._lock:
            if not self._looked_up:
                self._blas_api, self._looked_up = _find_blas(), True
                if self._blas_api is None:
                    log.warning("numpy's OpenBLAS exposes no thread control: "
                                "shards and parallel jobs run serially")
            return self._blas_api

    def in_worker(self) -> bool:
        return getattr(self._local, "worker", False)

    def _mark_worker(self) -> None:
        self._local.worker = True

    @contextmanager
    def _blas_single(self) -> Iterator[None]:
        get, set_ = self.blas()
        with self._lock:
            if self._regions == 0:
                self._blas_before = get()
                set_(1)
            self._regions += 1
        try:
            yield
        finally:
            with self._lock:
                self._regions -= 1
                if self._regions == 0:
                    set_(self._blas_before)

    def stream(self, fn, items: Sequence, executor=ThreadPoolExecutor) -> Iterator[Future]:
        with self._lock:
            if not self._malloc_set:
                _set_malloc()
                self._malloc_set = True
        workers = min(qlab_threads(), len(items))
        if workers <= 1 or self.in_worker() or self.blas() is None:
            return (_call(fn, x) for x in items)
        # each item runs in a copy of the caller's context (np.errstate and the like)
        return self._pooled(fn, items, workers, executor, contextvars.copy_context())

    def _pooled(self, fn, items, workers, executor, context) -> Iterator[Future]:
        todo = iter(items)
        with self._blas_single(), executor(
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


@contextmanager
def blas_threads(n: int) -> Iterator[None]:
    """Hold OpenBLAS at n threads for the block, then restore its count."""
    api = _OWNER.blas()
    if api is None:
        yield
        return
    get, set_ = api
    before = get()
    set_(n)
    try:
        yield
    finally:
        set_(before)
