"""In-memory span tracing around qlab's public functions.

A traced child process wraps each function at the name where qlab looks
it up (for example ``harness.eval_ce`` and ``optim.forward`` rather than
only ``metrics.eval_ce`` and ``model.forward``), so calls made from
inside the program are seen as well as calls made by the benchmark. One
wrapper object is shared by every alias of a function. Each call records
a span: id, parent span id, name, thread, start, end, whether it
returned normally, and optional work attributes (FLOPs, bytes). Spans
stay in memory until the child writes them out.

The untraced child never creates a Tracer, so it installs no wrapper.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

MARK = "__perfbench_span__"
_OPEN = object()  # parent sentinel: the calling thread's innermost open span


class Span(NamedTuple):
    """One call of a wrapped function."""

    id: int
    parent: Optional[int]
    name: str
    thread: int
    start: float
    end: float
    ok: bool
    attrs: Optional[dict]


def forward_flops(cfg, batch_rows: int, seq: int) -> float:
    """Closed-form multiply-add FLOPs of one forward pass (2 per MAC)."""
    d, f, v, n_layers = cfg.d_model, cfg.d_ff, cfg.vocab, cfg.n_layers
    n = batch_rows * seq
    per_layer = 8 * n * d * d + 4 * n * d * f + 4 * batch_rows * seq * seq * d
    return float(n_layers * per_layer + 2 * n * d * v)


def _batch_shape(batch) -> Tuple[int, int]:
    ids = getattr(batch, "inputs", batch)
    return int(ids.shape[0]), int(ids.shape[1])


def _forward_attrs(args, kwargs, result) -> dict:
    ckpt, batch = args[0], args[1] if len(args) > 1 else kwargs["batch"]
    return {"flops": forward_flops(ckpt.config, *_batch_shape(batch))}


def _backward_attrs(args, kwargs, result) -> dict:
    ckpt, cache = args[0], args[2] if len(args) > 2 else kwargs["cache"]
    return {"flops": 2.0 * forward_flops(ckpt.config, *cache["shape"])}


def _write_attrs(args, kwargs, result) -> dict:
    entries = args[1] if len(args) > 1 else kwargs["entries"]
    return {"bytes": sum(len(e[4]) for e in entries)}


def _read_attrs(args, kwargs, result) -> dict:
    return {"bytes": sum(len(v[3]) for v in result.values())}


def _hash_attrs(args, kwargs, result) -> dict:
    return {"bytes": len(args[0])}


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._wrapped: Dict[int, Callable] = {}

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[int]:
        stack = self._stack()
        return stack[-1] if stack else None

    def run(self, name: str, fn: Callable, args=(), kwargs=None, parent=_OPEN,
            attrs_fn: Optional[Callable] = None, attrs: Optional[dict] = None):
        """Call fn inside a span; parent defaults to this thread's open span."""
        kwargs = kwargs or {}
        stack = self._stack()
        if parent is _OPEN:
            parent = stack[-1] if stack else None
        sid = next(self._ids)
        stack.append(sid)
        ok = False
        result = None
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            t1 = time.perf_counter()
            stack.pop()
            if ok and attrs_fn is not None:
                attrs = dict(attrs or {}, **attrs_fn(args, kwargs, result))
            self.spans.append(Span(sid, parent, name, threading.get_ident(), t0, t1, ok, attrs))

    def wrap(self, name: str, fn: Callable, attrs_fn: Optional[Callable] = None) -> Callable:
        key = id(fn)
        if key in self._wrapped:
            return self._wrapped[key]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.run(name, fn, args, kwargs, attrs_fn=attrs_fn)

        setattr(wrapper, MARK, name)
        self._wrapped[key] = wrapper
        return wrapper

    # -- installation -----------------------------------------------------------

    def patch(self, owner, attr: str, name: str, attrs_fn: Optional[Callable] = None) -> None:
        """Replace owner.attr (or owner[attr] for a dict) by its traced wrapper."""
        if isinstance(owner, dict):
            owner[attr] = self.wrap(name, owner[attr], attrs_fn)
        else:
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), attrs_fn))

    def install(self) -> None:
        """Wrap qlab's public functions at every name they are looked up by."""
        from qlab import harness, metrics, model, ndkernel, optim, quant, store

        for mod in (model, optim, metrics):
            self.patch(mod, "forward", "model.forward", _forward_attrs)
            self.patch(mod, "loss", "model.loss")
        for mod in (model, optim):
            self.patch(mod, "backward", "model.backward", _backward_attrs)
        for variant in list(optim.STEP_FNS):
            self.patch(optim.STEP_FNS, variant, "optim.step")
        self.patch(optim, "clip_grad_norm", "optim.clip")
        self.patch(optim, "next_batch", "data.next_batch")
        for mod in (optim, harness):
            self.patch(mod, "train_loop", "optim.train_loop")
        self.patch(harness, "build_data", "data.build")
        self.patch(store, "write_tensor_file", "store.write", _write_attrs)
        self.patch(store, "read_tensor_file", "store.read", _read_attrs)
        self.patch(store, "fnv1a64", "store.hash", _hash_attrs)
        for mod in (model, harness):
            self.patch(mod, "save_checkpoint", "model.save_checkpoint")
            self.patch(mod, "load_checkpoint", "model.load_checkpoint")
        self.patch(harness, "save_opt_state", "harness.save_opt_state")
        self.patch(harness, "load_opt_state", "harness.load_opt_state")
        self.patch(harness, "quantize_model", "quant.quantize_model")
        self.patch(model, "capture_layer_inputs", "quant.capture")
        self.patch(quant, "gptq_quantize", "quant.gptq")
        self.patch(quant, "dequantize", "quant.dequantize")
        self.patch(quant, "spd_inverse", "ndkernel.spd_inverse")
        for mod in (quant, ndkernel):
            self.patch(mod, "cholesky", "ndkernel.cholesky")
        self.patch(harness, "eval_ce", "metrics.eval_ce")
        self.patch(harness, "eval_accuracy", "metrics.eval_acc")
        self.patch(metrics.MetricsStore, "save", "metrics.csv_save")
        self.patch(harness, "lawa_push", "averaging.lawa_push")
        self.patch(harness, "evaluate_checkpoint_quantized", "harness.evaluate")
        for fn in ("cmd_train", "cmd_quantize_eval", "cmd_average"):
            self.patch(harness, fn, f"harness.{fn}")
        harness.ThreadPoolExecutor = self._pool_class(harness.ThreadPoolExecutor)

    def _pool_class(self, base):
        tracer = self

        class TracedPool(base):
            """Records queue wait and run time of each task, and the pool's life."""

            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                self._perfbench = (tracer.current(), time.perf_counter(), self._max_workers)

            def submit(self, fn, *args, **kwargs):
                parent, submitted = tracer.current(), time.perf_counter()

                def task():
                    wait = time.perf_counter() - submitted
                    return tracer.run("harness.pool_task", fn, args, kwargs, parent=parent,
                                      attrs={"wait_s": wait})

                return super().submit(task)

            def shutdown(self, *args, **kwargs):
                try:
                    return super().shutdown(*args, **kwargs)
                finally:
                    parent, t0, workers = self._perfbench
                    tracer.spans.append(Span(next(tracer._ids), parent, "harness.pool",
                                         threading.get_ident(), t0, time.perf_counter(), True,
                                         {"workers": workers}))

        setattr(TracedPool, MARK, "harness.pool")
        return TracedPool


def installed_wrappers() -> List[str]:
    """Names of qlab attributes that currently hold a span wrapper."""
    from qlab import averaging, data, harness, metrics, model, ndkernel, optim, quant, store

    found = []
    for mod in (averaging, data, harness, metrics, model, ndkernel, optim, quant, store):
        for attr, value in vars(mod).items():
            if getattr(value, MARK, None):
                found.append(f"{mod.__name__}.{attr}")
    for variant, fn in optim.STEP_FNS.items():
        if getattr(fn, MARK, None):
            found.append(f"qlab.optim.STEP_FNS[{variant}]")
    if getattr(metrics.MetricsStore.save, MARK, None):
        found.append("qlab.metrics.MetricsStore.save")
    return found


# -- aggregation -----------------------------------------------------------------


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part of it covered by child spans."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for sid, parent, _, _, t0, t1, _, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1))
    out = {}
    for sid, _, _, _, t0, t1, _, _ in spans:
        covered = 0.0
        end = t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[sid] = (t1 - t0) - covered
    return out


def summarize(spans: List[Span]) -> Dict[str, dict]:
    """Per span name: calls, ok calls, total and self seconds, summed attrs."""
    selfs = self_times(spans)
    out: Dict[str, dict] = {}
    for sid, _, name, _, t0, t1, ok, attrs in spans:
        s = out.setdefault(name, {"calls": 0, "ok": 0, "total_s": 0.0, "self_s": 0.0})
        s["calls"] += 1
        s["ok"] += int(ok)
        s["total_s"] += t1 - t0
        s["self_s"] += selfs[sid]
        for k, v in (attrs or {}).items():
            s[k] = s.get(k, 0.0) + v
    return out


def _children(spans: List[Span]) -> Dict[int, List[Span]]:
    kids: Dict[int, List[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            kids.setdefault(sp.parent, []).append(sp)
    return kids


def descendants_named(kids: Dict[int, List[Span]], root: int, name: str) -> List[Span]:
    out, todo = [], [root]
    while todo:
        for sp in kids.get(todo.pop(), ()):
            if sp.name == name:
                out.append(sp)
            todo.append(sp.id)
    return out


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """The per-layer figures named in BENCHMARK.json, from one child's spans.

    Roofline fractions are left as FLOP totals here; the caller divides
    by the measured sgemm peak. Layers that did not run report 0.
    """
    s = summarize(spans)
    kids = _children(spans)

    def get(name, key="total_s"):
        return float(s.get(name, {}).get(key, 0.0))

    def ratio(a, b):
        return a / b if b else 0.0

    busy = sum(sp.end - sp.start for sp in spans if sp.name == "harness.evaluate")
    wait = sum(sp.attrs["wait_s"] for sp in spans if sp.name == "harness.pool_task")
    capacity = 0.0
    for sp in spans:
        if sp.name != "harness.cmd_quantize_eval":
            continue
        pools = descendants_named(kids, sp.id, "harness.pool")
        workers = max([p.attrs["workers"] for p in pools], default=1)
        capacity += (sp.end - sp.start) * workers
    capture_forwards = 0
    for sp in spans:
        if sp.name == "quant.capture":
            capture_forwards += len(descendants_named(kids, sp.id, "model.forward"))
    write_mb = get("store.write", "bytes") / 1e6
    read_mb = get("store.read", "bytes") / 1e6
    hash_mb = get("store.hash", "bytes") / 1e6
    return {
        "data.build_s": get("data.build"),
        "data.next_batch_s": get("data.next_batch"),
        "model.forward_s": get("model.forward"),
        "model.forward_calls": get("model.forward", "calls"),
        "model.backward_s": get("model.backward"),
        "model.loss_s": get("model.loss"),
        "model.forward_flops": get("model.forward", "flops"),
        "model.backward_flops": get("model.backward", "flops"),
        "optim.step_s": get("optim.step"),
        "optim.clip_s": get("optim.clip"),
        "store.write_s": get("store.write"),
        "store.write_MB": write_mb,
        "store.read_s": get("store.read"),
        "store.read_MB": read_mb,
        "store.hash_MB_per_s": ratio(hash_mb, get("store.hash")),
        "quant.quantize_model_s": get("quant.quantize_model"),
        "quant.capture_s": get("quant.capture"),
        "quant.capture_forwards": float(capture_forwards),
        "quant.gptq_s": get("quant.gptq", "self_s"),
        "quant.dequantize_s": get("quant.dequantize"),
        "quant.layers": get("quant.gptq", "ok"),
        "quant.gptq_attempts": get("quant.gptq", "calls"),
        "quant.useful_frac": ratio(get("quant.gptq", "ok"), get("quant.gptq", "calls")),
        "ndkernel.spd_inverse_s": get("ndkernel.spd_inverse", "self_s"),
        "ndkernel.cholesky_s": get("ndkernel.cholesky"),
        "metrics.eval_ce_s": get("metrics.eval_ce"),
        "metrics.eval_acc_s": get("metrics.eval_acc"),
        "metrics.csv_save_s": get("metrics.csv_save"),
        "averaging.lawa_push_s": get("averaging.lawa_push"),
        "harness.jobs": get("harness.evaluate", "calls"),
        "harness.job_busy_s": float(busy),
        "harness.job_wait_s": float(wait),
        "harness.pool_efficiency": ratio(busy, capacity),
    }
