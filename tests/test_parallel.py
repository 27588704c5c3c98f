"""The per-shard training step, the sharded calibration walk and the
thread owner: results never depend on QLAB_THREADS; the loss equals the
serial forward's bitwise, and the step's gradients are the shard-order sum
of per-shard gradients. Eval's shard items are tested in test_metrics."""

import ast
import ctypes
import glob
import hashlib
import logging
import os
import shutil
import sys
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import micro_train_config, record_shards, tiny_model_config
from qlab import harness, model, parallel
from qlab.data import Batch, build_calibration
from qlab.errors import NumericFailure
from qlab.metrics import record_to_row
from qlab.quant import QuantConfig, quantize_model

# micro shapes (seq 32): shards of 2 sequences, 64 positions
FORCED_SHARD = 64
UNSHARDED = 1 << 40


@pytest.fixture
def shards(monkeypatch):
    """Set the shard floor; returns a setter for tests that switch it."""
    def set_floor(positions):
        monkeypatch.setattr(model, "SHARD_POSITIONS", positions)
    set_floor(FORCED_SHARD)
    return set_floor


def _trio(ck, batch):
    """The serial reference step: (loss, grads) of forward, loss and
    backward over the whole batch."""
    logits, cache = model.forward(ck, batch)
    return model.loss(logits, batch.targets), model.backward(ck, batch, cache)


def _per_shard_step(ck, batch):
    """The step `loss_and_grads` takes, written out: the loss of the
    serial forward's logits, and each shard's own forward and backward in
    turn, its gradients divided by the whole batch's position count and
    summed in shard order."""
    B, S = batch.inputs.shape
    logits, _ = model.forward(ck, batch)
    total = None
    for sl in model._shards(B, S):
        rows = Batch(batch.inputs[sl], batch.targets[sl])
        _, cache = model.forward(ck, rows)
        grads = model._backward(ck, rows.targets, cache, B * S)[1]
        total = grads if total is None else {k: total[k] + g for k, g in grads.items()}
    return model.loss(logits, batch.targets), total


def _assert_same_bits(a, b):
    """Two (loss, grads) results with the same bits, tensor order included."""
    assert a[0] == b[0]
    assert list(a[1]) == list(b[1])
    for name, g in a[1].items():
        assert g.dtype == b[1][name].dtype and g.shape == b[1][name].shape, name
        assert g.tobytes() == b[1][name].tobytes(), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("B", [4, 5, 7])
def test_step_identical_across_thread_counts(monkeypatch, shards, dtype, B):
    ck = model.init(tiny_model_config(), dtype=dtype)
    rng = np.random.Generator(np.random.PCG64(B))
    batch = Batch(rng.integers(0, 256, (B, 32)).astype(np.int32),
                  rng.integers(0, 256, (B, 32)).astype(np.int32))
    assert len(model._shards(B, 32)) == B // 2
    results = {}
    for threads in (1, 2, 3):
        monkeypatch.setenv("QLAB_THREADS", str(threads))
        results[threads] = model.loss_and_grads(ck, batch)
    reference = _per_shard_step(ck, batch)
    for threads in (1, 2, 3):
        _assert_same_bits(results[threads], reference)
    # the sum of shards is not the unsharded pass's gradients, only close to them
    shards(UNSHARDED)
    unsharded = _trio(ck, batch)[1]
    tol = 1e-5 if dtype == np.float32 else 1e-12
    for name, g in reference[1].items():
        assert np.allclose(g, unsharded[name], rtol=tol, atol=tol * np.abs(unsharded[name]).max())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_one_shard_step_is_the_unsharded_trio(monkeypatch, shards, dtype):
    shards(UNSHARDED)
    ck = model.init(tiny_model_config(), dtype=dtype)
    rng = np.random.Generator(np.random.PCG64(11))
    batch = Batch(rng.integers(0, 256, (5, 32)).astype(np.int32),
                  rng.integers(0, 256, (5, 32)).astype(np.int32))
    trio = _trio(ck, batch)
    for threads in ("1", "2"):
        monkeypatch.setenv("QLAB_THREADS", threads)
        _assert_same_bits(model.loss_and_grads(ck, batch), trio)


def test_step_flags_the_earliest_nonfinite_layer_across_shards(monkeypatch, shards):
    ck = model.init(tiny_model_config())
    ck.tensors["layers.1.mlp.w2"][0, 0] = np.inf
    rng = np.random.Generator(np.random.PCG64(12))
    batch = Batch(rng.integers(0, 255, (6, 32)).astype(np.int32),
                  rng.integers(0, 256, (6, 32)).astype(np.int32))
    # every shard fails at layers.1; the last, whose sequence then holds
    # token 255 (non-finite embedding), already at layers.0
    for where in ("layers.1", "layers.0"):
        if where == "layers.0":
            batch.inputs[5, 7] = 255
            ck.tensors["embed.tok"][255, 0] = np.inf
        for threads in ("1", "2"):
            monkeypatch.setenv("QLAB_THREADS", threads)
            with pytest.raises(NumericFailure) as exc, np.errstate(invalid="ignore"):
                model.loss_and_grads(ck, batch)
            assert exc.value.where == where


@pytest.mark.parametrize("every_shard_at_layers_1", [False, True])
def test_late_failing_shard_raises_the_earliest_layer(monkeypatch, shards,
                                                      every_shard_at_layers_1):
    # 8 shards, more than the stream keeps in flight at 2 or 3 threads; only
    # the last fails at layers.0, after the others have been folded in (or,
    # when every shard fails at layers.1, after the first failures were met)
    ck = model.init(tiny_model_config())
    rng = np.random.Generator(np.random.PCG64(16))
    batch = Batch(rng.integers(0, 255, (16, 32)).astype(np.int32),
                  rng.integers(0, 256, (16, 32)).astype(np.int32))
    batch.inputs[15, 3] = 255  # the last sequence alone holds token 255, made non-finite
    ck.tensors["embed.tok"][255, 0] = np.inf
    if every_shard_at_layers_1:
        ck.tensors["layers.1.mlp.w2"][0, 0] = np.inf
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("QLAB_THREADS", threads)
        with pytest.raises(NumericFailure) as exc, np.errstate(invalid="ignore"):
            model.loss_and_grads(ck, batch)
        assert exc.value.where == "layers.0"


@pytest.mark.parametrize("threads", [2, 3])
def test_step_holds_at_most_two_gradient_sets_per_worker_plus_one(monkeypatch, shards, threads):
    """Each shard's gradient set is folded in and dropped as it finishes:
    of 12 shards' sets, at most 2 x workers + 1 are alive at any moment."""
    lock, alive, peak, made = threading.RLock(), [0], [0], []
    real = model._backward

    def release():
        with lock:
            alive[0] -= 1

    def counted(*args):
        nll, grads = real(*args)
        with lock:
            alive[0] += 1
            peak[0] = max(peak[0], alive[0])
            made.append(1)
        weakref.finalize(grads["unembed"], release)
        return nll, grads

    ck = model.init(tiny_model_config())
    rng = np.random.Generator(np.random.PCG64(24))
    batch = Batch(rng.integers(0, 256, (24, 32)).astype(np.int32),
                  rng.integers(0, 256, (24, 32)).astype(np.int32))
    reference = _per_shard_step(ck, batch)
    monkeypatch.setattr(model, "_backward", counted)
    monkeypatch.setenv("QLAB_THREADS", str(threads))
    got = model.loss_and_grads(ck, batch)
    assert len(made) == 12
    assert 2 <= peak[0] <= 2 * threads + 1
    _assert_same_bits(got, reference)
    del got
    assert alive[0] == 0


def test_shards_are_balanced_whole_sequences(shards):
    for B in range(1, 12):
        got = model._shards(B, 32)
        sizes = [s.stop - s.start for s in got]
        assert got[0].start == 0 and got[-1].stop == B
        assert all(a.stop == b.start for a, b in zip(got, got[1:]))
        assert max(sizes) - min(sizes) <= 1
        assert min(sizes) >= 2 or len(got) == 1
    shards(UNSHARDED)
    assert model._shards(64, 32) == [slice(0, 64)]


def _profile(name):
    from qlab import config as cfgmod

    return cfgmod.resolve(os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                                       f"{name}.cfg"))


@pytest.mark.parametrize("name, train, evals, calib", [
    ("tiny", [4] * 2, [4] * 2, [4] * 4),
    ("desk", [2] * 32, [2] * 8, [2] * 8),
])
def test_shipped_profiles_shard_layouts(name, train, evals, calib):
    # sequences per shard of a training, eval and calibration batch
    cfg = _profile(name)
    S = cfg["data.seq_len"]

    def layout(B):
        return [sl.stop - sl.start for sl in model._shards(B, S)]

    assert layout(cfg["train.batch_size"]) == train
    assert layout(cfg["eval.batch_size"]) == evals
    n = cfg["quant.calib_samples"]
    batches = build_calibration(np.zeros(n * S + 1, dtype=np.uint8), n, S)
    assert [layout(len(b.inputs)) for b in batches] == [calib] * len(batches)


def test_tiny_profile_step_identical_across_thread_counts(monkeypatch):
    from qlab.config import model_config

    cfg = _profile("tiny")
    ck = model.init(model_config(cfg))
    B, S = cfg["train.batch_size"], cfg["data.seq_len"]
    rng = np.random.Generator(np.random.PCG64(25))
    batch = Batch(rng.integers(0, 256, (B, S)).astype(np.int32),
                  rng.integers(0, 256, (B, S)).astype(np.int32))
    assert len(model._shards(B, S)) == 2
    reference = _per_shard_step(ck, batch)
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("QLAB_THREADS", threads)
        _assert_same_bits(model.loss_and_grads(ck, batch), reference)


def _outside(threads):
    """OpenBLAS's thread count outside a region at QLAB_THREADS=threads."""
    return min(threads, os.cpu_count() or 1)


def test_blas_count_restored_after_region(monkeypatch, shards):
    api = parallel._OWNER.blas()
    if api is None:
        pytest.skip("no OpenBLAS thread control in this numpy build")
    get, set_ = api
    monkeypatch.setenv("QLAB_THREADS", "2")
    seen = []
    set_(3)  # not the count it finds: the one QLAB_THREADS gives
    for f in parallel.stream(lambda _: seen.append(get()), range(4)):
        f.result()
    assert get() == _outside(2)
    set_(3)
    ck = model.init(tiny_model_config())
    rng = np.random.Generator(np.random.PCG64(0))
    batch = Batch(rng.integers(0, 256, (6, 32)).astype(np.int32),
                  rng.integers(0, 256, (6, 32)).astype(np.int32))
    model.loss_and_grads(ck, batch)
    assert get() == _outside(2)
    assert seen == [1, 1, 1, 1]


def test_qlab_threads_sets_blas_outside_regions_in_process(monkeypatch, shards):
    api = parallel._OWNER.blas()
    if api is None:
        pytest.skip("no OpenBLAS thread control in this numpy build")
    get, set_ = api
    ck = model.init(tiny_model_config())
    rng = np.random.Generator(np.random.PCG64(1))
    batch = Batch(rng.integers(0, 256, (4, 32)).astype(np.int32),
                  rng.integers(0, 256, (4, 32)).astype(np.int32))
    assert len(model._shards(4, 32)) == 2
    set_(2)
    monkeypatch.setenv("QLAB_THREADS", "1")  # a serial step
    model.loss_and_grads(ck, batch)
    assert get() == 1
    monkeypatch.setenv("QLAB_THREADS", "2")  # a pooled step
    model.loss_and_grads(ck, batch)
    assert get() == _outside(2)


def test_concurrent_regions_keep_blas_at_one_and_restore_it(monkeypatch):
    api = parallel._OWNER.blas()
    if api is None:
        pytest.skip("no OpenBLAS thread control in this numpy build")
    get, _ = api
    monkeypatch.setenv("QLAB_THREADS", "4")
    errors = []

    def caller():
        try:
            for _ in range(20):
                got = [f.result() for f in parallel.stream(lambda i: (i, get()), range(6))]
                assert got == [(i, 1) for i in range(6)]
                for fut in parallel.stream(lambda i: get(), range(12)):  # stops early
                    assert fut.result() == 1
                    break
        except Exception as exc:
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller) for _ in range(3)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in callers)
    assert errors == []
    assert get() == _outside(4) and parallel._OWNER._regions == 0


def test_nested_region_runs_serially_in_the_worker(monkeypatch):
    monkeypatch.setenv("QLAB_THREADS", "2")

    def outer(i):
        inner = [f.result() for f in parallel.stream(lambda j: threading.get_ident(), range(3))]
        return threading.get_ident(), inner

    got = [f.result() for f in parallel.stream(outer, range(2))]
    if parallel._OWNER.blas() is not None:
        assert all(me != threading.get_ident() and inner == [me] * 3 for me, inner in got)
    assert not parallel._OWNER.in_worker()


@pytest.mark.parametrize("threads", ["2", "3"])
def test_stream_yields_item_order_under_shuffled_completion(monkeypatch, threads):
    if parallel._OWNER.blas() is None:
        pytest.skip("no OpenBLAS thread control in this numpy build: items run serially")
    monkeypatch.setenv("QLAB_THREADS", threads)
    finished = [threading.Event() for _ in range(8)]
    completed = []

    def fn(i):
        if i % 2 == 0:  # item 2k finishes only after item 2k + 1
            assert finished[i + 1].wait(timeout=60)
        completed.append(i)
        finished[i].set()
        return i

    seen = []
    for fut in parallel.stream(fn, range(8)):
        assert fut.done()
        seen.append(fut.result())
    assert seen == list(range(8))
    assert sorted(completed) == list(range(8))
    assert all(completed.index(k + 1) < completed.index(k) for k in range(0, 8, 2))


@pytest.mark.parametrize("threads", ["1", "2", "3"])
def test_stream_runs_every_item_when_an_early_one_raises(monkeypatch, threads):
    monkeypatch.setenv("QLAB_THREADS", threads)
    ran = []

    def fn(i):
        ran.append(i)
        if i == 0:
            raise ValueError(i)
        return i

    outcomes = [f.exception() or f.result() for f in parallel.stream(fn, range(9))]
    assert sorted(ran) == list(range(9))
    assert isinstance(outcomes[0], ValueError) and outcomes[1:] == list(range(1, 9))


def test_blas_count_restored_after_stream_and_early_stop(monkeypatch):
    api = parallel._OWNER.blas()
    if api is None:
        pytest.skip("no OpenBLAS thread control in this numpy build")
    get, set_ = api
    monkeypatch.setenv("QLAB_THREADS", "2")
    ran = []

    def fn(i):
        ran.append(i)
        return get()

    set_(3)
    assert [f.result() for f in parallel.stream(fn, range(6))] == [1] * 6
    assert get() == _outside(2)
    ran.clear()
    set_(3)
    for fut in parallel.stream(fn, range(10)):
        assert fut.result() == 1
        break
    # the stream was closed: the 2 x 2 items in flight finished, no more started
    assert get() == _outside(2) and parallel._OWNER._regions == 0
    assert sorted(ran) == [0, 1, 2, 3]


def test_missing_blas_symbol_runs_serially_with_same_results(monkeypatch, shards, caplog):
    ck = model.init(tiny_model_config())
    rng = np.random.Generator(np.random.PCG64(3))
    batch = Batch(rng.integers(0, 256, (7, 32)).astype(np.int32),
                  rng.integers(0, 256, (7, 32)).astype(np.int32))
    monkeypatch.setenv("QLAB_THREADS", "2")
    with_blas = model.loss_and_grads(ck, batch)

    def no_library(path):
        raise OSError(f"cannot load {path}")

    monkeypatch.setattr(ctypes, "CDLL", no_library)
    monkeypatch.setattr(parallel, "_OWNER", parallel._Owner())
    with caplog.at_level(logging.WARNING, logger="qlab"):
        assert parallel._OWNER.blas() is None
        assert parallel._OWNER.blas() is None
    assert [r.getMessage() for r in caplog.records] == [
        "numpy's OpenBLAS exposes no thread control: shards and parallel jobs run serially"]
    threads = []
    for f in parallel.stream(lambda _: threads.append(parallel._OWNER.in_worker()), range(3)):
        f.result()
    assert threads == [False] * 3
    _assert_same_bits(model.loss_and_grads(ck, batch), with_blas)


class _Libc:
    """A C library whose mallopt records its calls in `events`."""

    def __init__(self, events):
        self.events = events

    def mallopt(self, param, value):
        self.events.append(("mallopt", param, value))
        return 1


def test_arena_cap_set_once_before_the_first_pool(monkeypatch):
    if parallel._OWNER.blas() is None:
        pytest.skip("no OpenBLAS thread control in this numpy build: no pool is made")
    events = []
    monkeypatch.setattr(parallel, "_libc", lambda: _Libc(events))
    monkeypatch.setattr(parallel, "_OWNER", parallel._Owner())

    class Pool(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            events.append("pool")
            super().__init__(*args, **kwargs)

    malloc = [("mallopt", parallel.M_ARENA_MAX, 1),
              ("mallopt", parallel.M_MMAP_THRESHOLD, parallel.MMAP_THRESHOLD),
              ("mallopt", parallel.M_TRIM_THRESHOLD, parallel.TRIM_THRESHOLD)]
    monkeypatch.setenv("QLAB_THREADS", "1")
    # serial: set-up, no pool
    assert [f.result() for f in parallel.stream(lambda i: i, range(3), Pool)] == [0, 1, 2]
    assert events == malloc
    monkeypatch.setenv("QLAB_THREADS", "2")
    for _ in range(3):
        assert [f.result() for f in parallel.stream(lambda i: i, range(3), Pool)] == [0, 1, 2]
    assert events == malloc + ["pool", "pool", "pool"]


def test_libc_without_mallopt_skips_the_cap_with_same_results(monkeypatch, shards, caplog):
    ck = model.init(tiny_model_config())
    rng = np.random.Generator(np.random.PCG64(4))
    batch = Batch(rng.integers(0, 256, (6, 32)).astype(np.int32),
                  rng.integers(0, 256, (6, 32)).astype(np.int32))
    monkeypatch.setenv("QLAB_THREADS", "2")
    with_cap = model.loss_and_grads(ck, batch)
    monkeypatch.setattr(parallel, "_libc", lambda: object())
    monkeypatch.setattr(parallel, "_OWNER", parallel._Owner())
    with caplog.at_level(logging.DEBUG, logger="qlab"):
        _assert_same_bits(model.loss_and_grads(ck, batch), with_cap)
    assert caplog.records == []
    assert parallel._OWNER._started


def test_only_the_owner_makes_threads():
    """Every worker comes from `parallel`, which the BLAS hold and the arena
    cap rely on: no other module constructs a Thread or a thread pool, nor
    names an OpenBLAS thread-count symbol."""
    src = os.path.dirname(parallel.__file__)
    makers = {"Thread", "ThreadPoolExecutor"}
    found = []
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        if os.path.basename(path) == "parallel.py":
            continue
        with open(path, encoding="utf-8") as f:
            text = f.read()
        if "set_num_threads" in text:
            found.append(os.path.basename(path))
        tree = ast.parse(text, path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
                if name in makers:
                    found.append(f"{os.path.basename(path)}:{node.lineno}")
    assert found == []


# -- the GPTQ calibration walk ------------------------------------------------------


def _calib(ck, n_seq=9, batch_size=5):
    """Calibration batches of 5 and 4 sequences: 2-sequence shards make 2 of each."""
    rng = np.random.Generator(np.random.PCG64(n_seq))
    S = ck.config.seq_len
    stream = rng.integers(0, 256, n_seq * S + 1 + S).astype(np.uint8)
    return build_calibration(stream, n_seq, S, batch_size)


def _gptq(ck, calib):
    qm, stats = quantize_model(ck, calib, QuantConfig(bits=3, group_size=16))
    return qm.layers, [(s.name, s.weight_error, s.recon_error, s.damping_used) for s in stats]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gptq_walk_identical_across_thread_counts(monkeypatch, shards, dtype):
    # the stage Grams are summed in shard order, so every thread count gives
    # the same bits; the unsharded walk sums other partial products, which
    # moves only the recon errors' last digits here and flips no code
    ck = model.init(tiny_model_config(), dtype=dtype)
    calib = _calib(ck)
    made = record_shards(monkeypatch)
    results = {}
    for threads in (1, 2, 3):
        monkeypatch.setenv("QLAB_THREADS", str(threads))
        made.clear()
        results[threads] = _gptq(ck, calib)
        assert made == [2, 2]
    shards(UNSHARDED)
    made.clear()
    reference = _gptq(ck, calib)
    assert made == [1, 1]
    layers, stats = results[1]
    for threads in (2, 3):
        assert results[threads][1] == stats
        assert set(results[threads][0]) == set(layers)
        for name, q in results[threads][0].items():
            for field in ("codes", "scales", "zeros"):
                assert np.array_equal(getattr(q, field), getattr(layers[name], field)), name
    for (name, w_err, r_err, damp), ref in zip(stats, reference[1]):
        assert (name, w_err, damp) == (ref[0], ref[1], ref[3])
        assert abs(r_err - ref[2]) <= 1e-12 * ref[2]
        for field in ("codes", "scales", "zeros"):
            assert np.array_equal(getattr(layers[name], field),
                                  getattr(reference[0][name], field)), name


def test_sharded_walk_flags_nonfinite_layer(monkeypatch, shards):
    ck = model.init(tiny_model_config())
    ck.tensors["layers.1.attn.wo"][0, 0] = np.inf
    calib = _calib(ck)
    made = record_shards(monkeypatch)
    for threads in ("1", "2"):
        monkeypatch.setenv("QLAB_THREADS", threads)
        made.clear()
        staged = []

        def on_stage(names, G):
            staged.extend(names)
            return [ck.tensors[n] for n in names]

        with pytest.raises(NumericFailure) as exc, np.errstate(invalid="ignore"):
            model.capture_layer_inputs(ck, calib, on_stage)
        assert exc.value.where == "layers.1"
        assert made == [2, 2]
        assert staged == model.quantizable_layer_names(ck.config)


# -- commands --------------------------------------------------------------------


def _files(root):
    """Every file under root by relative path."""
    out = {}
    for path in sorted(glob.glob(os.path.join(root, "**", "*"), recursive=True)):
        if os.path.isfile(path):
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = f.read()
    return out


def test_train_artifacts_identical_across_thread_counts(tmp_path, corpus_path, monkeypatch,
                                                        shards, caplog):
    cfg = micro_train_config(corpus_path)
    roots = {}
    for label, threads, floor in (("t1", "1", FORCED_SHARD), ("t2", "2", FORCED_SHARD),
                                  ("unsharded", "2", UNSHARDED)):
        shards(floor)
        monkeypatch.setenv("QLAB_THREADS", threads)
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="qlab"):
            harness.cmd_train(cfg, str(tmp_path / label))
        progress = [r.getMessage() for r in caplog.records if "steps/s" in r.getMessage()]
        # one progress line per train.log_interval (10) up to the 60-step target
        assert [m.split(":")[0].split()[-1] for m in progress] == [f"{s}/60" for s in range(10, 61, 10)]
        assert all("train " in m and "eta " in m for m in progress)
        assert progress[-1].endswith("eta 0s")
        roots[label] = _files(str(tmp_path / label))
    assert any(name.endswith("ckpt_60.qlab") for name in roots["t1"])
    assert roots["t1"] == roots["t2"]
    # two shards per step: their summed gradients are not the unsharded pass's bits
    assert roots["t1"] != roots["unsharded"]


def test_sharded_run_resumes_bitwise_across_thread_counts(tmp_path, corpus_path, monkeypatch,
                                                          shards):
    cfg = micro_train_config(corpus_path)
    monkeypatch.setenv("QLAB_THREADS", "1")
    full = harness.cmd_train(cfg, str(tmp_path / "full"))
    monkeypatch.setenv("QLAB_THREADS", "2")
    harness.cmd_train(cfg, str(tmp_path / "split"), stop_after=30)
    monkeypatch.setenv("QLAB_THREADS", "1")
    resumed = harness.cmd_train(cfg, str(tmp_path / "split"))
    assert _sha256(harness.ckpt_path(full, 60)) == _sha256(harness.ckpt_path(resumed, 60))
    assert _sha256(os.path.join(full, harness.METRICS)) == _sha256(os.path.join(resumed, harness.METRICS))


def test_quantize_eval_jobs_match_serial(tmp_path, corpus_path, monkeypatch, shards):
    cfg = micro_train_config(corpus_path, **{"schedule.total_steps": 20})
    monkeypatch.setenv("QLAB_THREADS", "1")
    run_dir = harness.cmd_train(cfg, str(tmp_path / "base"))
    got = {}
    for threads in ("1", "2"):
        copy = str(tmp_path / f"eval{threads}")
        shutil.copytree(run_dir, copy)
        monkeypatch.setenv("QLAB_THREADS", threads)
        recs, fails = harness.cmd_quantize_eval(copy, bits=(3,), steps=[10, 20])
        assert fails == [] and [r.step for r in recs] == [10, 20]
        got[threads] = ([record_to_row(r) for r in recs], _files(copy))
    assert got["1"] == got["2"]


# -- bit widths as parallel jobs -----------------------------------------------------


def serial_evaluate(ckpt, checksum, data, cfg, bits, table=None):
    """The serial loop the bit-width jobs replaced: each bit width quantized,
    then evaluated, before the next; it computes every result, whatever
    `table` holds."""
    from qlab import config as cfgmod
    from qlab.metrics import eval_ce

    fp_key, quant_keys = harness.qeval_keys(checksum, data, cfg, bits)
    found = {fp_key: (*eval_ce(ckpt, data.eval_batches), [])}
    for b in bits:
        qcfg = cfgmod.quant_config(cfg, b)
        qm, stats = harness.quantize_model(ckpt, data.calib_set if qcfg.calibrated else None, qcfg)
        found[quant_keys[b]] = (*eval_ce(qm, data.eval_batches), stats)
    return found


@pytest.fixture
def micro_run(tmp_path, corpus_path, monkeypatch):
    """A 20-step micro run with checkpoints at 10 and 20; returns a function
    that copies it to a fresh directory."""
    cfg = micro_train_config(corpus_path, **{"schedule.total_steps": 20})
    monkeypatch.setenv("QLAB_THREADS", "1")
    run_dir = harness.cmd_train(cfg, str(tmp_path / "base"))

    def copy(label):
        return shutil.copytree(run_dir, str(tmp_path / label))

    return copy


def _quantize_eval(monkeypatch, run_dir, threads, serial, steps=(20,)):
    with monkeypatch.context() as m:
        m.setenv("QLAB_THREADS", threads)
        if serial:
            m.setattr(harness, "evaluate_checkpoint_quantized", serial_evaluate)
        return harness.cmd_quantize_eval(run_dir, bits=(3, 4), steps=list(steps))


def _sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_bit_width_jobs_write_the_serial_loops_files(micro_run, monkeypatch, threads):
    got = {}
    for serial in (True, False):
        run_dir = micro_run(f"{threads}-{serial}")
        recs, fails = _quantize_eval(monkeypatch, run_dir, threads, serial)
        assert fails == [] and [r.step for r in recs] == [20]
        got[serial] = [_sha256(os.path.join(run_dir, t)) for t in (harness.METRICS,
                                                                    harness.QEVAL)]
    assert got[True] == got[False]


@pytest.mark.parametrize("failing", [(4,), (3, 4)])
def test_bit_width_jobs_raise_the_serial_loops_failure(micro_run, monkeypatch, failing):
    from qlab.errors import QuantizationError

    real = harness.quantize_model

    def quantize(ckpt, calib, cfg):
        if cfg.bits in failing:
            raise QuantizationError(f"no {cfg.bits}-bit solve", layer=f"bits{cfg.bits}")
        return real(ckpt, calib, cfg)

    monkeypatch.setattr(harness, "quantize_model", quantize)
    got = {}
    for serial in (True, False):
        recs, fails = _quantize_eval(monkeypatch, micro_run(f"fail-{serial}"), "2", serial)
        assert recs == []
        got[serial] = fails
    assert got[False] == got[True] == [(20, f"no {failing[0]}-bit solve")]


def test_a_failing_bit_width_job_closes_its_region(micro_run, monkeypatch):
    from qlab.errors import QuantizationError

    api = parallel._OWNER.blas()
    if api is None:
        pytest.skip("no OpenBLAS thread control in this numpy build: the bit widths run serially")
    get, set_ = api
    run_dir = micro_run("close")
    cfg = harness.load_manifest(run_dir)
    data = harness.build_data(cfg)
    ckpt = model.load_checkpoint(harness.ckpt_path(run_dir, 20))
    failing, ended, real = threading.Event(), [], harness.quantize_model

    def quantize(ck, calib, qcfg):
        if qcfg.bits == 3:
            failing.set()
            raise QuantizationError("no 3-bit solve", layer="bits3")
        assert failing.wait(timeout=60)
        time.sleep(0.1)  # still running when the 3-bit failure is raised
        out = real(ck, calib, qcfg)
        ended.append(qcfg.bits)
        return out

    monkeypatch.setattr(harness, "quantize_model", quantize)
    monkeypatch.setenv("QLAB_THREADS", "2")
    set_(3)
    with pytest.raises(QuantizationError) as exc:
        harness.evaluate_checkpoint_quantized(ckpt, "", data, cfg, (3, 4))
    # the traceback, which holds the consuming frames, is still alive here
    assert str(exc.value) == "no 3-bit solve"
    assert ended == [4]
    assert get() == _outside(2) and parallel._OWNER._regions == 0


def _record_quantize(monkeypatch) -> list:
    """Wraps harness.quantize_model: appends (thread, step, bits, "start"|"end")."""
    events, real = [], harness.quantize_model

    def quantize(ckpt, calib, cfg):
        events.append((threading.get_ident(), ckpt.step, cfg.bits, "start"))
        out = real(ckpt, calib, cfg)
        events.append((threading.get_ident(), ckpt.step, cfg.bits, "end"))
        return out

    monkeypatch.setattr(harness, "quantize_model", quantize)
    return events


def test_one_checkpoints_bit_widths_run_on_two_workers(micro_run, monkeypatch):
    events = _record_quantize(monkeypatch)
    _quantize_eval(monkeypatch, micro_run("one"), "2", serial=False)
    assert sorted((s, b, e) for _, s, b, e in events) == [
        (20, 3, "end"), (20, 3, "start"), (20, 4, "end"), (20, 4, "start")]
    assert len({t for t, *_ in events}) == 2
    assert threading.get_ident() not in {t for t, *_ in events}


def test_two_checkpoints_run_their_bit_widths_serially_in_each_job(micro_run, monkeypatch):
    events = _record_quantize(monkeypatch)
    _quantize_eval(monkeypatch, micro_run("two"), "2", serial=False, steps=(10, 20))
    assert len({t for t, *_ in events}) == 2  # one worker per checkpoint
    for step in (10, 20):
        mine = [e for e in events if e[1] == step]
        assert len({t for t, *_ in mine}) == 1
        assert [(b, e) for _, _, b, e in mine] == [(3, "start"), (3, "end"), (4, "start"), (4, "end")]


def test_full_calibration_runs_checkpoints_and_bit_widths_as_jobs(tmp_path, corpus_path,
                                                                   monkeypatch):
    # tiny.cfg with 128 calibration sequences: a stage's rows are 16384 x 256,
    # 33.5 MB in float64, but the walk hands GPTQ only 256 x 256 Grams, so
    # checkpoints and bit widths run as pool jobs at this size too
    from qlab import config as cfgmod

    if parallel._OWNER.blas() is None:
        pytest.skip("no OpenBLAS thread control in this numpy build: jobs run serially")
    cfg = cfgmod.resolve(os.path.join(os.path.dirname(__file__), os.pardir, "configs", "tiny.cfg"),
                         [f"data.path={corpus_path}", "quant.calib_samples=128",
                          "schedule.total_steps=20", "train.ckpt_interval=10",
                          "train.eval_interval=10", "eval.batches=1"])
    monkeypatch.setenv("QLAB_THREADS", "2")
    run_dir = harness.cmd_train(cfg, str(tmp_path / "base"))
    me, got = threading.get_ident(), {}
    for threads in ("1", "2", "3"):
        copy = shutil.copytree(run_dir, str(tmp_path / f"t{threads}"))
        with monkeypatch.context() as m:
            events = _record_quantize(m)
            recs, fails = _quantize_eval(monkeypatch, copy, threads, serial=False, steps=(10, 20))
        assert fails == [] and [r.step for r in recs] == [10, 20]
        got[threads] = [_sha256(os.path.join(copy, t)) for t in (harness.METRICS,
                                                                 harness.QEVAL)]
        workers = {t for t, *_ in events}  # one job per checkpoint on a pool
        assert workers == {me} if threads == "1" else len(workers) == 2 and me not in workers
    assert got["1"] == got["2"] == got["3"]
    events = _record_quantize(monkeypatch)  # a lone checkpoint: its bit widths are the jobs
    _quantize_eval(monkeypatch, shutil.copytree(run_dir, str(tmp_path / "lone")), "2",
                   serial=False, steps=(20,))
    assert sorted((b, e) for _, _, b, e in events) == [(3, "end"), (3, "start"),
                                                       (4, "end"), (4, "start")]
    assert len({t for t, *_ in events}) == 2 and me not in {t for t, *_ in events}
