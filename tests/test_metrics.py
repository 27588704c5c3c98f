import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import micro_train_config, tiny_model_config
from qlab import config as cfgmod, harness, model, parallel, quant
from qlab.data import Batch, fixed_eval_batches
from qlab.errors import ContractViolation, MergeError, NumericFailure
from qlab.metrics import (
    CSV_HEADER,
    MetricRecord,
    MetricsStore,
    delta_ptq,
    eval_accuracy,
    eval_ce,
    fmt_real,
    record_to_row,
    relative_acc_drop,
    relative_ce_error,
)
from qlab.model import Checkpoint, forward, init, loss
from qlab.ndkernel import frobenius_norm
from qlab.quant import QuantConfig, QuantizedModel, eval_checkpoint, quantize_model


def test_relative_ce_error_cases():
    assert relative_ce_error(2.0, 2.0) == 0.0
    assert abs(relative_ce_error(2.2, 2.0) - 0.1) < 1e-12
    assert relative_ce_error(1.8, 2.0) < 0.0
    with pytest.raises(ContractViolation):
        relative_ce_error(1.0, 0.0)


def test_delta_ptq_cases():
    assert delta_ptq(2.0, 2.0) == 0.0
    assert delta_ptq(2.5, 2.0) == 0.5


@given(
    st.floats(0.1, 50.0, allow_nan=False),
    st.floats(0.01, 10.0, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_delta_equals_relative_times_base(ce_fp, gap):
    ce_q = ce_fp + gap
    lhs = delta_ptq(ce_q, ce_fp)
    rhs = relative_ce_error(ce_q, ce_fp) * ce_fp
    assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), 1.0)


def test_relative_acc_drop_cases():
    assert relative_acc_drop(0.6, 0.6) == 0.0
    assert abs(relative_acc_drop(0.6, 0.4) - 0.5) < 1e-12
    assert relative_acc_drop(0.5, 0.6) < 0.0
    # near-singular values are the caller's problem but still compute
    assert relative_acc_drop(0.999999, 0.9) > 0
    with pytest.raises(ContractViolation):
        relative_acc_drop(1.0, 0.5)
    with pytest.raises(ContractViolation):
        relative_acc_drop(0.5, 1.2)


def weight_norm(ckpt):
    return frobenius_norm(*ckpt.tensors.values())


def test_weight_norm_cases():
    cfg = tiny_model_config()
    ck = init(cfg)
    zero = Checkpoint({k: np.zeros_like(v) for k, v in ck.tensors.items()}, 0, 0, cfg)
    assert weight_norm(zero) == 0.0
    single = Checkpoint({"w": np.array([[3.0, 4.0]])}, 0, 0, cfg)
    assert weight_norm(single) == 5.0
    flat = np.concatenate([v.reshape(-1).astype(np.float64) for v in ck.tensors.values()])
    assert abs(weight_norm(ck) - np.linalg.norm(flat)) < 1e-12 * weight_norm(ck)
    # bitwise the per-tensor float64 accumulation metrics.csv and norms.csv were written with
    total = 0.0
    for t in ck.tensors.values():
        total += float(np.sum(np.square(t, dtype=np.float64)))
    assert weight_norm(ck) == float(np.sqrt(total))


def test_eval_ce_uniform_model(corpus_splits):
    _, val, _ = corpus_splits
    cfg = tiny_model_config(init_std=0.0)
    ck = init(cfg)
    batches = fixed_eval_batches(val, 2, 4, cfg.seq_len)
    ce, acc = eval_ce(ck, batches)
    assert abs(ce - math.log(256)) < 1e-6
    assert acc == eval_accuracy(ck, batches)


def test_eval_ce_deterministic(corpus_splits):
    _, val, _ = corpus_splits
    cfg = tiny_model_config()
    ck = init(cfg)
    batches = fixed_eval_batches(val, 2, 4, cfg.seq_len)
    assert eval_ce(ck, batches) == eval_ce(ck, batches)
    assert eval_accuracy(ck, batches) == eval_accuracy(ck, batches)


# -- the one evaluation pass ---------------------------------------------------


def _oracle(target, batches):
    """CE and accuracy from two separate serial forwards over each whole
    batch, summed in batch order."""
    ck = eval_checkpoint(target) if isinstance(target, QuantizedModel) else target
    nats, pos = 0.0, 0
    for b in batches:
        logits, _ = forward(ck, b)
        nats += loss(logits, b.targets) * b.inputs.size
        pos += b.inputs.size
    hits, total = 0, 0
    for b in batches:
        logits, _ = forward(ck, b)
        hits += int(np.sum(np.argmax(logits, axis=-1) == b.targets))
        total += b.inputs.size
    return nats / pos, hits / total


def _eval_batches(sizes, seq_len=32, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    return [Batch(rng.integers(0, 256, (n, seq_len)).astype(np.int32),
                  rng.integers(0, 256, (n, seq_len)).astype(np.int32)) for n in sizes]


@pytest.fixture
def item_log(monkeypatch):
    """Logs (rows, whether in a worker) of every forward pass over rows that
    keeps no layer cache: eval's (batch, shard) items."""
    calls, real = [], model._forward_rows

    def logged(cfg, T, ids, layers):
        if layers is None:
            calls.append((ids.shape[0], parallel._OWNER.in_worker()))
        return real(cfg, T, ids, layers)

    monkeypatch.setattr(model, "_forward_rows", logged)
    return calls


# shards of 2 sequences at the micro shapes (seq 32)
FORCED_SHARD = 64


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_eval_pass_equals_two_forward_oracle(monkeypatch, item_log, dtype):
    ck = init(tiny_model_config(), dtype=dtype)
    # sizes whose CE terms summed in another order give another float
    batches = _eval_batches([4, 3, 4, 2, 5, 1])
    qm, _ = quantize_model(ck, None, QuantConfig(bits=3, group_size=16, method="rtn"))
    # shards of 2 sequences, so most batches are split: their items are
    # shards of 2, 2 | 3 | 2, 2 | 2 | 2, 3 | 1 sequences
    monkeypatch.setattr(model, "SHARD_POSITIONS", FORCED_SHARD)
    monkeypatch.setenv("QLAB_THREADS", "1")
    expected = {"fp": _oracle(ck, batches), "q": _oracle(qm, batches)}
    assert expected["fp"] != expected["q"]
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("QLAB_THREADS", threads)
        for label, target in (("fp", ck), ("q", qm)):
            item_log.clear()
            assert eval_ce(target, batches) == expected[label]
            assert eval_accuracy(target, batches) == expected[label][1]
            # one item per (batch, shard) and pass, on the pool when there is one
            shard_rows = [2, 2, 3, 2, 2, 2, 2, 3, 1]
            assert sorted(rows for rows, _ in item_log) == sorted(shard_rows * 2)
            pooled = threads != "1" and parallel._OWNER.blas() is not None
            assert all(in_worker == pooled for _, in_worker in item_log)


@pytest.mark.parametrize("sizes, shard_rows", [([6], [2, 2, 2]), ([1, 1, 1], [1, 1, 1])])
def test_eval_items_run_on_the_pool_without_a_layer_cache(monkeypatch, item_log, sizes,
                                                          shard_rows):
    # one batch of several shards (as an eval batch of the shipped profiles)
    # or several one-shard batches: either way the items share one pooled
    # region, and neither they nor the calibration walk hand any sublayer a
    # cache, which only training reads
    caches = []

    def recording(name):
        real = getattr(model, name)

        def sublayer(*args):
            caches.append(args[-1])  # `_blocks` passes the cache last
            return real(*args)
        return sublayer

    ck = init(tiny_model_config())
    batches = _eval_batches(sizes, seed=2)
    monkeypatch.setattr(model, "SHARD_POSITIONS", FORCED_SHARD)
    monkeypatch.setenv("QLAB_THREADS", "1")
    expected = _oracle(ck, batches)
    for name in ("_prenorm", "_attend", "_mlp_hidden"):
        monkeypatch.setattr(model, name, recording(name))
    forward(ck, batches[0])
    assert len(caches) == 4 * ck.config.n_layers and all(c is not None for c in caches)
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("QLAB_THREADS", threads)
        item_log.clear()
        caches.clear()
        assert eval_ce(ck, batches) == expected
        assert sorted(rows for rows, _ in item_log) == shard_rows
        pooled = threads != "1" and parallel._OWNER.blas() is not None
        assert [in_worker for _, in_worker in item_log] == [pooled] * len(shard_rows)
        model.capture_layer_inputs(ck, batches,
                                   lambda names, G: [ck.tensors[n] for n in names])
        # four sublayers per layer, per item of the eval and of the walk
        assert len(caches) == 2 * 4 * ck.config.n_layers * len(shard_rows)
        assert all(c is None for c in caches)


def test_eval_flags_the_earliest_failing_batch_then_its_earliest_layer(monkeypatch):
    ck = init(tiny_model_config())
    # every sequence fails at layers.1; one holding token 255 (non-finite
    # embedding) already at layers.0
    ck.tensors["layers.1.mlp.w2"][0, 0] = np.inf
    ck.tensors["embed.tok"][255, 0] = np.inf
    monkeypatch.setattr(model, "SHARD_POSITIONS", FORCED_SHARD)
    rng = np.random.Generator(np.random.PCG64(12))
    batches = [Batch(rng.integers(0, 255, (4, 32)).astype(np.int32),
                     rng.integers(0, 256, (4, 32)).astype(np.int32)) for _ in range(2)]

    def failing_layer():
        reported = set()
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("QLAB_THREADS", threads)
            with pytest.raises(NumericFailure) as exc, np.errstate(invalid="ignore"):
                eval_ce(ck, batches)
            reported.add(exc.value.where)
        assert len(reported) == 1
        return reported.pop()

    assert failing_layer() == "layers.1"
    # the second batch fails at layers.0, but the first batch fails first
    batches[1].inputs[0, 5] = 255
    assert failing_layer() == "layers.1"
    # within the first batch, its second shard's layers.0 comes before its
    # first shard's layers.1
    batches[0].inputs[3, 9] = 255
    assert failing_layer() == "layers.0"


def test_eval_pass_nested_in_a_job_runs_serially(monkeypatch, item_log):
    ck = init(tiny_model_config())
    batches = _eval_batches([4, 3, 4], seed=1)
    monkeypatch.setenv("QLAB_THREADS", "1")
    expected = _oracle(ck, batches)
    item_log.clear()
    monkeypatch.setenv("QLAB_THREADS", "2")

    def job(_):
        return threading.get_ident(), eval_ce(ck, batches)

    jobs = [f.result() for f in parallel.stream(job, range(2))]
    assert [got for _, got in jobs] == [expected, expected]
    # the batches are one shard each: one item per batch and eval
    assert len(item_log) == 6
    if parallel._OWNER.blas() is not None:
        assert all(ident != threading.get_ident() for ident, _ in jobs)
        assert all(in_worker for _, in_worker in item_log)


def test_quantized_eval_dequantizes_each_layer_once(monkeypatch, item_log, corpus_path):
    cfg = micro_train_config(corpus_path)
    data = harness.build_data(cfg)
    ck = init(cfgmod.model_config(cfg))
    made, real = [], quant.dequantize

    def counted(q):
        made.append(id(q))
        return real(q)

    monkeypatch.setattr(quant, "dequantize", counted)
    qm, _ = quantize_model(ck, None, QuantConfig(bits=4, group_size=32, method="rtn"))
    made.clear()
    eval_ce(qm, data.eval_batches)
    assert sorted(made) == sorted(id(q) for q in qm.layers.values())

    made.clear()
    item_log.clear()
    rtn = dict(cfg, **{"quant.method": "rtn"})
    found = harness.evaluate_checkpoint_quantized(ck, "", data, rtn, (3, 4))
    # per bit width: one dequantize per layer in quantize_model, one in the eval pass
    n_layers = len(model.quantizable_layer_names(ck.config))
    assert len(made) == 2 * 2 * n_layers
    # one item per (one-shard) batch for the FP eval and for each bit width
    assert len(item_log) == 3 * len(data.eval_batches)
    fp_key, _ = harness.qeval_keys("", data.eval_hash, data.calib_hash, rtn, (3, 4))
    assert found[fp_key][:2] == _oracle(ck, data.eval_batches)


def test_eval_accuracy_uniform_model_near_chance():
    cfg = tiny_model_config(vocab=16, d_model=8, n_layers=1, n_heads=2, d_ff=16,
                            seq_len=16, init_std=0.0)
    ck = init(cfg)
    # break logit ties away from argmax=0 with a tiny unembedding perturbation
    rng = np.random.Generator(np.random.PCG64(0))
    ck.tensors["unembed"] += rng.standard_normal(ck.tensors["unembed"].shape).astype(np.float32) * 1e-4
    ck.tensors["embed.tok"] += rng.standard_normal(ck.tensors["embed.tok"].shape).astype(np.float32) * 1e-2
    n = 4096
    ids = rng.integers(0, 16, (n // 16, 16)).astype(np.int32)
    tg = rng.integers(0, 16, (n // 16, 16)).astype(np.int32)
    acc = eval_accuracy(ck, [Batch(ids, tg)])
    p = 1.0 / 16
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(acc - p) < 4 * sigma


def test_perfect_memorizer_accuracy():
    # a bigram lookup: token embedding one-hot, unembedding maps each token to
    # a huge logit on its deterministic successor
    cfg = tiny_model_config(vocab=16, d_model=16, n_layers=0, n_heads=1, d_ff=16,
                            seq_len=8, init_std=0.0)
    ck = init(cfg)
    ck.tensors["embed.tok"][:] = np.eye(16, dtype=np.float32) * 10
    succ = (np.arange(16) + 3) % 16
    U = np.zeros((16, 16), dtype=np.float32)
    for tok, s in enumerate(succ):
        U[s, tok] = 100.0
    ck.tensors["unembed"][:] = U
    rng = np.random.Generator(np.random.PCG64(1))
    ids = rng.integers(0, 16, (4, 8)).astype(np.int32)
    tg = succ[ids].astype(np.int32)
    assert eval_accuracy(ck, [Batch(ids, tg)]) == 1.0


# -- CSV store ------------------------------------------------------------------


def test_csv_header_exact():
    assert CSV_HEADER == (
        "run_id,step,tokens_seen,lr,train_loss,val_ce_fp,val_ce_q3,val_ce_q4,"
        "rel_ce_err3,rel_ce_err4,delta_ptq3,delta_ptq4,acc_fp,acc_q3,acc_q4,"
        "rel_acc_drop3,rel_acc_drop4,grad_norm,weight_norm"
    )


def test_fmt_real_nine_significant_digits():
    assert fmt_real(math.pi) == "3.14159265"
    assert fmt_real(None) == ""
    assert fmt_real(3e-3) == "0.003"


def test_store_roundtrip_and_merge(tmp_path):
    path = str(tmp_path / "m.csv")
    s = MetricsStore(path)
    s.upsert(record_to_row(MetricRecord("r1", 10, tokens_seen=100, lr=1e-3, train_loss=2.5)))
    s.upsert(record_to_row(
        MetricRecord("r1", 20, val_ce_fp=2.0, val_ce_q={3: 2.4}, rel_ce_err={3: 0.2})
    ))
    s.save()
    s2 = MetricsStore(path)
    assert list(s2.rows) == [("r1", "10"), ("r1", "20")]
    # merge quant fields into the training row
    s2.upsert(record_to_row(MetricRecord("r1", 10, val_ce_fp=2.2)))
    s2.save()
    s3 = MetricsStore(path)
    row = s3.rows[("r1", "10")]
    assert row["train_loss"] == "2.5" and row["val_ce_fp"] == "2.2"


def test_store_rejects_conflicting_values(tmp_path):
    path = str(tmp_path / "m.csv")
    s = MetricsStore(path)
    s.upsert(record_to_row(MetricRecord("r1", 10, val_ce_fp=2.0)))
    with pytest.raises(MergeError):
        s.upsert(record_to_row(MetricRecord("r1", 10, lr=1e-3, val_ce_fp=2.00001)))
    # a refused upsert changes no field, not even ones that did not conflict
    assert s.rows[("r1", "10")]["lr"] == ""
    # identical value merges fine
    s.upsert(record_to_row(MetricRecord("r1", 10, val_ce_fp=2.0)))


def test_keyed_table_with_own_header_and_key(tmp_path):
    path = str(tmp_path / "norms.csv")
    s = MetricsStore(path, "step,lr,loss", ("step",))
    s.upsert({"step": "20", "lr": "0.001", "loss": "2.5"})
    s.upsert({"step": "10", "lr": "0.002", "loss": "3"})
    s.upsert({"step": "20", "lr": "0.001", "loss": "2.5"})  # a re-emitted row merges
    s.save()
    with open(path, encoding="utf-8") as f:
        assert f.read() == "step,lr,loss\n20,0.001,2.5\n10,0.002,3\n"
    with pytest.raises(MergeError):
        MetricsStore(path, "step,lr,train_loss", ("step",))  # header must match exactly
    with pytest.raises(MergeError):
        MetricsStore(path, "step,lr,loss", ("step",)).upsert({"step": "10", "loss": "3.1"})
    with pytest.raises(ContractViolation):
        s.upsert({"step": "30", "grad_norm": "1"})
    assert list(MetricsStore(path, "step,lr,loss", ("step",), load=False).rows) == []


def test_record_validation():
    with pytest.raises(ContractViolation):
        MetricRecord("r", 0, val_ce_fp=-1.0).validate()
    with pytest.raises(ContractViolation):
        MetricRecord("r", 0, acc_fp=1.5).validate()
    MetricRecord("r", 0, val_ce_fp=2.0, acc_fp=0.5).validate()
