import dataclasses

import numpy as np
import pytest

from conftest import tiny_model_config
from qlab.averaging import AveragingWindow, lawa_push, soup
from qlab.errors import ContractViolation
from qlab.model import init

CFG = tiny_model_config(vocab=16, d_model=8, n_layers=1, n_heads=2, d_ff=16, seq_len=4)


def with_tensors(base, fn):
    return dataclasses.replace(
        base, tensors={k: fn(v).astype(v.dtype) for k, v in base.tensors.items()}
    )


@pytest.fixture()
def ckpts():
    a = init(CFG)
    b = with_tensors(a, lambda v: v + 0.5)
    c = with_tensors(a, lambda v: v * -1.0)
    return a, b, c


def test_window_of_identical_checkpoints_is_identity(ckpts):
    a, _, _ = ckpts
    w = AveragingWindow(capacity=5)
    for _ in range(5):
        out = lawa_push(w, a)
    for k in a.tensors:
        assert np.array_equal(out.tensors[k], a.tensors[k])


def test_window_capacity_one_returns_latest(ckpts):
    a, b, _ = ckpts
    w = AveragingWindow(capacity=1)
    lawa_push(w, a)
    out = lawa_push(w, b)
    for k in b.tensors:
        assert np.array_equal(out.tensors[k], b.tensors[k])


def test_window_two_averages_arithmetically():
    one = with_tensors(init(CFG), lambda v: np.ones_like(v))
    three = with_tensors(init(CFG), lambda v: np.full_like(v, 3.0))
    w = AveragingWindow(capacity=2)
    lawa_push(w, one)
    out = lawa_push(w, three)
    for v in out.tensors.values():
        assert np.all(v == 2.0)


def test_window_evicts_oldest(ckpts):
    a, b, _ = ckpts
    w = AveragingWindow(capacity=2)
    lawa_push(w, a)
    lawa_push(w, b)
    out = lawa_push(w, b)  # window now [b, b]
    for k in b.tensors:
        assert np.array_equal(out.tensors[k], b.tensors[k])
    assert len(w) == 2


def test_window_cache_matches_mean(ckpts):
    a, b, _ = ckpts
    w = AveragingWindow(capacity=3)
    lawa_push(w, a)
    out = lawa_push(w, b)
    for k in a.tensors:
        mean = (a.tensors[k].astype(np.float64) + b.tensors[k]) / 2
        assert out.tensors[k].dtype == a.tensors[k].dtype
        assert np.array_equal(out.tensors[k], mean.astype(a.tensors[k].dtype))


def test_window_carries_newest_step(ckpts):
    a, b, _ = ckpts
    a = dataclasses.replace(a, step=100, tokens_seen=1000)
    b = dataclasses.replace(b, step=200, tokens_seen=2000)
    w = AveragingWindow(capacity=4)
    lawa_push(w, a)
    out = lawa_push(w, b)
    assert out.step == 200 and out.tokens_seen == 2000


def test_window_rejects_mismatched_shapes(ckpts):
    a, _, _ = ckpts
    other = init(tiny_model_config(vocab=16, d_model=16, n_layers=1, n_heads=2,
                                   d_ff=16, seq_len=4))
    w = AveragingWindow(capacity=2)
    lawa_push(w, a)
    with pytest.raises(ContractViolation):
        lawa_push(w, other)


def test_soup_weight_one_zero(ckpts):
    a, b, _ = ckpts
    out = soup([a, b], [1.0, 0.0])
    for k in a.tensors:
        assert np.array_equal(out.tensors[k], a.tensors[k])


def test_soup_point_nine_point_one():
    zeros = with_tensors(init(CFG), lambda v: np.zeros_like(v))
    tens = with_tensors(init(CFG), lambda v: np.full_like(v, 10.0))
    out = soup([zeros, tens], [0.9, 0.1])
    for v in out.tensors.values():
        assert np.all(v == 1.0)


def test_soup_of_copies_dyadic_weights(ckpts):
    a, _, _ = ckpts
    out = soup([a, a, a, a], [0.5, 0.25, 0.125, 0.125])
    for k in a.tensors:
        assert np.array_equal(out.tensors[k], a.tensors[k])


def test_soup_of_copies_any_weights_close(ckpts):
    a, _, _ = ckpts
    out = soup([a, a, a], [0.3, 0.3, 0.4])
    for k in a.tensors:
        assert np.max(np.abs(out.tensors[k].astype(np.float64) - a.tensors[k])) < 1e-12


def test_soup_rejects_bad_weight_sum(ckpts):
    a, b, _ = ckpts
    with pytest.raises(ContractViolation):
        soup([a, b], [0.7, 0.4])


def test_soup_permutation_invariant(ckpts):
    a, b, c = ckpts
    x = soup([a, b, c], [0.5, 0.25, 0.25])
    y = soup([c, a, b], [0.25, 0.5, 0.25])
    for k in x.tensors:
        assert np.max(np.abs(x.tensors[k].astype(np.float64) - y.tensors[k])) < 1e-12


def test_lawa_equals_uniform_soup(ckpts):
    a, b, c = ckpts
    w = AveragingWindow(capacity=3)
    for ck in (a, b, c):
        lawa_out = lawa_push(w, ck)
    soup_out = soup([a, b, c], [1 / 3, 1 / 3, 1 / 3])
    for k in a.tensors:
        assert np.array_equal(lawa_out.tensors[k], soup_out.tensors[k])


def test_averaged_checkpoint_runs_forward(ckpts):
    from qlab.data import Batch
    from qlab.model import forward

    a, b, _ = ckpts
    out = soup([a, b], [0.5, 0.5])
    rng = np.random.Generator(np.random.PCG64(0))
    batch = Batch(rng.integers(0, 16, (2, 4)).astype(np.int32),
                  rng.integers(0, 16, (2, 4)).astype(np.int32))
    logits, _ = forward(out, batch)
    assert np.all(np.isfinite(logits))
