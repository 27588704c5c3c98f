import math

import numpy as np
import pytest

from conftest import forward_stage_inputs, record_shards, stage_grams, tiny_model_config
from qlab import model
from qlab.data import Batch, build_calibration
from qlab.errors import ConfigError, NumericFailure
from qlab.model import (
    Checkpoint,
    ModelConfig,
    backward,
    capture_layer_inputs,
    forward,
    init,
    load_checkpoint,
    loss,
    loss_and_grads,
    quantizable_layer_names,
    save_checkpoint,
    tensor_shapes,
    token_nll,
)


def rand_batch(rng, vocab, B, S):
    return Batch(
        rng.integers(0, vocab, (B, S)).astype(np.int32),
        rng.integers(0, vocab, (B, S)).astype(np.int32),
    )


def f64_model(seed=7, **kw):
    cfg = tiny_model_config(
        vocab=16, d_model=8, n_layers=2, n_heads=2, d_ff=16, seq_len=6,
        init_seed=seed, init_std=0.2, **kw
    )
    return init(cfg, dtype=np.float64)


# -- init ---------------------------------------------------------------------


def test_init_deterministic():
    cfg = tiny_model_config()
    a, b = init(cfg), init(cfg)
    for k in a.tensors:
        assert np.array_equal(a.tensors[k], b.tensors[k])


def test_init_zero_std():
    ck = init(tiny_model_config(init_std=0.0))
    for name, t in ck.tensors.items():
        if name.endswith(".g"):
            assert np.all(t == 1.0)
        else:
            assert np.all(t == 0.0)


def test_init_statistics():
    cfg = ModelConfig(vocab=256, d_model=192, n_layers=1, n_heads=6, d_ff=768,
                      seq_len=8, init_seed=5, init_std=0.02)
    t = init(cfg).tensors["layers.0.mlp.w1"]  # 768 x 192
    n = t.size
    assert abs(t.mean()) < 3 * 0.02 / math.sqrt(n)
    assert abs(t.std() - 0.02) < 3 * 0.02 / math.sqrt(2 * n)


def test_tensor_shapes_match_config():
    cfg = tiny_model_config()
    ck = init(cfg)
    shapes = tensor_shapes(cfg)
    assert set(ck.tensors) == set(shapes)
    for k, s in shapes.items():
        assert ck.tensors[k].shape == s


# -- forward ------------------------------------------------------------------


def test_zero_weight_model_zero_logits():
    ck = init(tiny_model_config(init_std=0.0))
    rng = np.random.Generator(np.random.PCG64(0))
    b = rand_batch(rng, 256, 2, 8)
    logits, _ = forward(ck, b)
    assert np.all(logits == 0.0)


def test_causal_mask_every_position():
    ck = f64_model()
    rng = np.random.Generator(np.random.PCG64(1))
    S = 6
    base = rand_batch(rng, 16, 1, S)
    ref, _ = forward(ck, base)
    for t in range(S - 1):
        ids = base.inputs.copy()
        ids[0, t + 1] = (ids[0, t + 1] + 1) % 16
        out, _ = forward(ck, Batch(ids, base.targets))
        assert np.array_equal(out[0, : t + 1], ref[0, : t + 1])
        assert not np.array_equal(out[0, t + 1], ref[0, t + 1])


def straight_line_forward(ck, ids):
    """Independent per-position reimplementation used as an oracle."""
    cfg = ck.config
    T = ck.tensors
    B, S = ids.shape
    D, H = cfg.d_model, cfg.n_heads
    Dh = D // H
    eps = 1e-6
    c0, c1 = math.sqrt(2.0 / math.pi), 0.044715

    def rmsnorm(vec, gain):
        r = 1.0 / math.sqrt(sum(x * x for x in vec) / len(vec) + eps)
        return np.array([x * r for x in vec]) * gain

    logits = np.zeros((B, S, cfg.vocab))
    for bi in range(B):
        xs = [T["embed.tok"][ids[bi, t]] + T["embed.pos"][t] for t in range(S)]
        for li in range(cfg.n_layers):
            p = f"layers.{li}"
            a_in = [rmsnorm(xs[t], T[f"{p}.norm1.g"][0]) for t in range(S)]
            q = [T[f"{p}.attn.wq"] @ a_in[t] for t in range(S)]
            k = [T[f"{p}.attn.wk"] @ a_in[t] for t in range(S)]
            v = [T[f"{p}.attn.wv"] @ a_in[t] for t in range(S)]
            ctx = [np.zeros(D) for _ in range(S)]
            for h in range(H):
                sl = slice(h * Dh, (h + 1) * Dh)
                for t in range(S):
                    scores = [q[t][sl] @ k[u][sl] / math.sqrt(Dh) for u in range(t + 1)]
                    m = max(scores)
                    ex = [math.exp(s - m) for s in scores]
                    tot = sum(ex)
                    for u in range(t + 1):
                        ctx[t][sl] += (ex[u] / tot) * v[u][sl]
            for t in range(S):
                xs[t] = xs[t] + T[f"{p}.attn.wo"] @ ctx[t]
            for t in range(S):
                m_in = rmsnorm(xs[t], T[f"{p}.norm2.g"][0])
                h1 = T[f"{p}.mlp.w1"] @ m_in
                g = np.array(
                    [0.5 * u * (1 + math.tanh(c0 * (u + c1 * u**3))) for u in h1]
                )
                xs[t] = xs[t] + T[f"{p}.mlp.w2"] @ g
        for t in range(S):
            hf = rmsnorm(xs[t], T["norm_f.g"][0])
            logits[bi, t] = T["unembed"] @ hf
    return logits


def test_forward_matches_straight_line_oracle():
    ck = f64_model()
    rng = np.random.Generator(np.random.PCG64(2))
    b = rand_batch(rng, 16, 2, 6)
    fast, _ = forward(ck, b)
    slow = straight_line_forward(ck, b.inputs)
    assert np.max(np.abs(fast - slow)) < 1e-10


def test_forward_rejects_long_sequence():
    ck = f64_model()
    rng = np.random.Generator(np.random.PCG64(3))
    with pytest.raises(ConfigError):
        forward(ck, rand_batch(rng, 16, 1, 10))


def test_forward_flags_nonfinite_layer():
    ck = f64_model()
    ck.tensors["layers.1.mlp.w2"][0, 0] = np.inf
    rng = np.random.Generator(np.random.PCG64(4))
    with pytest.raises(NumericFailure) as exc:
        forward(ck, rand_batch(rng, 16, 1, 6))
    assert exc.value.where == "layers.1"

    # every sequence fails at layers.1, and the last, which holds token 15
    # (non-finite embedding), already at layers.0, which the batch reports
    b = rand_batch(rng, 15, 5, 6)
    b.inputs[4, 3] = 15
    ck.tensors["embed.tok"][15, 0] = np.inf
    with pytest.raises(NumericFailure) as exc, np.errstate(invalid="ignore"):
        forward(ck, b)
    assert exc.value.where == "layers.0"


# -- attention tiles and in-place elementwise chains ----------------------------


def same_bits(a, b) -> bool:
    """Equal shapes, dtypes and bit patterns (signed zeros included)."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def untiled_softmax(scores, scale):
    """Reference causal softmax of raw scores [..., S, S]."""
    S = scores.shape[-1]
    mask = np.zeros((S, S), dtype=scores.dtype)
    mask[np.triu_indices(S, k=1)] = -np.inf
    s = scores * scale + mask
    s -= np.max(s, axis=-1, keepdims=True)
    e = np.exp(s)
    return e / np.sum(e, axis=-1, keepdims=True, dtype=np.float64).astype(scores.dtype)


def untiled_attention(q, k, v):
    """Reference attention core over full S x S scores: (probs, ctx), heads
    [B, H, S, Dh]."""
    scores = np.matmul(q, k.transpose(0, 1, 3, 2))
    probs = untiled_softmax(scores, 1.0 / math.sqrt(q.shape[-1]))
    return probs, np.matmul(probs, v)


def untiled_attention_backward(dctx, q, k, v, probs):
    """Reference gradients of the attention core over full S x S blocks:
    (dq, dk, dv)."""
    inv = 1.0 / math.sqrt(q.shape[-1])
    dprobs = np.matmul(dctx, v.transpose(0, 1, 3, 2))
    dv = np.matmul(probs.transpose(0, 1, 3, 2), dctx)
    row = np.sum(dprobs * probs, axis=-1, keepdims=True, dtype=np.float64).astype(q.dtype)
    dscores = probs * (dprobs - row)
    dq = np.matmul(dscores, k) * inv
    dk = np.matmul(dscores.transpose(0, 1, 3, 2), q) * inv
    return dq, dk, dv


@pytest.mark.parametrize("S,dtype", [(6, np.float32), (64, np.float32), (65, np.float32),
                                     (128, np.float32), (200, np.float32), (256, np.float64)])
def test_attention_tiles_match_untiled_reference(S, dtype):
    # shorter than a tile, one tile, and lengths that are no multiple of
    # one; large q/k weights spread each score row over tens of nats, as
    # trained attention does, so the 64-bit row sums round; float32 mostly
    # rounds that away, float64 shows whether they sum in the untiled order
    cfg = ModelConfig(vocab=16, d_model=24, n_layers=1, n_heads=3, d_ff=8, seq_len=S)
    B, d, H, Dh = 2, cfg.d_model, cfg.n_heads, cfg.d_head
    rng = np.random.Generator(np.random.PCG64(S))
    a_in = rng.standard_normal((B, S, d)).astype(dtype)
    wq, wk, wv = (rng.standard_normal((d, d)).astype(dtype) * s for s in (1.5, 1.5, 0.2))
    c = {}
    ctx = model._attend(a_in, wq, wk, wv, cfg, c)
    assert ctx is c["ctx"]
    q, k, v = c["q"], c["k"], c["v"]
    probs, ctx_heads = untiled_attention(q, k, v)
    assert same_bits(c["probs"], probs)
    assert not np.any(np.triu(c["probs"], k=1))  # exact zeros above the diagonal
    assert same_bits(ctx, ctx_heads.transpose(0, 2, 1, 3).reshape(B, S, d))
    # without a cache: one tile of scores at a time, same context
    assert same_bits(model._attend(a_in, wq, wk, wv, cfg), ctx)

    dctx = rng.standard_normal((B, S, H, Dh)).astype(dtype).transpose(0, 2, 1, 3)
    grads = [np.full((B, S, H, Dh), np.nan, dtype=dtype).transpose(0, 2, 1, 3) for _ in range(3)]
    model._attend_backward(dctx, q, k, v, c["probs"], *grads)
    for got, want in zip(grads, untiled_attention_backward(dctx, q, k, v, probs)):
        assert same_bits(got, want)


def test_softmax_tiles_sum_rows_in_the_untiled_order():
    # float64 scores over tens of nats: the 64-bit row sums round, and how
    # depends on numpy's pairwise order, which the untiled rows' trailing
    # zeros move once rows pass 128 entries (float32 would round it away)
    rng = np.random.Generator(np.random.PCG64(12))
    for S in (6, 65, 128, 129, 200, 256, 300, 520):
        scores = rng.standard_normal((2, S, S)) * 40
        want = untiled_softmax(scores, 0.5)
        for i0, i1 in model._tiles(S):
            tile = scores[:, i0:i1, :i1].copy()
            got = model._softmax_masked(tile, 0.5, model._tile_mask(np.float64), S)
            assert got is tile
            assert same_bits(got, want[:, i0:i1, :i1])
        # the same order for any row prefix whose length is a multiple of 8
        row = np.exp(rng.standard_normal((3, S)) * 12)
        for m in range(8, S, 56):
            padded = row.copy()
            padded[:, m:] = 0.0
            want = np.sum(padded, axis=-1, keepdims=True, dtype=np.float64)
            assert same_bits(model._padded_row_sum(padded[:, :m], S), want)


def test_elementwise_chains_match_written_out_expressions():
    for dtype in (np.float32, np.float64):
        rng = np.random.Generator(np.random.PCG64(13))
        u, du, dxhat, xhat = (rng.standard_normal((3, 7, 40)).astype(dtype) * 3 for _ in range(4))
        r = rng.random((3, 7, 1)).astype(dtype) + 0.5
        C0, C1 = model.GELU_C0, model.GELU_C1
        t = np.tanh(C0 * (u + C1 * u * u * u))
        gelu = 0.5 * u * (1.0 + t)
        dgelu = du * (0.5 * (1.0 + t) + 0.5 * u * (1.0 - t * t) * (C0 * (1.0 + 3.0 * C1 * u * u)))
        m = np.mean(dxhat * xhat, axis=-1, keepdims=True, dtype=np.float64).astype(dtype)
        drms = r * (dxhat - xhat * m)

        got_gelu, got_t = model._gelu(u)
        assert same_bits(got_gelu, gelu) and same_bits(got_t, t)
        # the backward pass multiplies the slope the forward cached into dgh1
        dh1 = du.copy()
        dh1 *= model._gelu_slope(u, t)
        assert same_bits(dh1, dgelu), dtype
        assert same_bits(model._rms_backward(dxhat, xhat, r), drms)


# -- loss -----------------------------------------------------------------------


def test_loss_uniform_logits():
    logits = np.zeros((2, 4, 256))
    targets = np.zeros((2, 4), dtype=np.int32)
    assert abs(loss(logits, targets) - math.log(256)) < 1e-12


def test_loss_margin_limit():
    targets = np.zeros((1, 3), dtype=np.int32)
    prev = None
    for margin in (5.0, 20.0, 80.0):
        logits = np.zeros((1, 3, 8))
        logits[..., 0] = margin
        l = loss(logits, targets)
        if prev is not None:
            assert l < prev
        prev = l
    assert prev < 1e-10


def test_loss_against_naive_softmax():
    rng = np.random.Generator(np.random.PCG64(5))
    logits = rng.standard_normal((3, 5, 11))
    targets = rng.integers(0, 11, (3, 5)).astype(np.int32)
    total = 0.0
    for b in range(3):
        for t in range(5):
            e = np.exp(logits[b, t])
            p = e / e.sum()
            total -= math.log(p[targets[b, t]])
    oracle = total / 15
    got = loss(logits, targets)
    assert abs(got - oracle) < 1e-10 * max(abs(oracle), 1.0)


# -- backward ---------------------------------------------------------------------


def fd_check(ck, batch, n_coords, seed, h=1e-5, grads=None):
    """Worst relative error of `grads` (default: `backward`'s) against
    central differences of the loss at n_coords random coordinates."""
    if grads is None:
        grads = backward(ck, batch, forward(ck, batch)[1])
    rng = np.random.Generator(np.random.PCG64(seed))
    names = sorted(ck.tensors)
    worst = 0.0
    for _ in range(n_coords):
        name = names[rng.integers(0, len(names))]
        t = ck.tensors[name]
        i, j = rng.integers(0, t.shape[0]), rng.integers(0, t.shape[1])
        orig = t[i, j]
        t[i, j] = orig + h
        lp = loss(forward(ck, batch)[0], batch.targets)
        t[i, j] = orig - h
        lm = loss(forward(ck, batch)[0], batch.targets)
        t[i, j] = orig
        fd = (lp - lm) / (2 * h)
        an = grads[name][i, j]
        worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-8))
    return worst


def test_gradients_match_finite_differences():
    ck = f64_model()
    rng = np.random.Generator(np.random.PCG64(6))
    b = rand_batch(rng, 16, 3, 6)
    assert fd_check(ck, b, 200, seed=0) < 1e-4


def test_sharded_step_matches_finite_differences(monkeypatch):
    ck = f64_model()
    rng = np.random.Generator(np.random.PCG64(6))
    b = rand_batch(rng, 16, 3, 6)
    monkeypatch.setattr(model, "SHARD_POSITIONS", 6)
    assert len(model._shards(3, 6)) == 3
    _, grads = model.loss_and_grads(ck, b)
    assert fd_check(ck, b, 200, seed=0, grads=grads) < 1e-4


def test_gradients_after_training_steps():
    from qlab.optim import OptimConfig, ScheduleSpec, init_opt_state, train_loop

    ck = f64_model()
    rng = np.random.Generator(np.random.PCG64(7))
    stream = rng.integers(0, 16, 4000).astype(np.uint8)
    spec = ScheduleSpec("constant", 200, warmup_steps=10)
    ck, _, _ = train_loop(
        ck, init_opt_state(ck), stream, 0, spec,
        OptimConfig(peak_lr=1e-3), batch_size=2, seq_len=6, steps=100,
    )
    b = rand_batch(rng, 16, 3, 6)
    assert fd_check(ck, b, 60, seed=1) < 1e-4


def test_unembed_gradient_uniform_residual():
    # zero weights except unit token embeddings: logits stay zero, softmax uniform
    cfg = tiny_model_config(vocab=16, d_model=8, n_layers=1, n_heads=2, d_ff=16,
                            seq_len=6, init_std=0.0)
    ck = init(cfg, dtype=np.float64)
    ck.tensors["embed.tok"][:] = 1.0
    rng = np.random.Generator(np.random.PCG64(8))
    ids = rng.integers(0, 8, (2, 6)).astype(np.int32)  # tokens 8..15 never targets
    targets = rng.integers(0, 8, (2, 6)).astype(np.int32)
    b = Batch(ids, targets)
    logits, cache = forward(ck, b)
    assert np.all(logits == 0.0)
    grads = backward(ck, b, cache)
    # final hidden state is identical at every position; closed form for a
    # never-occurring target row: (1/vocab)/Npos summed over positions
    xhatf = cache["xhatf"].reshape(-1, 8)
    hf = xhatf * ck.tensors["norm_f.g"][0]
    expected_row = (1.0 / 16 / 12) * hf.sum(axis=0)
    assert np.max(np.abs(grads["unembed"][12] - expected_row)) < 1e-12


def _root(a: np.ndarray) -> np.ndarray:
    while a.base is not None:
        a = a.base
    return a


def test_training_cache_holds_only_what_backward_reads():
    cfg = tiny_model_config()
    ck = init(cfg)
    B, S, d, f, H = 3, cfg.seq_len, cfg.d_model, cfg.d_ff, cfg.n_heads
    ids = np.random.Generator(np.random.PCG64(30)).integers(0, 256, (B, S)).astype(np.int32)
    layers = []
    model._forward_rows(cfg, ck.tensors, ids, layers)
    attn_sizes = dict(xhat=B * S * d, r=B * S, q=B * S * d, k=B * S * d, v=B * S * d,
                      probs=B * H * S * S, ctx=B * S * d)
    mlp_sizes = dict(xhat=B * S * d, r=B * S, slope=B * S * f, gh1=B * S * f)
    assert len(layers) == cfg.n_layers
    for attn, mlp in layers:
        for got, want in ((attn, attn_sizes), (mlp, mlp_sizes)):
            assert {k: a.size for k, a in got.items()} == want
        # the buffers held, views counted once at their base, are the shapes' float32 bytes
        held = {id(r): r.nbytes for r in map(_root, [*attn.values(), *mlp.values()])}
        assert sum(held.values()) == 4 * (sum(attn_sizes.values()) + sum(mlp_sizes.values()))


def test_backward_frees_each_layer_once_its_gradients_are_done(monkeypatch):
    """In the shard path, a layer's caches are gone before the layer below
    runs its attention backward, its MLP's before its own does; the public
    `backward` leaves its caller's cache as it was, and both give the same
    bits."""
    import weakref

    cfg = tiny_model_config(n_layers=3)
    ck = init(cfg)
    b = rand_batch(np.random.Generator(np.random.PCG64(31)), 256, 2, cfg.seq_len)
    layers = []
    cache = model._forward_rows(cfg, ck.tensors, b.inputs, layers)
    logits = weakref.ref(cache["logits"])
    probs = [weakref.ref(a["probs"]) for a, _ in layers]
    slope = [weakref.ref(m["slope"]) for _, m in layers]
    seen, real = [], model._attn_backward

    def attn_backward(cfg, T, p, *args):
        seen.append((p, [r() is not None for r in probs], [r() is not None for r in slope],
                     logits() is not None))
        return real(cfg, T, p, *args)

    monkeypatch.setattr(model, "_attn_backward", attn_backward)
    _, lean = model._backward(ck, b.targets, cache, b.inputs.size)
    monkeypatch.undo()
    assert layers == [] and set(cache) == {"layers", "ids", "shape"}
    assert seen == [(f"layers.{i}", [j <= i for j in range(3)], [j < i for j in range(3)], False)
                    for i in (2, 1, 0)]
    assert all(r() is None for r in probs + slope)

    def held(c):
        """(key, object id) of everything the cache holds, its layers' included."""
        return [(k, id(v)) for k, v in c.items()] + [
            (i, j, k, id(v)) for i, pair in enumerate(c["layers"])
            for j, sub in enumerate(pair) for k, v in sub.items()]

    _, ref = forward(ck, b)
    before = held(ref)
    grads = backward(ck, b, ref)
    assert held(ref) == before
    assert list(grads) == list(lean)
    assert all(same_bits(grads[k], g) for k, g in lean.items())


def test_sum_loss_scales_gradients():
    ck = f64_model()
    rng = np.random.Generator(np.random.PCG64(9))
    b = rand_batch(rng, 16, 2, 6)
    _, cache = forward(ck, b)
    grads = backward(ck, b, cache)
    n_pos = b.inputs.size
    # gradient of the summed loss = n_pos * gradient of the mean loss
    for k in ("unembed", "layers.0.attn.wq"):
        summed = grads[k] * n_pos
        assert np.max(np.abs(summed - n_pos * grads[k])) == 0.0
    h = 1e-5
    t = ck.tensors["unembed"]
    orig = t[0, 0]
    t[0, 0] = orig + h
    lp = loss(forward(ck, b)[0], b.targets) * n_pos
    t[0, 0] = orig - h
    lm = loss(forward(ck, b)[0], b.targets) * n_pos
    t[0, 0] = orig
    fd = (lp - lm) / (2 * h)
    assert abs(fd - n_pos * grads["unembed"][0, 0]) < 1e-4 * max(abs(fd), 1e-8)


def test_forward_backward_deterministic():
    ck = f64_model()
    rng = np.random.Generator(np.random.PCG64(10))
    b = rand_batch(rng, 16, 2, 6)
    l1, c1 = forward(ck, b)
    l2, c2 = forward(ck, b)
    assert np.array_equal(l1, l2)
    g1 = backward(ck, b, c1)
    g2 = backward(ck, b, c2)
    for k in g1:
        assert np.array_equal(g1[k], g2[k])


# -- calibration capture -----------------------------------------------------------


def make_calib(ck, n_seq=4, batch_size=2, seed=11):
    rng = np.random.Generator(np.random.PCG64(seed))
    S = ck.config.seq_len
    stream = rng.integers(0, ck.config.vocab, n_seq * S + 1 + S).astype(np.uint8)
    return build_calibration(stream, n_seq, S, batch_size)


def walk_inputs(ck, calib, carry=None):
    """Stage Grams G of every quantizable layer from one calibration walk.

    `carry` maps layer names to the matrices that replace them downstream
    (a quantized prefix); other layers carry their own weights.
    """
    carry = carry or {}
    got = {}

    def on_stage(names, G):
        for n in names:
            got[n] = G
        return [carry.get(n, ck.tensors[n]) for n in names]

    capture_layer_inputs(ck, calib, on_stage)
    return got


def test_capture_sample_count():
    # one batch of 4 sequences is one shard: each stage's G is the Gram of
    # its 4 x seq_len forward rows, bitwise, and the walk cannot write it
    from qlab.quant import gram

    ck = f64_model()
    calib = make_calib(ck, n_seq=4, batch_size=4)
    caps = walk_inputs(ck, calib)
    rows = forward_stage_inputs(ck, calib)
    names = quantizable_layer_names(ck.config)
    assert list(caps) == names
    for name in names:
        d_in = ck.tensors[name].shape[1]
        assert rows[name].shape == (4 * ck.config.seq_len, d_in)
        assert caps[name].shape == (d_in, d_in) and caps[name].dtype == np.float64
        assert not caps[name].flags.writeable
        assert np.array_equal(caps[name], gram(rows[name]))


def test_capture_first_layer_ignores_prefix():
    ck = f64_model()
    calib = make_calib(ck)
    plain = walk_inputs(ck, calib)
    prefix = {"layers.0.attn.wq": ck.tensors["layers.0.attn.wq"] * 0.5}
    with_prefix = walk_inputs(ck, calib, carry=prefix)
    assert np.array_equal(plain["layers.0.attn.wq"], with_prefix["layers.0.attn.wq"])


def test_capture_prefix_exact_on_grid_model():
    from qlab.quant import QuantConfig, dequantize, rtn_quantize

    cfg = tiny_model_config(vocab=16, d_model=8, n_layers=2, n_heads=2, d_ff=16,
                            seq_len=6, init_std=0.2)
    ck = init(cfg, dtype=np.float64)
    qcfg = QuantConfig(bits=8, group_size=4, method="rtn")
    # snap quantizable layers onto their own grid so quantization is exact
    prefix = {}
    for name in quantizable_layer_names(cfg):
        ck.tensors[name] = dequantize(rtn_quantize(ck.tensors[name], qcfg))
        prefix[name] = dequantize(rtn_quantize(ck.tensors[name], qcfg))
        assert np.array_equal(prefix[name], ck.tensors[name])
    calib = make_calib(ck)
    wanted = "layers.1.mlp.w2"
    plain = walk_inputs(ck, calib)
    quant = walk_inputs(ck, calib, carry=prefix)
    assert np.max(np.abs(plain[wanted] - quant[wanted])) < 1e-12


def test_capture_prefix_changes_downstream_inputs():
    ck = f64_model()
    calib = make_calib(ck)
    wanted = "layers.1.attn.wq"
    plain = walk_inputs(ck, calib)
    prefix = {"layers.0.mlp.w2": ck.tensors["layers.0.mlp.w2"] * 0.25}
    changed = walk_inputs(ck, calib, carry=prefix)
    assert not np.array_equal(plain[wanted], changed[wanted])


def test_capture_matches_forward_rows(monkeypatch):
    # the walk and forward share one block implementation: with every
    # layer carrying its own weights, each stage's G is the shard-order sum
    # of the Grams of forward's rows of each shard, bitwise, at any thread
    # count, also when one-sequence shards split every batch of the walk
    ck = f64_model()
    calib = make_calib(ck, n_seq=5, batch_size=2)  # ragged last batch
    made = record_shards(monkeypatch)
    for floor, walk_shards in ((model.SHARD_POSITIONS, [1, 1, 1]), (6, [2, 2, 1])):
        monkeypatch.setattr(model, "SHARD_POSITIONS", floor)
        grams = stage_grams(ck, calib)
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("QLAB_THREADS", threads)
            made.clear()
            caps = walk_inputs(ck, calib)
            assert made == walk_shards
            assert set(grams) == set(caps)
            for name, G in grams.items():
                assert np.array_equal(caps[name], G)


def test_uint8_ids_give_the_int32_ids_bits(monkeypatch):
    # batches cut from a corpus keep its uint8 dtype; the same ids as int32
    # give bitwise the same step, eval rows and calibration Grams, one shard
    # per sequence or the default shards
    cfg = tiny_model_config(seq_len=8)
    ck = init(cfg)
    rng = np.random.Generator(np.random.PCG64(5))
    tokens = rng.integers(0, 256, 6 * 8 + 1).astype(np.uint8)
    narrow = build_calibration(tokens, 6, 8, batch_size=3)
    wide = build_calibration(tokens.astype(np.int32), 6, 8, batch_size=3)
    assert narrow[0].inputs.dtype == np.uint8 and wide[0].inputs.dtype == np.int32
    for floor in (model.SHARD_POSITIONS, 8):
        monkeypatch.setattr(model, "SHARD_POSITIONS", floor)
        loss8, grads8 = loss_and_grads(ck, narrow[0])
        loss32, grads32 = loss_and_grads(ck, wide[0])
        assert loss8 == loss32
        for name in grads32:
            assert np.array_equal(grads8[name], grads32[name])
        for (nll8, hits8), (nll32, hits32) in zip(token_nll(ck, narrow), token_nll(ck, wide)):
            assert np.array_equal(nll8, nll32) and hits8 == hits32
        grams8, grams32 = walk_inputs(ck, narrow), walk_inputs(ck, wide)
        for name in grams32:
            assert np.array_equal(grams8[name], grams32[name])


def test_capture_rejects_empty_calibration():
    ck = f64_model()
    with pytest.raises(ConfigError):
        capture_layer_inputs(ck, [], lambda names, G: [])


# -- serialization -------------------------------------------------------------------


def test_checkpoint_roundtrip(tmp_path):
    ck = init(tiny_model_config())
    path = str(tmp_path / "m.qlab")
    save_checkpoint(path, ck)
    back = load_checkpoint(path)
    assert back.config == ck.config
    assert back.step == ck.step and back.tokens_seen == ck.tokens_seen
    for k in ck.tensors:
        assert np.array_equal(back.tensors[k], ck.tensors[k])
