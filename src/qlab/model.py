"""Decoder-only transformer with explicit forward, loss, and backward passes.

Pre-norm blocks with gain-only RMS normalization, learned positional
embeddings, no biases, untied unembedding, tanh-approximate GELU in the
MLP. Linear weights are stored [d_out, d_in] and applied as ``x @ W.T``.
The quantizable layers are exactly the attention and MLP projections;
embeddings, norms, and the unembedding stay full precision.

All activations run in the checkpoint's dtype (float32 in training,
float64 in gradient-check tests); softmax and loss reductions accumulate
in 64-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import math

import numpy as np

from .data import Batch, CalibrationSet
from .errors import ConfigError, NumericFailure
from . import parallel, store

NORM_EPS = 1e-6
GELU_C0 = 0.7978845608028654  # sqrt(2/pi)
GELU_C1 = 0.044715


@dataclass(frozen=True)
class ModelConfig:
    vocab: int = 256
    d_model: int = 192
    n_layers: int = 6
    n_heads: int = 6
    d_ff: int = 768
    seq_len: int = 256
    init_seed: int = 1
    init_std: float = 0.02

    def __post_init__(self):
        if self.d_model % self.n_heads != 0:
            raise ConfigError("d_model must be divisible by n_heads")
        if self.seq_len < 2:
            raise ConfigError("seq_len must be at least 2")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads


@dataclass
class Checkpoint:
    tensors: Dict[str, np.ndarray]
    step: int
    tokens_seen: int
    config: ModelConfig

    def astype(self, dtype) -> "Checkpoint":
        return replace(self, tensors={k: v.astype(dtype) for k, v in self.tensors.items()})


GradientSet = Dict[str, np.ndarray]


def tensor_shapes(config: ModelConfig) -> Dict[str, Tuple[int, int]]:
    """Tensor name -> shape map, fully determined by the config."""
    d, f, v = config.d_model, config.d_ff, config.vocab
    shapes = {"embed.tok": (v, d), "embed.pos": (config.seq_len, d)}
    for i in range(config.n_layers):
        p = f"layers.{i}"
        shapes[f"{p}.norm1.g"] = (1, d)
        for w in ("wq", "wk", "wv", "wo"):
            shapes[f"{p}.attn.{w}"] = (d, d)
        shapes[f"{p}.norm2.g"] = (1, d)
        shapes[f"{p}.mlp.w1"] = (f, d)
        shapes[f"{p}.mlp.w2"] = (d, f)
    shapes["norm_f.g"] = (1, d)
    shapes["unembed"] = (v, d)
    return shapes


def quantizable_layer_names(config: ModelConfig) -> List[str]:
    """Attention and MLP projections, in forward order."""
    names = []
    for i in range(config.n_layers):
        p = f"layers.{i}"
        names += [f"{p}.attn.wq", f"{p}.attn.wk", f"{p}.attn.wv", f"{p}.attn.wo"]
        names += [f"{p}.mlp.w1", f"{p}.mlp.w2"]
    return names


def init(config: ModelConfig, dtype=np.float32) -> Checkpoint:
    """Seeded Gaussian init.

    All weights draw from Normal(0, init_std^2); the residual-output
    projections (attn.wo, mlp.w2) are additionally scaled by
    1/sqrt(2*n_layers); norm gains start at 1.
    """
    rng = np.random.Generator(np.random.PCG64(config.init_seed))
    resid_scale = 1.0 / math.sqrt(2.0 * config.n_layers) if config.n_layers else 1.0
    tensors = {}
    for name, shape in tensor_shapes(config).items():
        if name.endswith(".g"):
            tensors[name] = np.ones(shape, dtype=dtype)
            continue
        std = config.init_std
        if name.endswith("attn.wo") or name.endswith("mlp.w2"):
            std *= resid_scale
        tensors[name] = (rng.standard_normal(shape) * std).astype(dtype)
    return Checkpoint(tensors, step=0, tokens_seen=0, config=config)


def _rms(x: np.ndarray, out: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Returns (xhat, r) with xhat = x * r (written to `out` if given),
    r = 1/sqrt(mean(x^2) + eps)."""
    mu = np.mean(np.square(x), axis=-1, keepdims=True, dtype=np.float64)
    r = (1.0 / np.sqrt(mu + NORM_EPS)).astype(x.dtype)
    return np.multiply(x, r, out=out), r


def _rms_backward(dxhat: np.ndarray, xhat: np.ndarray, r: np.ndarray) -> np.ndarray:
    m = np.mean(dxhat * xhat, axis=-1, keepdims=True, dtype=np.float64).astype(xhat.dtype)
    return r * (dxhat - xhat * m)


def _gelu(u: np.ndarray, out: Optional[np.ndarray] = None,
          t_out: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray]:
    """(gelu(u), tanh), into `out` and `t_out` if given."""
    t = np.tanh(GELU_C0 * (u + GELU_C1 * u * u * u), out=t_out)
    return np.multiply(0.5 * u, 1.0 + t, out=out), t


def _gelu_backward(du_out: np.ndarray, u: np.ndarray, t: np.ndarray,
                   out: Optional[np.ndarray] = None) -> np.ndarray:
    dt = GELU_C0 * (1.0 + 3.0 * GELU_C1 * u * u)
    return np.multiply(du_out, 0.5 * (1.0 + t) + 0.5 * u * (1.0 - t * t) * dt, out=out)


def _softmax_masked(scores: np.ndarray, mask_add: np.ndarray,
                    out: Optional[np.ndarray] = None) -> np.ndarray:
    s = scores + mask_add
    s -= np.max(s, axis=-1, keepdims=True)
    e = np.exp(s)
    denom = np.sum(e, axis=-1, keepdims=True, dtype=np.float64).astype(scores.dtype)
    return np.divide(e, denom, out=out)


def _causal_mask(seq: int, dtype) -> np.ndarray:
    mask = np.zeros((seq, seq), dtype=dtype)
    mask[np.triu_indices(seq, k=1)] = -np.inf
    return mask


def _check_finite(x: np.ndarray, where: str) -> None:
    if not np.all(np.isfinite(x)):
        raise NumericFailure(f"non-finite activations in {where}", where=where)


# -- sublayers, which only `_blocks` chains: the one block implementation,
# run by forward and the calibration walk alike
#
# Each takes an optional `out` dict of destination arrays (the shard's rows
# of `forward`'s cache) for the activations it names; the values are the
# same either way.


def _rows(a: np.ndarray) -> np.ndarray:
    """[..., n] activations as stacked [positions, n] rows (a view)."""
    return a.reshape(-1, a.shape[-1])


def _head_rows(h: np.ndarray) -> np.ndarray:
    """The [positions, d] rows under a head-major [B, H, S, Dh] view."""
    B, H, S, Dh = h.shape
    return np.reshape(h.transpose(0, 2, 1, 3), (B * S, H * Dh), copy=False)


def _embed(cfg: ModelConfig, T: Dict[str, np.ndarray], ids: np.ndarray) -> np.ndarray:
    S = ids.shape[1]
    if S > cfg.seq_len:
        raise ConfigError(f"batch seq {S} exceeds model seq_len {cfg.seq_len}")
    return T["embed.tok"][ids] + T["embed.pos"][:S]


def _prenorm(x: np.ndarray, g: np.ndarray, out: Optional[np.ndarray] = None):
    """(xhat, r, xhat * g): the normalized sublayer input; xhat into `out`."""
    xhat, r = _rms(x, out)
    return xhat, r, xhat * g


def _attend(a_in, wq, wk, wv, cfg: ModelConfig, mask_add: np.ndarray, out: Optional[dict] = None):
    """Causal multi-head attention on a_in [B, S, d]: (q, k, v, probs, ctx)."""
    B, S, _ = a_in.shape
    H, Dh = cfg.n_heads, cfg.d_head
    out = out or {}
    flat = _rows(a_in)

    def heads(w, name):
        dst = out.get(name)
        y = np.matmul(flat, w.T, out=None if dst is None else _head_rows(dst))
        return y.reshape(B, S, H, Dh).transpose(0, 2, 1, 3)

    q, k, v = heads(wq, "q"), heads(wk, "k"), heads(wv, "v")
    scores = np.matmul(q, k.transpose(0, 1, 3, 2)) * (1.0 / math.sqrt(Dh))
    probs = _softmax_masked(scores, mask_add, out.get("probs"))
    ctx_heads = np.matmul(probs, v).transpose(0, 2, 1, 3)
    ctx = out.get("ctx")
    if ctx is None:
        ctx = ctx_heads.reshape(B, S, -1)
    else:
        np.reshape(ctx, ctx_heads.shape, copy=False)[...] = ctx_heads
    return q, k, v, probs, ctx


def _mlp_hidden(m_in: np.ndarray, w1: np.ndarray, out: Optional[dict] = None):
    """(h1, tanh, gelu(h1)) with h1 = m_in @ W1.T."""
    out = out or {}
    h1 = out.get("h1")
    h1 = np.matmul(_rows(m_in), w1.T, out=None if h1 is None else _rows(h1))
    h1 = h1.reshape(*m_in.shape[:-1], -1)
    gh1, t = _gelu(h1, out.get("gh1"), out.get("tanh"))
    return h1, t, gh1


def _residual(x: np.ndarray, inp: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x + inp @ W.T: a sublayer's output projection added to the stream."""
    return x + (_rows(inp) @ w.T).reshape(x.shape)


# Work is split into shards of whole sequences. Rows never interact outside
# attention, which stays inside a sequence, so a shard computes exactly
# the rows the whole batch would, and every cross-position reduction
# (weight gradients, norm-gain sums, embedding scatters, the loss mean)
# runs once over the full batch. That keeps every result bitwise equal to
# the unsharded pass at any thread count, given that the row-sliced GEMMs
# take the same BLAS path as the full ones: OpenBLAS's blocked kernels do
# (their K blocking never depends on the row count); its small-matrix
# kernels, taken for products of about a thousand outputs or fewer, do
# not. The floor below keeps every shard far above that, and keeps
# per-shard work large against the per-call overhead of numpy: a tiny.cfg
# batch (8 x 128 positions, d_model 64) is one shard, a desk.cfg batch
# (64 x 256, d_model 192) 32 shards of 2 sequences.
SHARD_ACTIVATIONS = 1 << 16  # positions x d_model per shard, at least


def _shards(cfg: ModelConfig, B: int, S: int) -> List[slice]:
    """Balanced runs of whole sequences, each of at least SHARD_ACTIVATIONS
    activations; one run when the batch is smaller."""
    n = max(1, B // -(-SHARD_ACTIVATIONS // (S * cfg.d_model)))
    bounds = [B * j // n for j in range(n + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _cache_arrays(cfg: ModelConfig, B: int, S: int, dtype) -> List[Dict[str, np.ndarray]]:
    """Uninitialised full-batch arrays of every cached activation, laid out
    as `forward`'s sublayers return them (q, k, v as head-major views).

    Each layer's arrays are views of one allocation: a 200-step tiny.cfg
    `cmd_train` (glibc malloc) then takes 0.2M page faults, against 1.3M
    with one allocation per array and 0.08M with the arrays each sublayer
    makes; one allocation for all layers raised peak RSS by 11%.
    """
    d, f, H, Dh = cfg.d_model, cfg.d_ff, cfg.n_heads, cfg.d_head
    heads = (B, S, H, Dh)
    shapes = dict(xhat1=(B, S, d), r1=(B, S, 1), q=heads, k=heads, v=heads,
                  probs=(B, H, S, S), ctx=(B, S, d), xhat2=(B, S, d), r2=(B, S, 1),
                  h1=(B, S, f), tanh=(B, S, f), gh1=(B, S, f))
    sizes = [math.prod(shape) for shape in shapes.values()]
    layers = []
    for _ in range(cfg.n_layers):
        buf = np.empty(sum(sizes), dtype=dtype)
        c, at = {}, 0
        for (name, shape), size in zip(shapes.items(), sizes):
            a = buf[at:at + size].reshape(shape)
            c[name] = a.transpose(0, 2, 1, 3) if name in ("q", "k", "v") else a
            at += size
        layers.append(c)
    return layers


def _blocks(cfg, T, ids, mask_add, layers: list):
    """The residual stream of whole sequences `ids` through every block, as
    a generator: before each quantizable stage (q/k/v, o, w1, w2) it yields
    (names, input) and is sent back that stage's weight matrices. Returns
    the last block's output. `layers` holds, per layer, the cache arrays to
    write (an empty list when no cache is kept)."""
    x = _embed(cfg, T, ids)
    for i in range(cfg.n_layers):
        p = f"layers.{i}"
        c = layers[i] if layers else {}
        # h is the sublayer's stage input; each stage drops the one before
        r1, h = _prenorm(x, T[f"{p}.norm1.g"], c.get("xhat1"))[1:]
        wq, wk, wv = yield [f"{p}.attn.wq", f"{p}.attn.wk", f"{p}.attn.wv"], h
        h = _attend(h, wq, wk, wv, cfg, mask_add, c)[4]  # ctx
        (wo,) = yield [f"{p}.attn.wo"], h
        x = _residual(x, h, wo)
        r2, h = _prenorm(x, T[f"{p}.norm2.g"], c.get("xhat2"))[1:]
        (w1,) = yield [f"{p}.mlp.w1"], h
        h = _mlp_hidden(h, w1, c)[2]  # gelu(h1)
        (w2,) = yield [f"{p}.mlp.w2"], h
        x = _residual(x, h, w2)
        _check_finite(x, p)
        if c:
            c["r1"][...], c["r2"][...] = r1, r2
    return x


def _resume(blocks, weights):
    """Send `weights` to a `_blocks` generator: its next (names, input), or
    (None, output) once it is done."""
    try:
        return blocks.send(weights)
    except StopIteration as done:
        return None, done.value


def _forward_rows(cfg, T, ids, mask_add, out: dict) -> None:
    """The forward pass over whole sequences `ids`, written into the
    destination arrays `out` holds: "logits", "xhatf", "rf", and "layers"
    (see `_blocks`)."""
    blocks = _blocks(cfg, T, ids, mask_add, out["layers"])
    names, x = _resume(blocks, None)
    while names:
        names, x = _resume(blocks, [T[n] for n in names])
    xhatf, rf = _rms(x, out["xhatf"])
    out["rf"][...] = rf
    np.matmul(_rows(xhatf * T["norm_f.g"]), T["unembed"].T, out=_rows(out["logits"]))
    _check_finite(out["logits"], "unembed")


def forward(ckpt: Checkpoint, batch: Batch, need_cache: bool = True) -> Tuple[np.ndarray, dict]:
    """Run the model; returns (logits, cache).

    Shards of whole sequences run on the thread pool and write into
    full-batch arrays; a non-finite activation raises NumericFailure naming
    the earliest failing layer of the whole batch, as an unsharded pass
    would.
    """
    cfg = ckpt.config
    ids = batch.inputs
    B, S = ids.shape
    T = ckpt.tensors
    dtype = T["embed.tok"].dtype
    mask_add = _causal_mask(S, dtype)
    logits = np.empty((B, S, cfg.vocab), dtype=dtype)
    xhatf, rf = np.empty((B, S, cfg.d_model), dtype=dtype), np.empty((B, S, 1), dtype=dtype)
    layers = _cache_arrays(cfg, B, S, dtype) if need_cache else []

    def shard(sl: slice) -> None:
        rows = dict(logits=logits[sl], xhatf=xhatf[sl], rf=rf[sl],
                    layers=[{n: a[sl] for n, a in c.items()} for c in layers])
        _forward_rows(cfg, T, ids[sl], mask_add, rows)

    stage = {f"layers.{i}": i for i in range(cfg.n_layers)}
    stage["unembed"] = cfg.n_layers
    parallel.results(
        parallel.run(shard, _shards(cfg, B, S)),
        rank=lambda e: stage.get(e.where, -1) if isinstance(e, NumericFailure) else -1,
    )
    cache = dict(layers=layers, xhatf=xhatf, rf=rf, logits=logits, ids=ids, shape=(B, S))
    return logits, cache


def _log_softmax_stats(logits: np.ndarray):
    m = np.max(logits, axis=-1, keepdims=True)
    z = logits - m
    e = np.exp(z)
    denom = np.sum(e, axis=-1, keepdims=True, dtype=np.float64)
    return z, e, denom


def loss(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean cross-entropy in nats over all positions, stable log-softmax."""
    z, _, denom = _log_softmax_stats(logits)
    tgt = np.take_along_axis(z, targets[..., None].astype(np.int64), axis=-1)[..., 0]
    nll = np.log(denom[..., 0]) - tgt.astype(np.float64)
    return float(np.mean(nll))


def backward(ckpt: Checkpoint, batch: Batch, cache: dict) -> GradientSet:
    """Exact gradients of the mean cross-entropy w.r.t. every tensor.

    Per block, the activation gradients run shard by shard on the thread
    pool into full-batch buffers; the weight gradients (dY.T @ X) and the
    norm-gain sums then reduce over the whole batch at once.
    """
    cfg = ckpt.config
    T = ckpt.tensors
    B, S = cache["shape"]
    H, Dh = cfg.n_heads, cfg.d_head
    n_pos = B * S
    dtype = T["embed.tok"].dtype
    inv_dh = 1.0 / math.sqrt(Dh)
    shards = _shards(cfg, B, S)
    grads: GradientSet = {}

    def buf(width: int) -> np.ndarray:
        return np.empty((B, S, width), dtype=dtype)

    d = cfg.d_model
    logits, xhatf, rf, gf = cache["logits"], cache["xhatf"], cache["rf"], T["norm_f.g"]
    dlogits, hf, pf, dx = np.empty_like(logits), buf(d), buf(d), buf(d)

    def head(sl: slice) -> None:
        b = sl.stop - sl.start
        _, e, denom = _log_softmax_stats(logits[sl])
        dl = dlogits[sl]
        np.divide(e, denom.astype(dtype), out=dl)
        idx = np.arange(b * S) * cfg.vocab + batch.targets[sl].reshape(-1).astype(np.int64)
        dl.reshape(-1)[idx] -= 1.0
        dl *= 1.0 / n_pos
        np.multiply(xhatf[sl], gf, out=hf[sl])
        dhf = (_rows(dl) @ T["unembed"]).reshape(b, S, -1)
        np.multiply(dhf, xhatf[sl], out=pf[sl])
        dx[sl] = _rms_backward(dhf * gf, xhatf[sl], rf[sl])

    parallel.results(parallel.run(head, shards))
    grads["unembed"] = _rows(dlogits).T @ _rows(hf)
    grads["norm_f.g"] = np.sum(pf, axis=(0, 1), keepdims=False)[None, :]
    del dlogits, hf, pf

    dh1, dx1, dx_next = buf(cfg.d_ff), buf(d), buf(d)
    m_in, p2, a_in, p1 = buf(d), buf(d), buf(d), buf(d)
    dq_f, dk_f, dv_f = buf(d), buf(d), buf(d)
    for i in range(cfg.n_layers - 1, -1, -1):
        p = f"layers.{i}"
        c_full = cache["layers"][i]
        g1, g2 = T[f"{p}.norm1.g"], T[f"{p}.norm2.g"]

        def block(sl: slice) -> None:
            b = sl.stop - sl.start
            c = {k: a[sl] for k, a in c_full.items()}
            # MLP sublayer: x = x1 + gelu(m_in @ W1.T) @ W2.T
            dgh1 = (_rows(dx[sl]) @ T[f"{p}.mlp.w2"]).reshape(b, S, -1)
            _gelu_backward(dgh1, c["h1"], c["tanh"], out=dh1[sl])
            np.multiply(c["xhat2"], g2, out=m_in[sl])
            dm_in = (_rows(dh1[sl]) @ T[f"{p}.mlp.w1"]).reshape(b, S, -1)
            np.multiply(dm_in, c["xhat2"], out=p2[sl])
            np.add(dx[sl], _rms_backward(dm_in * g2, c["xhat2"], c["r2"]), out=dx1[sl])

            # attention sublayer: x1 = x0 + (P @ v merged) @ Wo.T
            dctx = (_rows(dx1[sl]) @ T[f"{p}.attn.wo"]).reshape(b, S, H, Dh).transpose(0, 2, 1, 3)
            probs_a = c["probs"]
            dprobs = np.matmul(dctx, c["v"].transpose(0, 1, 3, 2))
            dv = np.matmul(probs_a.transpose(0, 1, 3, 2), dctx)
            row = np.sum(dprobs * probs_a, axis=-1, keepdims=True, dtype=np.float64).astype(dtype)
            dscores = probs_a * (dprobs - row)
            dq = np.matmul(dscores, c["k"]) * inv_dh
            dk = np.matmul(dscores.transpose(0, 1, 3, 2), c["q"]) * inv_dh
            for dst, h in ((dq_f, dq), (dk_f, dk), (dv_f, dv)):  # (b,H,S,Dh) -> (b,S,D)
                dst[sl].reshape(b, S, H, Dh)[...] = h.transpose(0, 2, 1, 3)
            np.multiply(c["xhat1"], g1, out=a_in[sl])
            da_in = _rows(dq_f[sl]) @ T[f"{p}.attn.wq"]  # dq @ Wq + dk @ Wk + dv @ Wv
            da_in += _rows(dk_f[sl]) @ T[f"{p}.attn.wk"]
            da_in += _rows(dv_f[sl]) @ T[f"{p}.attn.wv"]
            da_in = da_in.reshape(b, S, -1)
            np.multiply(da_in, c["xhat1"], out=p1[sl])
            np.add(dx1[sl], _rms_backward(da_in * g1, c["xhat1"], c["r1"]), out=dx_next[sl])

        parallel.results(parallel.run(block, shards))
        grads[f"{p}.mlp.w2"] = _rows(dx).T @ _rows(c_full["gh1"])
        grads[f"{p}.mlp.w1"] = _rows(dh1).T @ _rows(m_in)
        grads[f"{p}.norm2.g"] = np.sum(p2, axis=(0, 1))[None, :]
        grads[f"{p}.attn.wo"] = _rows(dx1).T @ _rows(c_full["ctx"])
        for w, dw in (("wq", dq_f), ("wk", dk_f), ("wv", dv_f)):
            grads[f"{p}.attn.{w}"] = _rows(dw).T @ _rows(a_in)
        grads[f"{p}.norm1.g"] = np.sum(p1, axis=(0, 1))[None, :]
        dx, dx_next = dx_next, dx

    dtok = np.zeros_like(T["embed.tok"])
    np.add.at(dtok, cache["ids"], dx)
    grads["embed.tok"] = dtok
    dpos = np.zeros_like(T["embed.pos"])
    dpos[:S] = np.sum(dx, axis=0)
    grads["embed.pos"] = dpos
    return grads


def capture_layer_inputs(
    ckpt: Checkpoint,
    calib: CalibrationSet,
    on_stage: Callable[[List[str], np.ndarray], Sequence[np.ndarray]],
) -> None:
    """Walk the calibration batches through the blocks once, stage by stage.

    A stage is a group of quantizable layers that share one input: q/k/v,
    then o, w1 and w2 of each block, in forward order. At each stage
    ``on_stage(names, X)`` receives the stacked input rows X (calibration
    sequences x seq_len, in batch order) and returns the matrices for
    `names` that carry the stream on (cast to the checkpoint's dtype):
    dequantized weights for sequential propagation, the originals
    otherwise. X is exactly what `forward` computes with the weights
    returned so far: each batch runs as the shards `forward` would split
    it into, all stepped together on the thread pool, and `on_stage` runs
    between steps, outside the pool. Only the current stage's X is held;
    the walk keeps no state outside the call.
    """
    if not calib.batches:
        raise ConfigError("calibration set is empty")
    cfg, T = ckpt.config, ckpt.tensors
    dtype = T["embed.tok"].dtype
    walks = []
    for b in calib.batches:
        B, S = b.inputs.shape
        mask_add = _causal_mask(S, dtype)
        walks += [_blocks(cfg, T, b.inputs[sl], mask_add, []) for sl in _shards(cfg, B, S)]
    weights = None
    while True:
        stages = parallel.results(parallel.run(lambda walk: _resume(walk, weights), walks))
        names = stages[0][0]
        if names is None:
            return
        X = np.concatenate([_rows(a) for _, a in stages], axis=0)
        weights = [np.asarray(w, dtype=dtype) for w in on_stage(names, X)]
        del X, stages  # the next step frees each shard's input as it goes


# -- checkpoint serialization ------------------------------------------------

META = "__meta__"


def meta_entry(config: ModelConfig, step: int, tokens_seen: int) -> np.ndarray:
    """The `__meta__` row: step, tokens seen and the model config as 10 f64s."""
    c = config
    return np.array(
        [[step, tokens_seen, c.vocab, c.d_model, c.n_layers, c.n_heads,
          c.d_ff, c.seq_len, c.init_seed, c.init_std]], dtype=np.float64
    )


def pop_meta(arrays: dict, path: str) -> Tuple[ModelConfig, int, int]:
    """Remove and decode the `__meta__` row: (config, step, tokens_seen)."""
    if META not in arrays:
        raise ConfigError(f"{path}: missing metadata tensor")
    meta = arrays.pop(META)[0]
    config = ModelConfig(
        vocab=int(meta[2]), d_model=int(meta[3]), n_layers=int(meta[4]),
        n_heads=int(meta[5]), d_ff=int(meta[6]), seq_len=int(meta[7]),
        init_seed=int(meta[8]), init_std=float(meta[9]),
    )
    return config, int(meta[0]), int(meta[1])


def save_checkpoint(path: str, ckpt: Checkpoint, overwrite: bool = False) -> None:
    """Weights as f32 payloads plus one f64 metadata tensor."""
    arrays = {META: meta_entry(ckpt.config, ckpt.step, ckpt.tokens_seen)}
    for name in sorted(ckpt.tensors):
        arrays[name] = np.asarray(ckpt.tensors[name], np.float32)
    store.save_arrays(path, arrays, overwrite=overwrite)


def load_checkpoint(path: str) -> Checkpoint:
    tensors = store.load_arrays(path)
    config, step, tokens_seen = pop_meta(tensors, path)
    if set(tensors) != set(tensor_shapes(config)):
        raise ConfigError(f"{path}: tensor set does not match config")
    return Checkpoint(tensors, step=step, tokens_seen=tokens_seen, config=config)
