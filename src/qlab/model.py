"""Decoder-only transformer with explicit forward, loss, and backward passes.

Batches run as (batch, shard) items on the thread pool through one
driver, `_run_shards`, a shard being a run of whole sequences. A training
step is `loss_and_grads`: every shard runs forward, the loss head and
backward on its own rows, and the shards' gradients are folded into one
sum in shard order as they finish (micro-batch gradient accumulation, as
in GPipe: Huang et al. 2019, arXiv:1811.06965). Eval (`token_nll`) runs
forward on each shard without a layer cache, and the calibration walk
steps every shard through the blocks together, summing the shards'
input Grams at each quantizable stage. `forward` and `backward`
are the serial reference pair over a whole batch.

Pre-norm blocks with gain-only RMS normalization, learned positional
embeddings, no biases, untied unembedding, tanh-approximate GELU in the
MLP. Linear weights are stored [d_out, d_in] and applied as ``x @ W.T``.
The quantizable layers are exactly the attention and MLP projections;
embeddings, norms, and the unembedding stay full precision.

All activations run in the checkpoint's dtype (float32 in training,
float64 in gradient-check tests); softmax and loss reductions accumulate
in 64-bit.

Causal attention runs in tiles of ATTN_TILE query rows: tile [i0, i1)
scores only keys [0, i1), so the blocks above the diagonal, which the mask
would zero, are never computed, and only the diagonal block is masked.
The cached attention probabilities hold exact zeros in those upper blocks.
The backward pass reads the lower blocks only: dq per query tile, dk and
dv per key tile over the queries from the tile's first row on. In
float32, every result is bitwise what the untiled computation over full
S x S scores gives (the tests keep that computation as the reference), for
sequences of up to about 330 positions with OpenBLAS; longer products it
splits at points that depend on their length, so the last bits can differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

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


def _rms(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Returns (xhat, r) with xhat = x * r, r = 1/sqrt(mean(x^2) + eps)."""
    mu = np.mean(np.square(x), axis=-1, keepdims=True, dtype=np.float64)
    r = (1.0 / np.sqrt(mu + NORM_EPS)).astype(x.dtype)
    return x * r, r


# The elementwise chains below run in place in as few buffers as they can,
# in the evaluation order of their written-out expressions (named in each
# docstring), so the results are the same bits.


def _rms_backward(dxhat: np.ndarray, xhat: np.ndarray, r: np.ndarray) -> np.ndarray:
    """r * (dxhat - xhat * mean(dxhat * xhat)), the mean in 64-bit."""
    g = dxhat * xhat
    m = np.mean(g, axis=-1, keepdims=True, dtype=np.float64).astype(xhat.dtype)
    np.multiply(xhat, m, out=g)
    np.subtract(dxhat, g, out=g)
    g *= r
    return g


def _gelu(u: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(gelu(u), tanh): t = tanh(C0 * (u + C1 * u * u * u)),
    gelu = 0.5 * u * (1 + t)."""
    a = u * GELU_C1
    a *= u
    a *= u
    a += u
    a *= GELU_C0
    t = np.tanh(a)
    np.multiply(u, 0.5, out=a)
    a *= 1.0 + t
    return a, t


def _gelu_backward(du_out: np.ndarray, u: np.ndarray, t: np.ndarray) -> np.ndarray:
    """du_out * (0.5 * (1 + t) + 0.5 * u * (1 - t * t) * dt), with
    dt = C0 * (1 + 3 * C1 * u * u)."""
    g = u * 0.5
    s = np.multiply(t, t)
    np.subtract(1.0, s, out=s)
    g *= s
    np.multiply(u, 3.0 * GELU_C1, out=s)
    s *= u
    s += 1.0
    s *= GELU_C0
    g *= s
    np.add(t, 1.0, out=s)
    s *= 0.5
    g += s
    g *= du_out
    return g


def _padded_row_sum(a: np.ndarray, n: int) -> np.ndarray:
    """The 64-bit sums over the last axis of `a` [..., m] as np.sum gives
    them for the rows zero-padded to n >= m entries, without the padding.

    numpy sums a contiguous row pairwise: a row longer than 128 splits at
    half its length rounded down to a multiple of 8, and a shorter one
    adds 8 strided partial sums, then its tail. Trailing zeros change a
    sum only through where they move those splits, so the recursion
    follows the padded row's splits; below them, a row whose length is a
    multiple of 8 (as every attention tile bound is) or is n fills the same
    partial sums as its padded version.
    """
    m = a.shape[-1]
    if n > 128:
        half = n // 2 - n // 2 % 8
        if m <= half:
            return _padded_row_sum(a, half)
        return _padded_row_sum(a[..., :half], half) + _padded_row_sum(a[..., half:], n - half)
    return np.sum(a, axis=-1, keepdims=True, dtype=np.float64)


def _softmax_masked(scores: np.ndarray, scale: float, mask: np.ndarray, n: int,
                    out: Optional[np.ndarray] = None) -> np.ndarray:
    """Softmax of one attention tile of raw scores [..., T, i1] (query rows
    i1 - T to i1 - 1 against keys 0 to i1 - 1), into `out` (default:
    `scores`): s = scores * scale + mask, e = exp(s - max(s)),
    e / sum(e) with the sum as over n keys.

    Scaling, masking, max-subtraction and exp run in `scores`. The additive
    causal mask [>= T, >= T] goes on the diagonal block only; adding 0
    elsewhere would not change the probabilities.
    """
    scores *= scale
    T = scores.shape[-2]
    scores[..., -T:] += mask[:T, :T]
    scores -= np.max(scores, axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    denom = _padded_row_sum(scores, n).astype(scores.dtype)
    return np.divide(scores, denom, out=scores if out is None else out)


def _check_finite(x: np.ndarray, where: str) -> None:
    if not np.all(np.isfinite(x)):
        raise NumericFailure(f"non-finite activations in {where}", where=where)


# -- sublayers, which only `_blocks` chains: the one block implementation,
# run by the training step, eval and the calibration walk alike
#
# Each takes an optional `cache` dict, in which it keeps references to the
# activations `_backward` reads; without one, every activation but the
# returned one is freed when the sublayer returns.


def _rows(a: np.ndarray) -> np.ndarray:
    """[..., n] activations as stacked [positions, n] rows (a view)."""
    return a.reshape(-1, a.shape[-1])


def _embed(cfg: ModelConfig, T: Dict[str, np.ndarray], ids: np.ndarray) -> np.ndarray:
    S = ids.shape[1]
    if S > cfg.seq_len:
        raise ConfigError(f"batch seq {S} exceeds model seq_len {cfg.seq_len}")
    return T["embed.tok"][ids] + T["embed.pos"][:S]


def _prenorm(x: np.ndarray, g: np.ndarray, cache: Optional[dict] = None) -> np.ndarray:
    """xhat * g, the normalized sublayer input; caches "xhat" and "r"."""
    xhat, r = _rms(x)
    if cache is not None:
        cache["xhat"], cache["r"] = xhat, r
    return xhat * g


# Query rows per attention tile: tile [i0, i1) scores keys [0, i1) only,
# skipping the blocks above the diagonal (block skipping as in
# FlashAttention, Dao et al. 2022, arXiv:2205.14135).
ATTN_TILE = 64


def _tiles(S: int) -> List[Tuple[int, int]]:
    """(i0, i1) bounds of the attention tiles of S positions: ATTN_TILE rows
    each, the last one taking the rest (fewer than 2 * ATTN_TILE rows).

    A short tile of its own would change the bits: numpy multiplies a
    one-row matrix as a matrix-vector product, and OpenBLAS takes other
    kernels, which sum in another order, for products of a few rows.
    """
    starts = list(range(0, S, ATTN_TILE))
    if len(starts) > 1 and S - starts[-1] < ATTN_TILE:
        starts.pop()
    return list(zip(starts, starts[1:] + [S]))


@lru_cache(maxsize=None)
def _tile_mask(dtype) -> np.ndarray:
    """The additive causal mask of the largest tile, -inf above the
    diagonal: one read-only array per dtype, shared by every thread."""
    n = 2 * ATTN_TILE
    mask = np.zeros((n, n), dtype=dtype)
    mask[np.triu_indices(n, k=1)] = -np.inf
    mask.flags.writeable = False
    return mask


def _attend(a_in, wq, wk, wv, cfg: ModelConfig, cache: Optional[dict] = None) -> np.ndarray:
    """Causal multi-head attention on a_in [B, S, d]: the merged heads'
    context [B, S, d]. With a `cache`, it keeps "q", "k", "v" (head-major
    [B, H, S, Dh] views), "ctx" and the attention probabilities "probs"
    [B, H, S, S] (upper blocks zeroed); without one, only one tile's scores
    exist at a time."""
    B, S, _ = a_in.shape
    H, Dh = cfg.n_heads, cfg.d_head
    flat = _rows(a_in)
    q, k, v = ((flat @ w.T).reshape(B, S, H, Dh).transpose(0, 2, 1, 3) for w in (wq, wk, wv))
    ctx = np.empty((B, S, H * Dh), dtype=a_in.dtype)
    probs = None
    if cache is not None:
        probs = np.empty((B, H, S, S), dtype=a_in.dtype)
        cache.update(q=q, k=k, v=v, probs=probs, ctx=ctx)
    ctx_heads = np.reshape(ctx, (B, S, H, Dh), copy=False).transpose(0, 2, 1, 3)
    scale, mask = 1.0 / math.sqrt(Dh), _tile_mask(a_in.dtype)
    for i0, i1 in _tiles(S):
        scores = np.matmul(q[:, :, i0:i1], k[:, :, :i1].transpose(0, 1, 3, 2))
        dst = None
        if probs is not None:
            probs[:, :, i0:i1, i1:] = 0.0
            dst = probs[:, :, i0:i1, :i1]
        p = _softmax_masked(scores, scale, mask, S, dst)
        np.matmul(p, v[:, :, :i1], out=ctx_heads[:, :, i0:i1])
    return ctx


def _attend_backward(dctx, q, k, v, probs, dq, dk, dv) -> None:
    """Gradients of the causal attention core, all [b, H, S, Dh] head views:
    dq, dk, dv (written) from dctx and the cached q, k, v and probs.

    Per query tile, dprobs, the row sums, dscores and dq run over keys
    [0, i1); per key tile, dk and dv over the queries from its first row on.
    """
    S = probs.shape[-1]
    scale = 1.0 / math.sqrt(q.shape[-1])
    dscores = np.empty(probs.shape, dtype=probs.dtype)  # lower blocks written
    for i0, i1 in _tiles(S):
        p = probs[:, :, i0:i1, :i1]
        ds = np.matmul(dctx[:, :, i0:i1], v[:, :, :i1].transpose(0, 1, 3, 2),
                       out=dscores[:, :, i0:i1, :i1])  # dprobs
        ds -= _padded_row_sum(ds * p, S).astype(ds.dtype)
        ds *= p
        np.matmul(ds, k[:, :, :i1], out=dq[:, :, i0:i1])
    dq *= scale
    for j0, j1 in _tiles(S):
        np.matmul(probs[:, :, j0:, j0:j1].transpose(0, 1, 3, 2), dctx[:, :, j0:],
                  out=dv[:, :, j0:j1])
        np.matmul(dscores[:, :, j0:, j0:j1].transpose(0, 1, 3, 2), q[:, :, j0:],
                  out=dk[:, :, j0:j1])
    dk *= scale


def _mlp_hidden(m_in: np.ndarray, w1: np.ndarray, cache: Optional[dict] = None) -> np.ndarray:
    """gelu(h1) with h1 = m_in @ W1.T; caches "h1", "tanh" and "gh1"."""
    h1 = (_rows(m_in) @ w1.T).reshape(*m_in.shape[:-1], -1)
    gh1, t = _gelu(h1)
    if cache is not None:
        cache.update(h1=h1, tanh=t, gh1=gh1)
    return gh1


def _residual(x: np.ndarray, inp: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x + inp @ W.T: a sublayer's output projection added to the stream."""
    return x + (_rows(inp) @ w.T).reshape(x.shape)


# Work is split into shards of whole sequences. Rows never interact outside
# attention, which stays inside a sequence, so a shard computes exactly the
# rows the whole batch would: its logits, activations and every position's
# loss are bitwise those of `forward` over the whole batch, at any thread
# count, given that the row-sliced GEMMs take the same BLAS path as the
# full ones.
# OpenBLAS's blocked kernels do (their K blocking never depends on the row
# count); its small-matrix kernels, taken for products of about a thousand
# outputs or fewer, do not. The gradients of `loss_and_grads` are reduced
# per shard (weight GEMMs, norm-gain sums, embedding scatters) and then
# summed in shard order, so they are the same bits at any thread count but
# equal the unsharded pass only for a one-shard batch. The floor below keeps
# every shard far above the small-matrix kernels, and keeps per-shard work
# large against the per-call overhead of numpy: a tiny.cfg batch (8 x 128
# positions, d_model 64) is one shard, a desk.cfg batch (64 x 256, d_model
# 192) 32 shards of 2 sequences.
SHARD_ACTIVATIONS = 1 << 16  # positions x d_model per shard, at least


def _shards(cfg: ModelConfig, B: int, S: int) -> List[slice]:
    """Balanced runs of whole sequences, each of at least SHARD_ACTIVATIONS
    activations; one run when the batch is smaller."""
    n = max(1, B // -(-SHARD_ACTIVATIONS // (S * cfg.d_model)))
    bounds = [B * j // n for j in range(n + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _blocks(cfg, T, ids, layers: Optional[list]):
    """The residual stream of whole sequences `ids` through every block, as
    a generator: before each quantizable stage (q/k/v, o, w1, w2) it yields
    (names, input) and is sent back that stage's weight matrices. Returns
    the last block's output. Unless `layers` is None, each layer appends
    to it its (attention, MLP) pair of sublayer caches."""
    x = _embed(cfg, T, ids)
    for i in range(cfg.n_layers):
        p = f"layers.{i}"
        attn, mlp = (None, None) if layers is None else ({}, {})
        if layers is not None:
            layers.append((attn, mlp))
        # h is the sublayer's stage input; each stage drops the one before
        h = _prenorm(x, T[f"{p}.norm1.g"], attn)
        wq, wk, wv = yield [f"{p}.attn.wq", f"{p}.attn.wk", f"{p}.attn.wv"], h
        h = _attend(h, wq, wk, wv, cfg, attn)  # ctx
        (wo,) = yield [f"{p}.attn.wo"], h
        x = _residual(x, h, wo)
        h = _prenorm(x, T[f"{p}.norm2.g"], mlp)
        (w1,) = yield [f"{p}.mlp.w1"], h
        h = _mlp_hidden(h, w1, mlp)  # gelu(h1)
        (w2,) = yield [f"{p}.mlp.w2"], h
        x = _residual(x, h, w2)
        _check_finite(x, p)
    return x


def _resume(blocks, weights):
    """Send `weights` to a `_blocks` generator: its next (names, input), or
    (None, output) once it is done."""
    try:
        return blocks.send(weights)
    except StopIteration as done:
        return None, done.value


def _forward_rows(cfg, T, ids, layers: Optional[list]) -> dict:
    """The forward pass over whole sequences `ids`, appending every block's
    caches to `layers` unless it is None (see `_blocks`): all `_backward`
    reads, as "logits", "xhatf", "rf", "layers", "ids" and "shape"."""
    blocks = _blocks(cfg, T, ids, layers)
    names, x = _resume(blocks, None)
    while names:
        names, x = _resume(blocks, [T[n] for n in names])
    xhatf, rf = _rms(x)
    logits = (_rows(xhatf * T["norm_f.g"]) @ T["unembed"].T).reshape(*ids.shape, -1)
    _check_finite(logits, "unembed")
    return dict(logits=logits, xhatf=xhatf, rf=rf, layers=layers, ids=ids, shape=ids.shape)


def _shard_items(cfg: ModelConfig, batches: Sequence[Batch]) -> List[Tuple[int, slice]]:
    """(batch index, rows) of every shard of every batch, in order: the one
    split of the training step, eval and the calibration walk."""
    return [(i, sl) for i, b in enumerate(batches) for sl in _shards(cfg, *b.inputs.shape)]


def _run_shards(cfg: ModelConfig, fn: Callable, items: Sequence[tuple]) -> Iterator[tuple]:
    """fn(*item) for every (batch index, ...) item, as one parallel region:
    yields (batch index, result) in item order while later items still
    run, and nothing after the first failure. Once every item has run, a
    failure raises as a serial pass over the batches would meet it: the
    earliest failing batch's earliest failing layer (a NumericFailure by
    the layer it names, any other failure first)."""
    depth = {f"layers.{i}": i for i in range(cfg.n_layers)}
    depth["unembed"] = cfg.n_layers
    batch_of = (item[0] for item in items)
    failures = []  # ((batch index, layer depth), failure)
    for done in parallel.stream(lambda item: fn(*item), items):
        i, exc = next(batch_of), done.exception()
        if exc is not None:
            layer = depth.get(exc.where, -1) if isinstance(exc, NumericFailure) else -1
            failures.append(((i, layer), exc))
        elif not failures:
            yield i, done.result()
        del done  # the item's result, before the stream submits the next item
    if failures:
        raise min(failures, key=lambda f: f[0])[1]


def forward(ckpt: Checkpoint, batch: Batch) -> Tuple[np.ndarray, dict]:
    """The serial reference pass over the whole batch: (logits, cache), the
    cache holding every activation `backward` reads. The sharded step and
    eval equal its rows bitwise. A non-finite activation raises
    NumericFailure naming the earliest failing layer."""
    T = ckpt.tensors
    cache = _forward_rows(ckpt.config, T, batch.inputs, [])
    return cache["logits"], cache


def _nll(logits: np.ndarray, targets: np.ndarray):
    """(nll, e, denom) of a stable log-softmax: every position's negative
    log-likelihood in 64-bit, e = exp(logits - max) and denom, the 64-bit
    sums of e over the vocabulary."""
    e = logits - np.max(logits, axis=-1, keepdims=True)
    tgt = np.take_along_axis(e, targets[..., None].astype(np.int64), axis=-1)[..., 0]
    np.exp(e, out=e)
    denom = np.sum(e, axis=-1, keepdims=True, dtype=np.float64)
    return np.log(denom[..., 0]) - tgt.astype(np.float64), e, denom


def loss(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean cross-entropy in nats over all positions, stable log-softmax."""
    return float(np.mean(_nll(logits, targets)[0]))


def _backward(ckpt: Checkpoint, targets: np.ndarray, cache: dict, n_pos: int):
    """(nll, grads): every position's loss and the gradients of the summed
    cross-entropy over `cache`'s positions, divided by `n_pos`. One serial
    pass; the log-softmax statistics are computed once, for both."""
    cfg = ckpt.config
    T = ckpt.tensors
    B, S = cache["shape"]
    H, Dh = cfg.n_heads, cfg.d_head
    dtype = T["embed.tok"].dtype
    grads: GradientSet = {}

    xhatf, rf, gf = cache["xhatf"], cache["rf"], T["norm_f.g"]
    nll, dlogits, denom = _nll(cache["logits"], targets)
    dlogits /= denom.astype(dtype)
    idx = np.arange(B * S) * cfg.vocab + targets.reshape(-1).astype(np.int64)
    dlogits.reshape(-1)[idx] -= 1.0
    dlogits *= 1.0 / n_pos
    grads["unembed"] = _rows(dlogits).T @ _rows(xhatf * gf)
    dhf = (_rows(dlogits) @ T["unembed"]).reshape(B, S, -1)
    grads["norm_f.g"] = np.sum(dhf * xhatf, axis=(0, 1))[None, :]
    dx = _rms_backward(dhf * gf, xhatf, rf)

    for i in range(cfg.n_layers - 1, -1, -1):
        p = f"layers.{i}"
        a, m = cache["layers"][i]
        g1, g2 = T[f"{p}.norm1.g"], T[f"{p}.norm2.g"]
        # MLP sublayer: x = x1 + gelu(m_in @ W1.T) @ W2.T
        dgh1 = (_rows(dx) @ T[f"{p}.mlp.w2"]).reshape(B, S, -1)
        grads[f"{p}.mlp.w2"] = _rows(dx).T @ _rows(m["gh1"])
        dh1 = _gelu_backward(dgh1, m["h1"], m["tanh"])
        grads[f"{p}.mlp.w1"] = _rows(dh1).T @ _rows(m["xhat"] * g2)
        dm_in = (_rows(dh1) @ T[f"{p}.mlp.w1"]).reshape(B, S, -1)
        grads[f"{p}.norm2.g"] = np.sum(dm_in * m["xhat"], axis=(0, 1))[None, :]
        dx1 = dx + _rms_backward(dm_in * g2, m["xhat"], m["r"])

        # attention sublayer: x1 = x0 + (P @ v merged) @ Wo.T
        dctx = (_rows(dx1) @ T[f"{p}.attn.wo"]).reshape(B, S, H, Dh).transpose(0, 2, 1, 3)
        grads[f"{p}.attn.wo"] = _rows(dx1).T @ _rows(a["ctx"])
        dqkv = [np.empty((B, S, H * Dh), dtype=dtype) for _ in range(3)]
        _attend_backward(dctx, a["q"], a["k"], a["v"], a["probs"],
                         *(np.reshape(f, (B, S, H, Dh), copy=False).transpose(0, 2, 1, 3)
                           for f in dqkv))
        a_in = _rows(a["xhat"] * g1)
        for w, dw in zip(("wq", "wk", "wv"), dqkv):
            grads[f"{p}.attn.{w}"] = _rows(dw).T @ a_in
        dq, dk, dv = dqkv
        da_in = _rows(dq) @ T[f"{p}.attn.wq"]  # dq @ Wq + dk @ Wk + dv @ Wv
        da_in += _rows(dk) @ T[f"{p}.attn.wk"]
        da_in += _rows(dv) @ T[f"{p}.attn.wv"]
        da_in = da_in.reshape(B, S, -1)
        grads[f"{p}.norm1.g"] = np.sum(da_in * a["xhat"], axis=(0, 1))[None, :]
        dx = dx1 + _rms_backward(da_in * g1, a["xhat"], a["r"])

    dtok = np.zeros_like(T["embed.tok"])
    np.add.at(dtok, cache["ids"], dx)
    grads["embed.tok"] = dtok
    dpos = np.zeros_like(T["embed.pos"])
    dpos[:S] = np.sum(dx, axis=0)
    grads["embed.pos"] = dpos
    return nll, grads


def backward(ckpt: Checkpoint, batch: Batch, cache: dict) -> GradientSet:
    """Exact gradients of the mean cross-entropy w.r.t. every tensor, in one
    serial pass over the batch `forward` cached."""
    B, S = cache["shape"]
    return _backward(ckpt, batch.targets, cache, B * S)[1]


def loss_and_grads(ckpt: Checkpoint, batch: Batch) -> Tuple[float, GradientSet]:
    """(mean cross-entropy, gradients) of one training step on `batch`.

    Each shard of whole sequences runs forward, the loss head and backward
    as one item on the thread pool, with a cache of its own rows only; its
    gradients are those of the shard's summed loss divided by the whole
    batch's position count. As each shard finishes, in shard order, the
    calling thread folds its gradients into shard 0's set and drops them,
    so at most 2 x workers + 1 sets are alive at once. The loss is bitwise
    `loss(forward(...))`; the gradients are the same bits at any thread
    count, and bitwise `backward`'s for a one-shard batch. A non-finite
    activation raises NumericFailure naming the earliest failing layer of
    the whole batch, as `forward` does.
    """
    cfg, T = ckpt.config, ckpt.tensors

    def shard(_, sl: slice):
        cache = _forward_rows(cfg, T, batch.inputs[sl], [])
        return _backward(ckpt, batch.targets[sl], cache, batch.inputs.size)

    nlls, grads = [], None
    for _, (nll, part) in _run_shards(cfg, shard, _shard_items(cfg, [batch])):
        nlls.append(nll)
        if grads is None:
            grads = part
        else:
            for name, g in grads.items():
                g += part[name]
        del part  # the shard's gradients, before the next item is submitted
    return float(np.mean(np.concatenate(nlls))), grads


def token_nll(ckpt: Checkpoint, batches: Sequence[Batch]) -> List[Tuple[np.ndarray, int]]:
    """Per batch, (nll, hits): every position's negative log-likelihood in
    64-bit [B, S], and how many positions' argmax logit is their target.

    Every shard of every batch is one item of a single parallel region and
    runs forward without a layer cache; a batch's rows, its shards' in
    order, are bitwise `forward`'s, and a failure is raised as `forward`
    over the batches in order would raise it.
    """
    cfg, T = ckpt.config, ckpt.tensors

    def shard(i: int, sl: slice):
        ids, targets = batches[i].inputs[sl], batches[i].targets[sl]
        logits = _forward_rows(cfg, T, ids, None)["logits"]
        return _nll(logits, targets)[0], int(np.sum(np.argmax(logits, axis=-1) == targets))

    nlls, hits = [[] for _ in batches], [0] * len(batches)
    for i, (nll, shard_hits) in _run_shards(cfg, shard, _shard_items(cfg, batches)):
        nlls[i].append(nll)
        hits[i] += shard_hits
    return [(np.concatenate(parts), n) for parts, n in zip(nlls, hits)]


def capture_layer_inputs(
    ckpt: Checkpoint,
    calib: CalibrationSet,
    on_stage: Callable[[List[str], np.ndarray], Sequence[np.ndarray]],
) -> None:
    """Walk the calibration batches through the blocks once, stage by stage,
    handing each stage the Gram of its inputs.

    A stage is a group of quantizable layers that share one input: q/k/v,
    then o, w1 and w2 of each block, in forward order. At each stage
    ``on_stage(names, G)`` receives the read-only float64 Gram G = X^T X of
    the stage's input rows X over every calibration sequence, and returns
    the matrices for `names` that carry the stream on (cast to the
    checkpoint's dtype): dequantized weights for sequential propagation,
    the originals otherwise. X is exactly what `forward` computes with the
    weights returned so far: every shard of every batch (`_shard_items`) is
    one walk, all stepped together on the thread pool, and each forms its
    own rows' Gram (`quant.gram`) there. The calling thread adds the shard
    Grams in shard order as they arrive, dropping each, so G has the same
    bits at any thread count, and is gram(X) bitwise for one shard.
    `on_stage` runs between steps, outside the pool; the walk keeps no
    state outside the call.
    """
    from .quant import gram  # at call time: quant imports this module

    if not calib.batches:
        raise ConfigError("calibration set is empty")
    cfg, T = ckpt.config, ckpt.tensors
    dtype = T["embed.tok"].dtype
    walks = [(i, _blocks(cfg, T, calib.batches[i].inputs[sl], None))
             for i, sl in _shard_items(cfg, calib.batches)]
    weights = None

    def step(_, walk):
        names, a = _resume(walk, weights)
        return names, (None if names is None else gram(_rows(a)))

    while True:
        G = None
        for _, (names, part) in _run_shards(cfg, step, walks):
            if G is None:
                G = part
            else:
                G += part
            del part  # the shard's Gram, before the next item is submitted
        if names is None:
            return
        G.flags.writeable = False
        weights = [np.asarray(w, dtype=dtype) for w in on_stage(names, G)]
        del G


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
