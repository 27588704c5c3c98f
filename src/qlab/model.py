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

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import math

import numpy as np

from .data import Batch, CalibrationSet
from .errors import ConfigError, NumericFailure
from . import store

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


def _rms(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Returns (xhat, r) with xhat = x * r, r = 1/sqrt(mean(x^2) + eps)."""
    mu = np.mean(np.square(x), axis=-1, keepdims=True, dtype=np.float64)
    r = (1.0 / np.sqrt(mu + NORM_EPS)).astype(x.dtype)
    return x * r, r


def _rms_backward(dxhat: np.ndarray, xhat: np.ndarray, r: np.ndarray) -> np.ndarray:
    m = np.mean(dxhat * xhat, axis=-1, keepdims=True, dtype=np.float64).astype(xhat.dtype)
    return r * (dxhat - xhat * m)


def _gelu(u: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    t = np.tanh(GELU_C0 * (u + GELU_C1 * u * u * u))
    return 0.5 * u * (1.0 + t), t


def _gelu_backward(du_out: np.ndarray, u: np.ndarray, t: np.ndarray) -> np.ndarray:
    dt = GELU_C0 * (1.0 + 3.0 * GELU_C1 * u * u)
    return du_out * (0.5 * (1.0 + t) + 0.5 * u * (1.0 - t * t) * dt)


def _softmax_masked(scores: np.ndarray, mask_add: np.ndarray) -> np.ndarray:
    s = scores + mask_add
    s -= np.max(s, axis=-1, keepdims=True)
    e = np.exp(s)
    denom = np.sum(e, axis=-1, keepdims=True, dtype=np.float64).astype(scores.dtype)
    return e / denom


def _causal_mask(seq: int, dtype) -> np.ndarray:
    mask = np.zeros((seq, seq), dtype=dtype)
    mask[np.triu_indices(seq, k=1)] = -np.inf
    return mask


def _check_finite(x: np.ndarray, where: str) -> None:
    if not np.all(np.isfinite(x)):
        raise NumericFailure(f"non-finite activations in {where}", where=where)


def _inputs_of(batch: Union[Batch, np.ndarray]) -> np.ndarray:
    return batch.inputs if isinstance(batch, Batch) else batch


# -- sublayers: the one block implementation, shared by forward and the calibration walk


def _rows(a: np.ndarray) -> np.ndarray:
    """[..., n] activations as stacked [positions, n] rows (a view)."""
    return a.reshape(-1, a.shape[-1])


def _embed(cfg: ModelConfig, T: Dict[str, np.ndarray], ids: np.ndarray) -> np.ndarray:
    S = ids.shape[1]
    if S > cfg.seq_len:
        raise ConfigError(f"batch seq {S} exceeds model seq_len {cfg.seq_len}")
    return T["embed.tok"][ids] + T["embed.pos"][:S]


def _prenorm(x: np.ndarray, g: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(xhat, r, xhat * g): the normalized sublayer input."""
    xhat, r = _rms(x)
    return xhat, r, xhat * g


def _attend(a_in, wq, wk, wv, cfg: ModelConfig, mask_add: np.ndarray):
    """Causal multi-head attention on a_in [B, S, d]: (q, k, v, probs, ctx)."""
    B, S, _ = a_in.shape
    H, Dh = cfg.n_heads, cfg.d_head
    flat = _rows(a_in)
    q = (flat @ wq.T).reshape(B, S, H, Dh).transpose(0, 2, 1, 3)
    k = (flat @ wk.T).reshape(B, S, H, Dh).transpose(0, 2, 1, 3)
    v = (flat @ wv.T).reshape(B, S, H, Dh).transpose(0, 2, 1, 3)
    scores = np.matmul(q, k.transpose(0, 1, 3, 2)) * (1.0 / math.sqrt(Dh))
    probs = _softmax_masked(scores, mask_add)
    ctx = np.matmul(probs, v).transpose(0, 2, 1, 3).reshape(B, S, -1)
    return q, k, v, probs, ctx


def _mlp_hidden(m_in: np.ndarray, w1: np.ndarray):
    """(h1, tanh, gelu(h1)) with h1 = m_in @ W1.T."""
    h1 = (_rows(m_in) @ w1.T).reshape(*m_in.shape[:-1], -1)
    gh1, t = _gelu(h1)
    return h1, t, gh1


def _residual(x: np.ndarray, inp: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x + inp @ W.T: a sublayer's output projection added to the stream."""
    return x + (_rows(inp) @ w.T).reshape(x.shape)


def forward(
    ckpt: Checkpoint,
    batch: Union[Batch, np.ndarray],
    overrides: Optional[Dict[str, np.ndarray]] = None,
    need_cache: bool = True,
) -> Tuple[np.ndarray, dict]:
    """Run the model; returns (logits, cache).

    `overrides` substitutes named weight matrices (used to evaluate with
    quantized weights).
    """
    cfg = ckpt.config
    ids = _inputs_of(batch)
    B, S = ids.shape
    T = ckpt.tensors
    if overrides:
        T = {**T, **overrides}
    x = _embed(cfg, T, ids)
    mask_add = _causal_mask(S, T["embed.tok"].dtype)
    layers = []
    for i in range(cfg.n_layers):
        p = f"layers.{i}"
        x0 = x
        xhat1, r1, a_in = _prenorm(x0, T[f"{p}.norm1.g"])
        q, k, v, probs, ctx = _attend(
            a_in, T[f"{p}.attn.wq"], T[f"{p}.attn.wk"], T[f"{p}.attn.wv"], cfg, mask_add
        )
        x1 = _residual(x0, ctx, T[f"{p}.attn.wo"])
        xhat2, r2, m_in = _prenorm(x1, T[f"{p}.norm2.g"])
        h1, tanh_cache, gh1 = _mlp_hidden(m_in, T[f"{p}.mlp.w1"])
        x = _residual(x1, gh1, T[f"{p}.mlp.w2"])
        _check_finite(x, p)
        if need_cache:
            layers.append(
                dict(x0=x0, xhat1=xhat1, r1=r1, q=q, k=k, v=v, probs=probs, ctx=ctx,
                     x1=x1, xhat2=xhat2, r2=r2, h1=h1, tanh=tanh_cache, gh1=gh1)
            )

    xhatf, rf = _rms(x)
    hf = xhatf * T["norm_f.g"]
    logits = (hf.reshape(B * S, -1) @ T["unembed"].T).reshape(B, S, cfg.vocab)
    _check_finite(logits, "unembed")
    cache = dict(layers=layers, xhatf=xhatf, rf=rf, logits=logits, ids=ids,
                 shape=(B, S), overrides=overrides or {})
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
    """Exact gradients of the mean cross-entropy w.r.t. every tensor."""
    cfg = ckpt.config
    T = ckpt.tensors
    if cache["overrides"]:
        T = {**T, **cache["overrides"]}
    B, S = cache["shape"]
    H, Dh = cfg.n_heads, cfg.d_head
    n_pos = B * S
    dtype = T["embed.tok"].dtype
    inv_dh = 1.0 / math.sqrt(Dh)
    grads: GradientSet = {}

    logits = cache["logits"]
    z, e, denom = _log_softmax_stats(logits)
    probs = (e / denom.astype(dtype)).astype(dtype)
    dlogits = probs.copy()
    flat_idx = (
        np.arange(n_pos) * cfg.vocab + batch.targets.reshape(-1).astype(np.int64)
    )
    dlogits.reshape(-1)[flat_idx] -= 1.0
    dlogits *= 1.0 / n_pos

    xhatf, rf = cache["xhatf"], cache["rf"]
    hf = xhatf * T["norm_f.g"]
    dl_flat = dlogits.reshape(n_pos, -1)
    grads["unembed"] = dl_flat.T @ hf.reshape(n_pos, -1)
    dhf = (dl_flat @ T["unembed"]).reshape(B, S, -1)
    grads["norm_f.g"] = np.sum(dhf * xhatf, axis=(0, 1), keepdims=False)[None, :]
    dx = _rms_backward(dhf * T["norm_f.g"], xhatf, rf)

    for i in range(cfg.n_layers - 1, -1, -1):
        p = f"layers.{i}"
        c = cache["layers"][i]
        # MLP sublayer: x = x1 + gelu(m_in @ W1.T) @ W2.T
        dmlp = dx.reshape(n_pos, -1)
        grads[f"{p}.mlp.w2"] = dmlp.T @ c["gh1"].reshape(n_pos, -1)
        dgh1 = (dmlp @ T[f"{p}.mlp.w2"]).reshape(B, S, -1)
        dh1 = _gelu_backward(dgh1, c["h1"], c["tanh"])
        m_in = c["xhat2"] * T[f"{p}.norm2.g"]
        grads[f"{p}.mlp.w1"] = dh1.reshape(n_pos, -1).T @ m_in.reshape(n_pos, -1)
        dm_in = (dh1.reshape(n_pos, -1) @ T[f"{p}.mlp.w1"]).reshape(B, S, -1)
        grads[f"{p}.norm2.g"] = np.sum(dm_in * c["xhat2"], axis=(0, 1))[None, :]
        dx1 = dx + _rms_backward(dm_in * T[f"{p}.norm2.g"], c["xhat2"], c["r2"])

        # attention sublayer: x1 = x0 + (P @ v merged) @ Wo.T
        dattn = dx1.reshape(n_pos, -1)
        grads[f"{p}.attn.wo"] = dattn.T @ c["ctx"].reshape(n_pos, -1)
        dctx = (dattn @ T[f"{p}.attn.wo"]).reshape(B, S, H, Dh).transpose(0, 2, 1, 3)
        probs_a = c["probs"]
        dprobs = np.matmul(dctx, c["v"].transpose(0, 1, 3, 2))
        dv = np.matmul(probs_a.transpose(0, 1, 3, 2), dctx)
        row = np.sum(dprobs * probs_a, axis=-1, keepdims=True, dtype=np.float64).astype(dtype)
        dscores = probs_a * (dprobs - row)
        dq = np.matmul(dscores, c["k"]) * inv_dh
        dk = np.matmul(dscores.transpose(0, 1, 3, 2), c["q"]) * inv_dh

        def merge(h):  # (B,H,S,Dh) -> (B*S, D)
            return h.transpose(0, 2, 1, 3).reshape(n_pos, -1)

        a_in = (c["xhat1"] * T[f"{p}.norm1.g"]).reshape(n_pos, -1)
        dq_f, dk_f, dv_f = merge(dq), merge(dk), merge(dv)
        grads[f"{p}.attn.wq"] = dq_f.T @ a_in
        grads[f"{p}.attn.wk"] = dk_f.T @ a_in
        grads[f"{p}.attn.wv"] = dv_f.T @ a_in
        da_in = dq_f @ T[f"{p}.attn.wq"] + dk_f @ T[f"{p}.attn.wk"] + dv_f @ T[f"{p}.attn.wv"]
        da_in = da_in.reshape(B, S, -1)
        grads[f"{p}.norm1.g"] = np.sum(da_in * c["xhat1"], axis=(0, 1))[None, :]
        dx = dx1 + _rms_backward(da_in * T[f"{p}.norm1.g"], c["xhat1"], c["r1"])

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
    otherwise. Each batch keeps its own hidden
    state and shape, so X is exactly what `forward` computes with the
    weights returned so far. Only the current stage's X is held; the walk
    keeps no state outside the call.
    """
    if not calib.batches:
        raise ConfigError("calibration set is empty")
    cfg, T = ckpt.config, ckpt.tensors
    dtype = T["embed.tok"].dtype
    xs = [_embed(cfg, T, _inputs_of(b)) for b in calib.batches]
    masks = [_causal_mask(x.shape[1], dtype) for x in xs]

    def stage(names: List[str], inputs: List[np.ndarray]) -> List[np.ndarray]:
        X = np.concatenate([_rows(a) for a in inputs], axis=0)
        return [np.asarray(w, dtype=dtype) for w in on_stage(names, X)]

    for i in range(cfg.n_layers):
        p = f"layers.{i}"
        a_in = [_prenorm(x, T[f"{p}.norm1.g"])[2] for x in xs]
        wq, wk, wv = stage([f"{p}.attn.wq", f"{p}.attn.wk", f"{p}.attn.wv"], a_in)
        ctx = [_attend(a, wq, wk, wv, cfg, m)[4] for a, m in zip(a_in, masks)]
        del a_in
        (wo,) = stage([f"{p}.attn.wo"], ctx)
        xs = [_residual(x, c, wo) for x, c in zip(xs, ctx)]
        del ctx
        m_in = [_prenorm(x, T[f"{p}.norm2.g"])[2] for x in xs]
        (w1,) = stage([f"{p}.mlp.w1"], m_in)
        gh1 = [_mlp_hidden(m, w1)[2] for m in m_in]
        del m_in
        (w2,) = stage([f"{p}.mlp.w2"], gh1)
        xs = [_residual(x, g, w2) for x, g in zip(xs, gh1)]
        del gh1
        for x in xs:
            _check_finite(x, p)


# -- checkpoint serialization ------------------------------------------------

_META = "__meta__"


def meta_entry(config: ModelConfig, step: int, tokens_seen: int) -> Tuple[str, str, int, int, bytes]:
    """The `__meta__` file entry: step, tokens seen and the model config as 10 f64s."""
    c = config
    meta = np.array(
        [[step, tokens_seen, c.vocab, c.d_model, c.n_layers, c.n_heads,
          c.d_ff, c.seq_len, c.init_seed, c.init_std]], dtype=np.float64
    )
    return (_META, "f64", 1, meta.shape[1], store.encode_tensor(meta, "f64"))


def pop_meta(raw: dict, path: str) -> Tuple[ModelConfig, int, int]:
    """Remove and decode the `__meta__` entry: (config, step, tokens_seen)."""
    if _META not in raw:
        raise ConfigError(f"{path}: missing metadata tensor")
    dt, r, c, payload = raw.pop(_META)
    meta = store.decode_tensor(payload, dt, r, c)[0]
    config = ModelConfig(
        vocab=int(meta[2]), d_model=int(meta[3]), n_layers=int(meta[4]),
        n_heads=int(meta[5]), d_ff=int(meta[6]), seq_len=int(meta[7]),
        init_seed=int(meta[8]), init_std=float(meta[9]),
    )
    return config, int(meta[0]), int(meta[1])


def save_checkpoint(path: str, ckpt: Checkpoint, overwrite: bool = False) -> None:
    """Weights as f32 payloads plus one f64 metadata tensor."""
    entries = [meta_entry(ckpt.config, ckpt.step, ckpt.tokens_seen)]
    for name in sorted(ckpt.tensors):
        t = ckpt.tensors[name]
        entries.append((name, "f32", t.shape[0], t.shape[1], store.encode_tensor(t, "f32")))
    store.write_tensor_file(path, entries, overwrite=overwrite)


def load_checkpoint(path: str, dtype=np.float32) -> Checkpoint:
    raw = store.read_tensor_file(path)
    config, step, tokens_seen = pop_meta(raw, path)
    tensors = {}
    for name, (dt, rows, cols, payload) in raw.items():
        tensors[name] = store.decode_tensor(payload, dt, rows, cols).astype(dtype)
    expect = tensor_shapes(config)
    if set(tensors) != set(expect):
        raise ConfigError(f"{path}: tensor set does not match config")
    return Checkpoint(tensors, step=step, tokens_seen=tokens_seen, config=config)
