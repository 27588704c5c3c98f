"""Grouped low-bit weight quantization: RTN baseline and GPTQ.

Grids are asymmetric min-max with the range anchored at zero (the group
range is [min(w,0), max(w,0)]), so the zero point is exactly representable
and constant nonzero groups reconstruct exactly. Code rounding is
half-up. Scales are stored in 32-bit so files round-trip bit-exactly;
all quantization arithmetic runs in 64-bit, where products of codes with
a 32-bit scale are exact.

GPTQ processes columns in natural order against U, the upper Cholesky
factor of the damped inverse Hessian, recomputing group parameters from
the error-compensated weights at each group boundary. U comes from one
LAPACK Cholesky of H with its column order reversed and one triangular
inverse (`ndkernel.spd_inverse`), written into H's array, so a solve
holds at most two n x n arrays.
Residuals are applied in lazy batches of at most LAZY_BLOCK columns that
never cross a group boundary: within a batch column by column, past it
in one GEMM. The column loop runs on the transposed weights, so each
column is one contiguous row quantized and compensated in place.
GPTQ needs the calibration inputs X only through their Gram matrix
G = X^T X: the Hessian is 2 G, and the reconstruction error
||X (W - What)^T||_F is sqrt(sum((D G) * D)) with D = W - What. `gram` is
the one place where rows become a Gram, in float64 (an exact cast of the
rows), the precision of every calibration product here.
`quantize_model` gathers calibration Grams in a single walk of the
calibration batches through the blocks. Layers that share an input
(q/k/v) share its Gram, Hessian and factor, so each stage is solved
once, on its weights stacked by rows, as soon as its Gram exists. The
walk sums the Grams of its shards in shard order, so a stage holds one
d_in x d_in array however many calibration rows there are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import store
from .errors import ConfigError, ContractViolation, FactorizationError, QuantizationError
from .model import META, Checkpoint, ModelConfig, meta_entry, pop_meta, quantizable_layer_names
# cholesky is unused here, but perfbench's traced mode wraps it at this
# module's name, so it must stay importable from it.
from .ndkernel import cholesky, frobenius_norm, spd_inverse  # noqa: F401
from .data import CalibrationSet


@dataclass(frozen=True)
class QuantConfig:
    bits: int = 4
    group_size: int = 128
    damping_frac: float = 0.01
    propagate_quantized: bool = True
    method: str = "gptq"  # rtn | gptq
    static_groups: bool = False  # ablation: group params from original weights

    def __post_init__(self):
        if not 2 <= self.bits <= 8:
            raise ConfigError("bits must lie in [2, 8]")
        if self.group_size < 1:
            raise ConfigError("group_size must be at least 1")
        if not 0 < self.damping_frac < 1:
            raise ConfigError("damping_frac must lie in (0, 1)")
        if self.method not in ("rtn", "gptq"):
            raise ConfigError(f"unknown quantization method {self.method!r}")


@dataclass
class QuantizedLinear:
    codes: np.ndarray  # uint8 [d_out, d_in], values < 2^bits
    scales: np.ndarray  # float32 [d_out, n_groups]
    zeros: np.ndarray  # int32 [d_out, n_groups]
    bits: int
    group_size: int

    @property
    def shape(self) -> Tuple[int, int]:
        return self.codes.shape

    def __post_init__(self):
        if self.codes.max(initial=0) >= (1 << self.bits):
            raise ContractViolation("code exceeds bit width")


@dataclass
class QuantizedModel:
    layers: Dict[str, QuantizedLinear]
    passthrough: Dict[str, np.ndarray]  # full-precision tensors
    config: ModelConfig
    source_step: int
    source_tokens: int
    quant: QuantConfig


@dataclass
class LayerQuantStats:
    name: str
    weight_error: float  # ||W - What||_F
    # ||X W^T - X What^T||_F from the stage's Gram X^T X, None without calibration
    recon_error: Optional[float]
    damping_used: float


LAZY_BLOCK = 32  # GPTQ columns per lazy batch at most


def round_half_up(x: np.ndarray) -> np.ndarray:
    return np.floor(x + 0.5)


def group_params(w_group: np.ndarray, bits: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row (scale, zero) for one group of columns.

    scale = (max - min)/(2^b - 1) over the zero-anchored range; all-zero
    rows get the sentinel scale 1 with zero 0 (all codes equal the zero
    point). Returned scales are float32, zeros int32.
    """
    w = np.asarray(w_group, dtype=np.float64)
    maxq = (1 << bits) - 1
    xmin = np.minimum(w.min(axis=1), 0.0)
    xmax = np.maximum(w.max(axis=1), 0.0)
    rng = xmax - xmin
    scale64 = np.where(rng == 0.0, 1.0, rng / maxq)
    scale = scale64.astype(np.float32)
    zero = np.clip(round_half_up(-xmin / scale.astype(np.float64)), 0, maxq).astype(np.int32)
    return scale, zero


def quantize_codes(
    w: np.ndarray, scale: np.ndarray, zero: np.ndarray, bits: int
) -> np.ndarray:
    """Round-half-up onto the grid and clamp into [0, 2^b)."""
    maxq = (1 << bits) - 1
    s = scale.astype(np.float64)[:, None]
    c = round_half_up(np.asarray(w, dtype=np.float64) / s) + zero[:, None]
    return np.clip(c, 0, maxq).astype(np.uint8)


def _group_index(d_in: int, group_size: int) -> np.ndarray:
    return np.arange(d_in) // group_size


def dequantize(q: QuantizedLinear) -> np.ndarray:
    """Full dequantized matrix in float64 (exact grid values)."""
    gi = _group_index(q.shape[1], q.group_size)
    diff = q.codes.astype(np.float64) - q.zeros.astype(np.float64)[:, gi]
    return diff * q.scales.astype(np.float64)[:, gi]


def rtn_quantize(W: np.ndarray, cfg: QuantConfig) -> QuantizedLinear:
    """Independent nearest-grid rounding per group; ignores calibration."""
    W = np.asarray(W)
    if not np.all(np.isfinite(W)):
        raise ContractViolation("rtn_quantize requires finite weights")
    d_out, d_in = W.shape
    g = cfg.group_size
    n_groups = (d_in + g - 1) // g
    codes = np.empty((d_out, d_in), dtype=np.uint8)
    scales = np.empty((d_out, n_groups), dtype=np.float32)
    zeros = np.empty((d_out, n_groups), dtype=np.int32)
    w64 = W.astype(np.float64)
    for gi in range(n_groups):
        lo, hi = gi * g, min((gi + 1) * g, d_in)
        scale, zero = group_params(w64[:, lo:hi], cfg.bits)
        codes[:, lo:hi] = quantize_codes(w64[:, lo:hi], scale, zero, cfg.bits)
        scales[:, gi], zeros[:, gi] = scale, zero
    return QuantizedLinear(codes, scales, zeros, cfg.bits, cfg.group_size)


def gram(X: np.ndarray) -> np.ndarray:
    """X^T X in float64 of calibration rows X [rows, d_in]."""
    x64 = np.asarray(X, dtype=np.float64)
    return x64.T @ x64


def gptq_quantize(
    W: np.ndarray, G: np.ndarray, cfg: QuantConfig, name: str = ""
) -> QuantizedLinear:
    """Error-compensated quantization against the calibration Gram G = X^T X.

    Steps: H = 2 G, a fresh array (G is only read); dead columns (zero
    diagonal) are pinned and the corresponding weights zeroed; H is damped
    by damping_frac times its mean diagonal; U is the upper Cholesky factor
    of H^-1 (positive diagonal), written into H's array; per column j the
    rounding residual e = (w_j - deq_j)/U_jj is pushed into the remaining
    columns via U[j, j+1:], lazily: columns past the current batch receive
    a whole batch's residuals at once. Rows never mix, so rows stacked from
    layers that share G quantize as each layer alone would.
    """
    W = np.asarray(W)
    G = np.asarray(G, dtype=np.float64)
    if G.ndim != 2 or G.shape != (W.shape[1], W.shape[1]):
        raise ContractViolation(
            f"calibration Gram {G.shape} does not match weights {W.shape}"
        )
    if not np.all(np.isfinite(W)):
        raise ContractViolation("gptq_quantize requires finite weights")
    d_out, d_in = W.shape
    g = cfg.group_size
    n_groups = (d_in + g - 1) // g
    maxq = float((1 << cfg.bits) - 1)
    # column j of the weights is the contiguous row wT[j]
    wT = np.array(W.T, dtype=np.float64, order="C")

    H = 2.0 * G
    dead = np.diag(H) == 0.0
    if dead.any():
        H[dead, dead] = 1.0
        wT[dead] = 0.0
    damp = cfg.damping_frac * float(np.mean(np.diag(H)))
    H[np.diag_indices(d_in)] += damp
    try:
        U = spd_inverse(H)  # written into H's array
    except FactorizationError as exc:
        raise QuantizationError(
            f"Hessian factorization failed for {name or 'layer'}: {exc}", layer=name
        ) from exc

    qT = np.empty((d_in, d_out))  # codes as floats, column j in row j
    scales = np.empty((d_out, n_groups), dtype=np.float32)
    zeros = np.empty((d_out, n_groups), dtype=np.int32)
    errsT = np.empty((LAZY_BLOCK, d_out))  # a batch's residuals
    upd = np.empty((LAZY_BLOCK - 1, d_out))  # one rank-1 update inside a batch
    if cfg.static_groups:
        for gi in range(n_groups):
            lo = gi * g
            scales[:, gi], zeros[:, gi] = group_params(wT[lo : lo + g].T, cfg.bits)
    # Lazy batches: a column's residual updates the rest of its batch right
    # away, and the columns after the batch in one GEMM when the batch ends.
    # Batches never cross a group boundary, so a group's parameters are
    # computed only from fully error-compensated weights.
    for lo in range(0, d_in, g):
        gi, hi = lo // g, min(lo + g, d_in)
        if not cfg.static_groups:
            scales[:, gi], zeros[:, gi] = group_params(wT[lo:hi].T, cfg.bits)
        s, z = scales[:, gi].astype(np.float64), zeros[:, gi].astype(np.float64)
        for b0 in range(lo, hi, LAZY_BLOCK):
            b1 = min(b0 + LAZY_BLOCK, hi)
            for j in range(b0, b1):
                w, q, e = wT[j], qT[j], errsT[j - b0]
                # half-up rounding onto the grid, clamped: quantize_codes, in place
                np.divide(w, s, out=q)
                q += 0.5
                np.floor(q, out=q)
                q += z
                np.maximum(q, 0.0, out=q)
                np.minimum(q, maxq, out=q)
                # e = (w - deq) / U_jj, then the rank-1 update of the batch's rest
                np.subtract(q, z, out=e)
                e *= s
                np.subtract(w, e, out=e)
                e /= U[j, j]
                u = upd[: b1 - j - 1]
                np.multiply(U[j, j + 1 : b1, None], e, out=u)
                wT[j + 1 : b1] -= u
            # a C-ordered errs keeps the GEMM's summation order, hence its bits;
            # OpenBLAS sums a transposed operand in another order
            errs = np.ascontiguousarray(errsT[: b1 - b0].T)
            wT[b1:] -= (errs @ U[b0:b1, b1:]).T
    codes = qT.T.astype(np.uint8, order="C")
    return QuantizedLinear(codes, scales, zeros, cfg.bits, cfg.group_size)


def weight_error(W: np.ndarray, What: np.ndarray) -> float:
    return frobenius_norm(np.asarray(W, dtype=np.float64) - np.asarray(What, dtype=np.float64))


def reconstruction_error(W: np.ndarray, What: np.ndarray, G: np.ndarray) -> float:
    """||X W^T - X What^T||_F over the calibration rows X, from their Gram
    G = X^T X: the square root of sum((D G) * D) with D = W - What."""
    d = np.asarray(W, dtype=np.float64) - np.asarray(What, dtype=np.float64)
    dg = d @ np.asarray(G, dtype=np.float64)
    # rounding can take an error of about zero below 0
    return math.sqrt(max(0.0, float(np.sum(np.multiply(dg, d, out=dg)))))


DAMPING_LADDER = (1.0, 10.0, 100.0)


def _quantize_stage(
    W: np.ndarray, G: Optional[np.ndarray], cfg: QuantConfig, names: List[str]
) -> Tuple[QuantizedLinear, float]:
    """One solve for a stage's stacked weights, climbing the damping ladder.

    The stage's layers share G, hence the Hessian, so every rung fails or
    succeeds for all of them; a failure names the stage's first layer.
    Each rung damps a fresh 2 G; the Gram is built once, by the walk.
    """
    if cfg.method == "rtn":
        return rtn_quantize(W, cfg), cfg.damping_frac
    last: Optional[QuantizationError] = None
    for mult in DAMPING_LADDER:
        damp = cfg.damping_frac * mult
        if damp >= 1.0:
            break
        try:
            return gptq_quantize(W, G, replace(cfg, damping_frac=damp), names[0]), damp
        except QuantizationError as exc:
            last = exc
    raise QuantizationError(
        f"quantization failed for {', '.join(names)} after damping retries", layer=names[0]
    ) from last


def quantize_model(
    ckpt: Checkpoint,
    calib: Optional[CalibrationSet],
    cfg: QuantConfig,
) -> Tuple[QuantizedModel, List[LayerQuantStats]]:
    """Quantize every quantizable layer in forward order.

    With calibration data, one walk of the calibration batches through
    the blocks quantizes each stage (q/k/v, o, w1, w2) as soon as the Gram
    of its inputs exists; with propagate_quantized on, the walk carries on
    through the dequantized weights, so each layer's inputs see every
    earlier layer quantized. A stage's weights are stacked by rows and
    solved once, then split back into layers. Per-layer weight and
    reconstruction errors are returned.
    """
    # resolved at call time, so a replaced model.capture_layer_inputs applies
    from .model import capture_layer_inputs

    if cfg.method == "gptq" and (calib is None or not calib.batches):
        raise ConfigError("gptq quantization requires a non-empty calibration set")
    stats: List[LayerQuantStats] = []
    layers: Dict[str, QuantizedLinear] = {}
    propagating = cfg.propagate_quantized and cfg.method == "gptq"

    def quantize_stage(names: List[str], G: Optional[np.ndarray]) -> List[np.ndarray]:
        Ws = [ckpt.tensors[lname] for lname in names]
        q, damp_used = _quantize_stage(np.concatenate(Ws), G, cfg, names)
        carry, r0 = [], 0
        for lname, W in zip(names, Ws):
            r1 = r0 + W.shape[0]
            ql = QuantizedLinear(q.codes[r0:r1], q.scales[r0:r1], q.zeros[r0:r1],
                                 q.bits, q.group_size)
            what = dequantize(ql)
            rec = reconstruction_error(W, what, G) if G is not None else None
            stats.append(LayerQuantStats(lname, weight_error(W, what), rec, damp_used))
            layers[lname] = ql
            carry.append(what if propagating else W)
            r0 = r1
        return carry

    if calib is not None and calib.batches:
        capture_layer_inputs(ckpt, calib, quantize_stage)
    else:
        for lname in quantizable_layer_names(ckpt.config):
            quantize_stage([lname], None)
    passthrough = {k: v for k, v in ckpt.tensors.items() if k not in layers}
    qm = QuantizedModel(layers, passthrough, ckpt.config, ckpt.step, ckpt.tokens_seen, cfg)
    return qm, stats


def eval_checkpoint(qm: QuantizedModel, dtype=np.float32) -> Checkpoint:
    """Materialize a quantized model as a full-precision checkpoint for eval."""
    tensors = dict(qm.passthrough)
    for name, q in qm.layers.items():
        tensors[name] = dequantize(q).astype(dtype)
    return Checkpoint(tensors, step=qm.source_step, tokens_seen=qm.source_tokens, config=qm.config)


# -- serialization -------------------------------------------------------------

_QMETA = "__quant_meta__"


def save_quantized(path: str, qm: QuantizedModel, overwrite: bool = False) -> None:
    q = qm.quant
    arrays = {
        META: meta_entry(qm.config, qm.source_step, qm.source_tokens),
        _QMETA: np.array(
            [[q.bits, q.group_size, q.damping_frac, int(q.propagate_quantized),
              1.0 if q.method == "gptq" else 0.0, int(q.static_groups)]], dtype=np.float64
        ),
    }
    for name in sorted(qm.layers):
        ql = qm.layers[name]
        arrays[f"{name}.codes"] = store.Packed(ql.codes, ql.bits)
        arrays[f"{name}.scales"] = np.asarray(ql.scales, np.float32)
        arrays[f"{name}.zeros"] = np.asarray(ql.zeros, np.int32)
    for name in sorted(qm.passthrough):
        arrays[name] = np.asarray(qm.passthrough[name], np.float32)
    store.save_arrays(path, arrays, overwrite=overwrite)


def load_quantized(path: str) -> QuantizedModel:
    arrays = store.load_arrays(path)
    config, source_step, source_tokens = pop_meta(arrays, path)
    if _QMETA not in arrays:
        raise ConfigError(f"{path}: missing quantization metadata tensor")
    qv = arrays.pop(_QMETA)[0]
    qcfg = QuantConfig(
        bits=int(qv[0]), group_size=int(qv[1]), damping_frac=float(qv[2]),
        propagate_quantized=bool(qv[3]), method="gptq" if qv[4] else "rtn",
        static_groups=bool(qv[5]),
    )
    layers: Dict[str, QuantizedLinear] = {}
    for base in [n[: -len(".codes")] for n in arrays if n.endswith(".codes")]:
        packed = arrays.pop(f"{base}.codes")
        layers[base] = QuantizedLinear(
            packed.codes, arrays.pop(f"{base}.scales"), arrays.pop(f"{base}.zeros"),
            packed.bits, qcfg.group_size,
        )
    return QuantizedModel(layers, arrays, config, source_step, source_tokens, qcfg)
