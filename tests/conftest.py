import numpy as np
import pytest

from qlab.data import load_corpus, split
from qlab.model import ModelConfig


WORDS = [
    "the ", "quant ", "model ", "error ", "rate ", "decay ", "weight ", "loss ",
    "train ", "scale ", "bits ", "grid ", "norm ", "step ", "data ", "sharp ",
]


def make_corpus_bytes(n_words: int = 60000, seed: int = 0) -> bytes:
    rng = np.random.Generator(np.random.PCG64(seed))
    probs = rng.dirichlet(np.ones(len(WORDS)) * 0.6)
    return "".join(rng.choice(WORDS, size=n_words, p=probs)).encode()


@pytest.fixture(scope="session")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "corpus.bin"
    path.write_bytes(make_corpus_bytes())
    return str(path)


@pytest.fixture(scope="session")
def corpus_splits(corpus_path):
    stream = load_corpus(corpus_path)
    return split(stream, 0.1, 0.05, seed=0)


def tiny_model_config(**kw) -> ModelConfig:
    base = dict(
        vocab=256, d_model=32, n_layers=2, n_heads=2, d_ff=64,
        seq_len=32, init_seed=1, init_std=0.05,
    )
    base.update(kw)
    return ModelConfig(**base)


def lower_inverse_reference(L):
    """The allocating block recursion `ndkernel` inverted Cholesky factors
    with before it worked in place: a fresh array per level."""
    n = L.shape[0]
    if n <= 32:
        return np.linalg.inv(L)
    k = n // 2
    a_inv, d_inv = lower_inverse_reference(L[:k, :k]), lower_inverse_reference(L[k:, k:])
    out = np.zeros_like(L)
    out[:k, :k], out[k:, k:] = a_inv, d_inv
    out[k:, :k] = -(d_inv @ (L[k:, :k] @ a_inv))
    return out


def inverse_factor_reference(H):
    """U for GPTQ by the allocating chain: H^-1 from the reference inverse,
    symmetrised as (Hinv + Hinv.T) * 0.5, then its upper Cholesky factor."""
    from qlab.ndkernel import cholesky

    L_inv = lower_inverse_reference(cholesky(H))
    Hinv = L_inv.T @ L_inv
    return cholesky((Hinv + Hinv.T) * 0.5).T


def forward_stage_inputs(ck, batches) -> dict:
    """Stacked input rows of every quantizable layer, rebuilt from `forward` caches."""
    from qlab.model import forward

    rows = {}
    for batch in batches:
        _, cache = forward(ck, batch)
        for i, (attn, mlp) in enumerate(cache["layers"]):
            p = f"layers.{i}"
            a_in = attn["xhat"] * ck.tensors[f"{p}.norm1.g"]
            m_in = mlp["xhat"] * ck.tensors[f"{p}.norm2.g"]
            for name, a in ((f"{p}.attn.wq", a_in), (f"{p}.attn.wk", a_in),
                            (f"{p}.attn.wv", a_in), (f"{p}.attn.wo", attn["ctx"]),
                            (f"{p}.mlp.w1", m_in), (f"{p}.mlp.w2", mlp["gh1"])):
                rows.setdefault(name, []).append(a.reshape(-1, a.shape[-1]))
    return {n: np.concatenate(parts) for n, parts in rows.items()}


def stage_grams(ck, batches) -> dict:
    """Every quantizable layer's stage Gram as the calibration walk sums it:
    `quant.gram` of each shard's `forward` rows, added in shard order."""
    from qlab.data import Batch
    from qlab.model import _shards
    from qlab.quant import gram

    total = {}
    for batch in batches:
        for sl in _shards(*batch.inputs.shape):
            shard = Batch(batch.inputs[sl], batch.targets[sl])
            for name, X in forward_stage_inputs(ck, [shard]).items():
                if name in total:
                    total[name] += gram(X)
                else:
                    total[name] = gram(X)
    return total


def record_shards(monkeypatch) -> list:
    """Patches `model._shards` to append the shard count of every call to
    the returned list."""
    from qlab import model

    made, real = [], model._shards

    def record(B, S):
        got = real(B, S)
        made.append(len(got))
        return got

    monkeypatch.setattr(model, "_shards", record)
    return made


def micro_train_config(corpus: str, **overrides) -> dict:
    from qlab.config import parse_config_text, resolve

    text = f"""
data.path = {corpus}
data.seq_len = 32
data.val_fraction = 0.1
data.calib_fraction = 0.05
model.d_model = 32
model.n_layers = 2
model.n_heads = 2
model.d_ff = 64
model.init_std = 0.05
optim.peak_lr = 3e-3
schedule.kind = wsd
schedule.total_steps = 60
schedule.warmup_frac = 0.1
schedule.decay_frac = 0.2
train.batch_size = 4
train.ckpt_interval = 10
train.eval_interval = 20
train.log_interval = 10
eval.batches = 3
eval.batch_size = 4
quant.calib_samples = 8
quant.group_size = 32
"""
    cfg = resolve()
    cfg.update(parse_config_text(text))
    cfg.update(overrides)
    return cfg
