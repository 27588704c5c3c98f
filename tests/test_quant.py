import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import forward_stage_inputs, inverse_factor_reference, stage_grams, tiny_model_config
from qlab.data import TokenStream, build_calibration
from qlab.errors import ConfigError, ContractViolation, FactorizationError, QuantizationError
from qlab.model import capture_layer_inputs, init, quantizable_layer_names
from qlab.quant import (
    LAZY_BLOCK,
    QuantConfig,
    QuantizedLinear,
    dequantize,
    eval_checkpoint,
    gptq_quantize,
    gram,
    group_params,
    load_quantized,
    quantize_codes,
    quantize_model,
    reconstruction_error,
    rtn_quantize,
    save_quantized,
    weight_error,
)
from qlab.store import pack_codes, unpack_codes


# -- grids -----------------------------------------------------------------------


def dequant_rows(codes, scale, zero, bits):
    """`dequantize` of codes that hold one group per row."""
    return dequantize(QuantizedLinear(codes, scale[:, None], zero[:, None], bits, codes.shape[1]))


def test_group_params_exact_3bit_range():
    s, z = group_params(np.array([[0.0, 7.0]]), 3)
    assert s[0] == 1.0 and z[0] == 0


def test_group_params_symmetric_range():
    s, z = group_params(np.array([[-1.0, 1.0]]), 4)
    assert s[0] == np.float32(2.0 / 15.0)
    # zero point is the half-up rounding of -min/scale under the stored scale
    expected = np.floor(-(-1.0) / np.float64(s[0]) + 0.5)
    assert z[0] == int(expected)
    assert 0 <= z[0] <= 15


def test_group_params_constant_row():
    s, z = group_params(np.array([[5.0, 5.0, 5.0]]), 3)
    codes = quantize_codes(np.array([[5.0, 5.0, 5.0]]), s, z, 3)
    assert len(set(codes[0].tolist())) == 1
    deq = dequant_rows(codes, s, z, 3)
    assert np.max(np.abs(deq - 5.0)) < 5.0 * 1e-7  # within one f32 ulp of the scale
    # a constant whose scale is exactly representable reconstructs exactly
    s7, z7 = group_params(np.array([[7.0, 7.0]]), 3)
    c7 = quantize_codes(np.array([[7.0, 7.0]]), s7, z7, 3)
    assert np.all(dequant_rows(c7, s7, z7, 3) == 7.0)


def test_group_params_all_zero_sentinel():
    s, z = group_params(np.zeros((2, 4)), 3)
    assert np.all(s == 1.0) and np.all(z == 0)
    codes = quantize_codes(np.zeros((2, 4)), s, z, 3)
    assert np.all(codes == z[:, None])
    assert np.all(dequant_rows(codes, s, z, 3) == 0.0)


def test_midpoint_rounds_half_up():
    # scale 1, zero 0: a weight exactly between codes 0 and 1 rounds up
    s = np.array([1.0], dtype=np.float32)
    z = np.array([0], dtype=np.int32)
    c = quantize_codes(np.array([[0.5]]), s, z, 3)
    assert c[0, 0] == 1


# -- rtn ----------------------------------------------------------------------------


def test_rtn_on_own_grid_zero_error():
    rng = np.random.Generator(np.random.PCG64(0))
    for bits in (2, 3, 4, 8):
        cfg = QuantConfig(bits=bits, group_size=16, method="rtn")
        W = rng.standard_normal((6, 64))
        grid = dequantize(rtn_quantize(W, cfg))
        again = dequantize(rtn_quantize(grid, cfg))
        assert np.array_equal(grid, again)
        assert weight_error(grid, again) == 0.0


def test_rtn_grid_bound():
    rng = np.random.Generator(np.random.PCG64(1))
    W = rng.standard_normal((16, 256))
    cfg = QuantConfig(bits=4, group_size=128, method="rtn")
    q = rtn_quantize(W, cfg)
    What = dequantize(q)
    gi = np.arange(256) // 128
    smax = q.scales.astype(np.float64)[:, gi]
    assert np.all(np.abs(W - What) <= smax / 2 * (1 + 1e-12))


def test_rtn_rejects_nonfinite():
    with pytest.raises(ContractViolation):
        rtn_quantize(np.array([[np.nan, 1.0]]), QuantConfig(bits=4, group_size=2))


def test_ragged_last_group():
    rng = np.random.Generator(np.random.PCG64(2))
    W = rng.standard_normal((3, 10))
    cfg = QuantConfig(bits=4, group_size=4, method="rtn")
    q = rtn_quantize(W, cfg)
    assert q.scales.shape == (3, 3)
    assert dequantize(q).shape == (3, 10)


def test_scale_equivariance_power_of_two():
    rng = np.random.Generator(np.random.PCG64(3))
    W = rng.standard_normal((4, 64))
    cfg = QuantConfig(bits=4, group_size=16, method="rtn")
    q1 = rtn_quantize(W, cfg)
    q2 = rtn_quantize(4.0 * W, cfg)
    assert np.array_equal(q1.codes, q2.codes)
    assert np.array_equal(dequantize(q2), 4.0 * dequantize(q1))


# -- gptq ---------------------------------------------------------------------------


def test_gptq_single_column_equals_rtn():
    rng = np.random.Generator(np.random.PCG64(4))
    W = rng.standard_normal((5, 1))
    X = rng.standard_normal((7, 1))
    cfg = QuantConfig(bits=3, group_size=4)
    qg = gptq_quantize(W, gram(X), cfg)
    qr = rtn_quantize(W, cfg)
    assert np.array_equal(qg.codes, qr.codes)
    assert np.array_equal(qg.scales, qr.scales)
    assert np.array_equal(qg.zeros, qr.zeros)


def test_gptq_identity_inputs_equals_rtn():
    rng = np.random.Generator(np.random.PCG64(5))
    W = rng.standard_normal((6, 32))
    cfg = QuantConfig(bits=4, group_size=8)
    qg = gptq_quantize(W, gram(np.eye(32)), cfg)
    qr = rtn_quantize(W, cfg)
    assert np.array_equal(qg.codes, qr.codes)
    assert np.array_equal(qg.scales, qr.scales)


def test_gptq_shape_validation():
    with pytest.raises(ContractViolation):
        gptq_quantize(np.ones((2, 4)), gram(np.ones((3, 5))), QuantConfig(bits=4, group_size=2))
    with pytest.raises(ContractViolation):
        gptq_quantize(np.ones((2, 4)), np.ones((3, 4)), QuantConfig(bits=4, group_size=2))


def test_gptq_beats_rtn_on_tiny_instances_majority():
    # at 4x4 with 8 calibration rows greedy clamping can occasionally lose,
    # but the win/tie rate stays high
    wins = 0
    cfg = QuantConfig(bits=3, group_size=4)
    for seed in range(100):
        r = np.random.Generator(np.random.PCG64(seed))
        W = r.standard_normal((4, 4))
        X = r.standard_normal((8, 4))
        G = gram(X)
        eg = reconstruction_error(W, dequantize(gptq_quantize(W, G, cfg)), G)
        er = reconstruction_error(W, dequantize(rtn_quantize(W, cfg)), G)
        if eg <= er + 1e-9:
            wins += 1
    assert wins >= 85


def test_gptq_never_worse_at_realistic_widths():
    for seed in range(25):
        r = np.random.Generator(np.random.PCG64(100 + seed))
        b = int(r.choice([3, 4]))
        g = int(r.choice([4, 128]))
        d_out = int(r.integers(4, 17))
        d_in = int(r.integers(32, 257))
        mix = np.eye(d_in) + r.standard_normal((d_in, d_in)) / np.sqrt(d_in)
        X = r.standard_normal((2 * d_in, d_in)) @ mix
        W = r.standard_normal((d_out, d_in))
        cfg = QuantConfig(bits=b, group_size=g)
        G = gram(X)
        eg = reconstruction_error(W, dequantize(gptq_quantize(W, G, cfg)), G)
        er = reconstruction_error(W, dequantize(rtn_quantize(W, cfg)), G)
        assert eg <= er + 1e-9


def reference_gptq(W, X, cfg):
    """Per-column GPTQ, the oracle for the lazy-batch loop: each column's
    residual updates every later column before the next column is read."""
    d_out, d_in = W.shape
    g = cfg.group_size
    w, x = W.astype(np.float64), X.astype(np.float64)
    H = 2.0 * (x.T @ x)
    dead = np.diag(H) == 0.0
    H[dead, dead] = 1.0
    w[:, dead] = 0.0
    H[np.diag_indices(d_in)] += cfg.damping_frac * float(np.mean(np.diag(H)))
    U = inverse_factor_reference(H)
    static = [group_params(w[:, lo : lo + g], cfg.bits) for lo in range(0, d_in, g)]
    codes = np.empty((d_out, d_in), dtype=np.uint8)
    scales = np.empty((d_out, len(static)), dtype=np.float32)
    zeros = np.empty((d_out, len(static)), dtype=np.int32)
    for j in range(d_in):
        if j % g == 0:
            if cfg.static_groups:
                scale, zero = static[j // g]
            else:
                scale, zero = group_params(w[:, j : j + g], cfg.bits)
            scales[:, j // g], zeros[:, j // g] = scale, zero
        codes[:, j] = quantize_codes(w[:, j : j + 1], scale, zero, cfg.bits)[:, 0]
        deq = dequant_rows(codes[:, j : j + 1], scale, zero, cfg.bits)[:, 0]
        w[:, j + 1 :] -= np.outer((w[:, j] - deq) / U[j, j], U[j, j + 1 :])
    return codes, scales, zeros


@pytest.mark.parametrize("static_groups", [False, True])
@pytest.mark.parametrize("group_size", [48, 64, 96, 128, 200])
def test_gptq_lazy_batches_match_per_column_reference(group_size, static_groups):
    rng = np.random.Generator(np.random.PCG64(group_size))
    d_in = 300  # two lazy blocks or more, and a ragged last group, at every size
    mix = np.eye(d_in) + rng.standard_normal((d_in, d_in)) / np.sqrt(d_in)
    X = rng.standard_normal((2 * d_in, d_in)) @ mix
    X[:, [7, 150, 299]] = 0.0  # dead input features
    W = rng.standard_normal((5, d_in))
    for bits in (2, 3, 4, 8):
        cfg = QuantConfig(bits=bits, group_size=group_size, static_groups=static_groups)
        q = gptq_quantize(W, gram(X), cfg)
        codes, scales, zeros = reference_gptq(W, X, cfg)
        assert np.array_equal(q.codes, codes)
        assert np.array_equal(q.scales, scales)
        assert np.array_equal(q.zeros, zeros)


def lazy_gptq_reference(W, X, cfg, group_params=group_params):
    """The lazy-batch loop column by column on untransposed weights, one
    `quantize_codes` and one `np.outer` per column: the oracle for the
    transposed, in-place loop of `gptq_quantize`."""
    d_out, d_in = W.shape
    g = cfg.group_size
    n_groups = (d_in + g - 1) // g
    w64, x64 = W.astype(np.float64), X.astype(np.float64)
    H = 2.0 * (x64.T @ x64)
    dead = np.diag(H) == 0.0
    H[dead, dead] = 1.0
    w64[:, dead] = 0.0
    H[np.diag_indices(d_in)] += cfg.damping_frac * float(np.mean(np.diag(H)))
    U = inverse_factor_reference(H)
    codes = np.empty((d_out, d_in), dtype=np.uint8)
    scales = np.empty((d_out, n_groups), dtype=np.float32)
    zeros = np.empty((d_out, n_groups), dtype=np.int32)
    if cfg.static_groups:
        for gi in range(n_groups):
            scales[:, gi], zeros[:, gi] = group_params(w64[:, gi * g : (gi + 1) * g], cfg.bits)
    # batches of at most LAZY_BLOCK columns, each inside one group
    starts = {b for lo in range(0, d_in, g) for b in range(lo, min(lo + g, d_in), LAZY_BLOCK)}
    bounds = sorted(starts | {d_in})
    for b0, b1 in zip(bounds, bounds[1:]):
        errs = np.empty((d_out, b1 - b0))
        for j in range(b0, b1):
            gi = j // g
            if cfg.static_groups:
                scale, zero = scales[:, gi], zeros[:, gi]
            elif j % g == 0:
                scale, zero = group_params(w64[:, j : j + g], cfg.bits)
                scales[:, gi], zeros[:, gi] = scale, zero
            col = quantize_codes(w64[:, j : j + 1], scale, zero, cfg.bits)[:, 0]
            codes[:, j] = col
            deq = (col.astype(np.float64) - zero) * scale.astype(np.float64)
            err = errs[:, j - b0] = (w64[:, j] - deq) / U[j, j]
            w64[:, j + 1 : b1] -= np.outer(err, U[j, j + 1 : b1])
        w64[:, b1:] -= errs @ U[b0:b1, b1:]
    return codes, scales, zeros


def recording_group_params(seen):
    """`group_params` that first keeps a copy of the weights it is given."""

    def record(w, bits):
        seen.append(np.array(w, dtype=np.float64))
        return group_params(w, bits)

    return record


@pytest.mark.parametrize("static_groups", [False, True])
@pytest.mark.parametrize("group_size", [1, 48, 192])
def test_gptq_column_loop_matches_lazy_reference_bitwise(monkeypatch, group_size, static_groups):
    from qlab import quant

    rng = np.random.Generator(np.random.PCG64(1000 + group_size))
    # a ragged last group at sizes 48 and 192, batches of one column at 1, of
    # 32 and 16 at 48 and of 32 and a ragged 26 at 192
    d_in = 250
    mix = np.eye(d_in) + rng.standard_normal((d_in, d_in)) / np.sqrt(d_in)
    X = rng.standard_normal((2 * d_in, d_in)) @ mix
    X[:, [3, 130]] = 0.0  # dead input features
    W = rng.standard_normal((9, d_in)) * 0.05
    for bits in (2, 3, 4, 8):
        cfg = QuantConfig(bits=bits, group_size=group_size, static_groups=static_groups)
        # the weights each group's parameters come from carry every residual
        # applied so far, so they show any drift in the last bit
        got, want = [], []
        monkeypatch.setattr(quant, "group_params", recording_group_params(got))
        q = gptq_quantize(W, gram(X), cfg)
        codes, scales, zeros = lazy_gptq_reference(W, X, cfg, recording_group_params(want))
        assert len(got) == len(want) == -(-d_in // group_size)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert np.array_equal(q.codes, codes)
        assert np.array_equal(q.scales, scales)
        assert np.array_equal(q.zeros, zeros)
        assert q.codes.flags.c_contiguous


@pytest.mark.parametrize("d_in", [64, 192, 256])
def test_stacked_rows_quantize_as_each_layer_alone(monkeypatch, d_in):
    # a q/k/v stage at d_model 192 stacks three 192-row layers; only the
    # lazy-batch GEMM sees the stacked M, and it must not change a bit
    from qlab import quant

    rng = np.random.Generator(np.random.PCG64(d_in))
    X = rng.standard_normal((4 * d_in, d_in)).astype(np.float32)
    Ws = [(rng.standard_normal((192, d_in)) * 0.02).astype(np.float32) for _ in range(3)]
    for bits in (2, 3, 4, 8):
        cfg = QuantConfig(bits=bits, group_size=32)
        stacked_seen, seen = [], [[] for _ in Ws]
        monkeypatch.setattr(quant, "group_params", recording_group_params(stacked_seen))
        stacked = gptq_quantize(np.concatenate(Ws), gram(X), cfg)
        alone = []
        for W, layer_seen in zip(Ws, seen):
            monkeypatch.setattr(quant, "group_params", recording_group_params(layer_seen))
            alone.append(gptq_quantize(W, gram(X), cfg))
        for k, got in enumerate(stacked_seen):
            assert np.array_equal(got, np.concatenate([layer_seen[k] for layer_seen in seen]))
        for name in ("codes", "scales", "zeros"):
            want = np.concatenate([getattr(q, name) for q in alone])
            assert np.array_equal(getattr(stacked, name), want)


@pytest.mark.parametrize("n", (1, 31, 32, 33, 192, 250, 768))
def test_gptq_factor_matches_allocating_reference_bitwise(monkeypatch, n):
    # the reversed factorisation and its in-place inverse give the U of the
    # allocating chain, from the damped 2 X^T X built as before, bit for bit
    from qlab import quant

    rng = np.random.Generator(np.random.PCG64(n))
    X = rng.standard_normal((n + 8, n)).astype(np.float32)
    X[:, n // 2] = 0.0  # a dead column
    W = (rng.standard_normal((4, n)) * 0.1).astype(np.float32)
    hessians, factors = [], []
    real_inverse = quant.spd_inverse

    def record(h):
        hessians.append(h.copy())
        factors.append(real_inverse(h))
        return factors[-1]

    monkeypatch.setattr(quant, "spd_inverse", record)
    gptq_quantize(W, gram(X), QuantConfig(bits=3, group_size=32))
    x64 = X.astype(np.float64)
    H = 2.0 * (x64.T @ x64)
    H[n // 2, n // 2] = 1.0
    H[np.diag_indices(n)] += 0.01 * float(np.mean(np.diag(H)))
    assert len(hessians) == len(factors) == 1
    assert hessians[0].tobytes() == H.tobytes()
    assert factors[0].tobytes() == inverse_factor_reference(H).tobytes()


def test_gptq_dead_columns_zeroed():
    rng = np.random.Generator(np.random.PCG64(6))
    W = rng.standard_normal((3, 6))
    X = rng.standard_normal((12, 6))
    X[:, 2] = 0.0  # dead input feature
    cfg = QuantConfig(bits=4, group_size=3)
    q = gptq_quantize(W, gram(X), cfg)
    What = dequantize(q)
    # a dead input column is pinned to zero, which the grid represents exactly
    assert np.all(What[:, 2] == 0.0)


def test_bits_monotonicity_majority():
    rng = np.random.Generator(np.random.PCG64(7))
    good = 0
    for _ in range(50):
        d_in = int(rng.integers(16, 97))
        W = rng.standard_normal((6, d_in))
        G = gram(rng.standard_normal((2 * d_in, d_in)))
        b = int(rng.integers(2, 8))
        errs = []
        for bb in (b, b + 1):
            cfg = QuantConfig(bits=bb, group_size=32)
            errs.append(reconstruction_error(W, dequantize(gptq_quantize(W, G, cfg)), G))
        if errs[1] <= errs[0]:
            good += 1
    assert good >= 48


# -- dequantize / packing --------------------------------------------------------------


def test_dequantize_codes_at_zero_point():
    q = QuantizedLinear(
        codes=np.full((2, 8), 5, dtype=np.uint8),
        scales=np.full((2, 2), 0.25, dtype=np.float32),
        zeros=np.full((2, 2), 5, dtype=np.int32),
        bits=3,
        group_size=4,
    )
    assert np.all(dequantize(q) == 0.0)


def test_quantized_fixed_point():
    rng = np.random.Generator(np.random.PCG64(8))
    cfg = QuantConfig(bits=4, group_size=32, method="rtn")
    W = rng.standard_normal((8, 96)) * 2.5
    q = rtn_quantize(W, cfg)
    w1 = dequantize(q)
    q2 = rtn_quantize(w1, cfg)
    assert np.array_equal(dequantize(q2), w1)


def test_pack_roundtrip_exhaustive_3bit():
    grid = np.stack(np.meshgrid(*[np.arange(8)] * 4), axis=-1).reshape(-1, 4)
    codes = grid.astype(np.uint8)
    assert codes.shape == (4096, 4)
    assert np.array_equal(unpack_codes(pack_codes(codes, 3), 3, 4), codes)


@given(st.integers(2, 8), st.integers(1, 40), st.integers(1, 6), st.integers(0, 2**31))
@settings(max_examples=40, deadline=None)
def test_pack_roundtrip_random(bits, cols, rows, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    codes = rng.integers(0, 1 << bits, (rows, cols)).astype(np.uint8)
    packed = pack_codes(codes, bits)
    assert packed.shape == (rows, (cols * bits + 7) // 8)
    assert np.array_equal(unpack_codes(packed, bits, cols), codes)


@given(st.integers(0, 2**31))
@settings(max_examples=25, deadline=None)
def test_codes_fit_bit_width(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    bits = int(rng.integers(2, 9))
    W = rng.standard_normal((3, 24)) * np.exp(rng.normal())
    q = rtn_quantize(W, QuantConfig(bits=bits, group_size=8, method="rtn"))
    assert q.codes.max() < (1 << bits)


def test_reconstruction_error_cases():
    rng = np.random.Generator(np.random.PCG64(9))
    W = rng.standard_normal((3, 5))
    X = rng.standard_normal((7, 5))
    assert reconstruction_error(W, W, gram(X)) == 0.0
    assert reconstruction_error(W, W + 1.0, gram(np.zeros((7, 5)))) == 0.0
    What = W + rng.standard_normal((3, 5)) * 0.1
    diff = X @ (W - What).T
    oracle = np.sqrt(sum(diff[i, j] ** 2 for i in range(7) for j in range(3)))
    got = reconstruction_error(W, What, gram(X))
    assert abs(got - oracle) < 1e-12 * max(oracle, 1.0)


def test_reconstruction_error_gram_form_matches_residual_form():
    # GPTQ leaves its error where X^T X is small, the case where the Gram
    # form sum((D G) * D) cancels most; it stays within 1e-12 of ||X D^T||_F
    rng = np.random.Generator(np.random.PCG64(10))
    for _ in range(20):
        d_in = int(rng.integers(16, 257))
        mix = np.eye(d_in) + rng.standard_normal((d_in, d_in)) / np.sqrt(d_in)
        X = (rng.standard_normal((2 * d_in, d_in)) @ mix).astype(np.float32)
        W = rng.standard_normal((int(rng.integers(4, 33)), d_in)) * 0.05
        G = gram(X)
        for bits in (3, 4):
            What = dequantize(gptq_quantize(W, G, QuantConfig(bits=bits, group_size=32)))
            residual = np.linalg.norm(X.astype(np.float64) @ (W - What).T)
            assert abs(reconstruction_error(W, What, G) - residual) <= 1e-12 * residual


# -- model-level --------------------------------------------------------------------


def trained_ckpt(corpus_splits, steps=60, dtype=np.float32):
    from qlab.optim import OptimConfig, ScheduleSpec, init_opt_state, train_loop

    train, _, _ = corpus_splits
    cfg = tiny_model_config()
    ck = init(cfg, dtype=dtype)
    spec = ScheduleSpec("constant", 500, warmup_steps=10)
    ck, _, _ = train_loop(
        ck, init_opt_state(ck), train, 0, spec, OptimConfig(peak_lr=3e-3),
        batch_size=4, seq_len=cfg.seq_len, steps=steps,
    )
    return ck


def calib_from(corpus_splits, cfg, n=8):
    _, _, calib_stream = corpus_splits
    return build_calibration(calib_stream, n, cfg.seq_len, batch_size=4)


def test_quantize_model_rtn_ignores_calibration(corpus_splits):
    ck = trained_ckpt(corpus_splits, steps=20)
    cfg = QuantConfig(bits=4, group_size=32, method="rtn")
    calib_a = calib_from(corpus_splits, ck.config, n=4)
    _, _, calib_stream = corpus_splits
    other = TokenStream(calib_stream.tokens[::-1].copy(), vocab=256)
    calib_b = build_calibration(other, 4, ck.config.seq_len, batch_size=4)
    qa, _ = quantize_model(ck, calib_a, cfg)
    qb, _ = quantize_model(ck, calib_b, cfg)
    for name in qa.layers:
        assert np.array_equal(qa.layers[name].codes, qb.layers[name].codes)
        assert np.array_equal(qa.layers[name].scales, qb.layers[name].scales)


def test_quantize_model_high_bit_near_lossless(corpus_splits):
    from qlab.data import fixed_eval_batches
    from qlab.metrics import eval_ce, relative_ce_error

    ck = trained_ckpt(corpus_splits, steps=60)
    _, val, _ = corpus_splits
    batches = fixed_eval_batches(val, 3, 4, ck.config.seq_len)
    qm, _ = quantize_model(ck, None, QuantConfig(bits=8, group_size=1, method="rtn"))
    ce_fp = eval_ce(ck, batches)[0]
    ce_q = eval_ce(qm, batches)[0]
    assert abs(relative_ce_error(ce_q, ce_fp)) < 1e-3


def test_quantize_model_gptq_requires_calibration(corpus_splits):
    ck = trained_ckpt(corpus_splits, steps=5)
    with pytest.raises(ConfigError):
        quantize_model(ck, None, QuantConfig(bits=4, group_size=32, method="gptq"))


def test_quantize_model_propagation_changes_codes(corpus_splits):
    ck = trained_ckpt(corpus_splits, steps=40)
    calib = calib_from(corpus_splits, ck.config, n=8)
    on, _ = quantize_model(ck, calib, QuantConfig(bits=3, group_size=32, method="gptq"))
    off, _ = quantize_model(
        ck, calib, QuantConfig(bits=3, group_size=32, method="gptq", propagate_quantized=False)
    )
    first = quantizable_layer_names(ck.config)[0]
    assert np.array_equal(on.layers[first].codes, off.layers[first].codes)
    diffs = sum(
        not np.array_equal(on.layers[n].codes, off.layers[n].codes) for n in on.layers
    )
    assert diffs > 0


def test_quantize_model_emits_layer_stats(corpus_splits):
    ck = trained_ckpt(corpus_splits, steps=10)
    calib = calib_from(corpus_splits, ck.config, n=4)
    qm, stats = quantize_model(ck, calib, QuantConfig(bits=4, group_size=32, method="gptq"))
    names = quantizable_layer_names(ck.config)
    assert [s.name for s in stats] == names
    assert all(s.recon_error is not None and np.isfinite(s.weight_error) for s in stats)
    assert set(qm.layers) == set(names)


def test_quantize_model_recon_error_matches_quantized_forward():
    # a layer's calibration input depends only on earlier layers, all
    # quantized by then, so the fully dequantized model's forward rebuilds
    # every stage's Gram, the shard-order sum of its batches' (one shard
    # each), and with it every reconstruction error, bitwise
    cfg = tiny_model_config(vocab=16, d_model=8, n_layers=2, n_heads=2, d_ff=16,
                            seq_len=6, init_seed=7, init_std=0.2)
    ck = init(cfg, dtype=np.float64)
    rng = np.random.Generator(np.random.PCG64(11))
    stream = TokenStream(rng.integers(0, 16, 6 * 6 + 7).astype(np.int32), vocab=16)
    calib = build_calibration(stream, 5, 6, batch_size=2)
    qm, stats = quantize_model(ck, calib, QuantConfig(bits=3, group_size=4))
    quantized = eval_checkpoint(qm, dtype=np.float64)
    grams = stage_grams(quantized, calib.batches)
    rows = forward_stage_inputs(quantized, calib.batches)
    assert [s.name for s in stats] == quantizable_layer_names(cfg)
    for s in stats:
        W, What = ck.tensors[s.name], dequantize(qm.layers[s.name])
        assert s.recon_error == reconstruction_error(W, What, grams[s.name])
        # the Gram form against the residual form ||X (W - What)^T||_F
        residual = np.linalg.norm(rows[s.name] @ (W - What).T)
        assert abs(s.recon_error - residual) <= 1e-12 * residual


def random_calibration(cfg, n, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    stream = TokenStream(rng.integers(0, cfg.vocab, n * cfg.seq_len + 1).astype(np.int32),
                         vocab=cfg.vocab)
    return build_calibration(stream, n, cfg.seq_len, batch_size=2)


def per_layer_reference(ck, calib, cfg):
    """quantize_model's walk with one `gptq_quantize` per layer on its
    stage's G: {name: (QuantizedLinear, weight error, recon error)}."""
    out = {}

    def on_stage(names, G):
        carry = []
        for name in names:
            W = ck.tensors[name]
            q = gptq_quantize(W, G, cfg, name)
            What = dequantize(q)
            out[name] = (q, weight_error(W, What), reconstruction_error(W, What, G))
            carry.append(What if cfg.propagate_quantized else W)
        return carry

    capture_layer_inputs(ck, calib, on_stage)
    return out


STAGE_SHAPES = {
    "tiny": (dict(d_model=64, n_layers=4, n_heads=4, d_ff=256, seq_len=128), 64),
    "d192": (dict(d_model=192, n_layers=1, n_heads=6, d_ff=768, seq_len=64), 128),
}


@pytest.mark.parametrize("propagate", [True, False])
@pytest.mark.parametrize("shape", sorted(STAGE_SHAPES))
def test_stage_stacked_quantize_model_matches_per_layer_gptq(shape, propagate):
    dims, group_size = STAGE_SHAPES[shape]
    mcfg = tiny_model_config(init_std=0.02, **dims)
    ck = init(mcfg)
    calib = random_calibration(mcfg, 4)
    for bits in (3, 4):
        cfg = QuantConfig(bits=bits, group_size=group_size, propagate_quantized=propagate)
        qm, stats = quantize_model(ck, calib, cfg)
        ref = per_layer_reference(ck, calib, cfg)
        assert [s.name for s in stats] == quantizable_layer_names(mcfg)
        for s in stats:
            q, w_err, r_err = ref[s.name]
            got = qm.layers[s.name]
            assert np.array_equal(got.codes, q.codes)
            assert np.array_equal(got.scales, q.scales)
            assert np.array_equal(got.zeros, q.zeros)
            assert (s.weight_error, s.recon_error, s.damping_used) == (w_err, r_err, 0.01)


def test_stage_stacked_rtn_matches_per_layer_rtn():
    mcfg = tiny_model_config()
    ck = init(mcfg)
    cfg = QuantConfig(bits=3, group_size=16, method="rtn")
    qm, stats = quantize_model(ck, random_calibration(mcfg, 2), cfg)
    assert [s.name for s in stats] == quantizable_layer_names(mcfg)
    for name, got in qm.layers.items():
        want = rtn_quantize(ck.tensors[name], cfg)
        assert np.array_equal(got.codes, want.codes)
        assert np.array_equal(got.scales, want.scales)
        assert np.array_equal(got.zeros, want.zeros)


def failing_spd_inverse(monkeypatch, fails):
    """Replaces `quant.spd_inverse` with one that raises FactorizationError
    when `fails(call_index)`; returns the list of the matrices it was
    called with, copied on entry."""
    from qlab import quant

    calls, real = [], quant.spd_inverse

    def flaky(h):
        calls.append(h.copy())
        if fails(len(calls) - 1):
            raise FactorizationError(0, -1.0)
        return real(h)

    monkeypatch.setattr(quant, "spd_inverse", flaky)
    return calls


def test_stage_retries_with_more_damping_as_a_whole(monkeypatch):
    mcfg = tiny_model_config()
    ck, calib = init(mcfg), random_calibration(mcfg, 2)
    calls = failing_spd_inverse(monkeypatch, lambda i: i == 0)
    qm, stats = quantize_model(ck, calib, QuantConfig(bits=3, group_size=32))
    # one solve per stage (q/k/v, o, w1, w2 per block), plus the q/k/v retry
    assert len(calls) == 4 * mcfg.n_layers + 1
    damping = {s.name: s.damping_used for s in stats}
    for name in ("attn.wq", "attn.wk", "attn.wv"):
        assert damping.pop(f"layers.0.{name}") == 0.01 * 10.0
    assert set(damping.values()) == {0.01}
    # both rungs of block 0's q/k/v stage factorise the same undamped
    # 2 X^T X, damped at 0.01 and then 0.1 of its mean diagonal, and the
    # stage's codes are per-layer GPTQ's at 0.1
    # one batch of 2 sequences, one shard: G is gram(X) of forward's rows
    G = gram(forward_stage_inputs(ck, calib.batches)["layers.0.attn.wq"])
    H = 2.0 * G
    mean = float(np.mean(np.diag(H)))
    for h, damping in zip(calls[:2], (0.01, 0.1)):
        want = H.copy()
        want[np.diag_indices(len(H))] += damping * mean
        assert h.tobytes() == want.tobytes()
    for name in ("attn.wq", "attn.wk", "attn.wv"):
        name = f"layers.0.{name}"
        want = gptq_quantize(ck.tensors[name], G, QuantConfig(bits=3, group_size=32,
                                                              damping_frac=0.1))
        assert np.array_equal(qm.layers[name].codes, want.codes)
        assert np.array_equal(qm.layers[name].scales, want.scales)


def test_damping_retries_reuse_the_stage_gram(monkeypatch):
    # every stage fails its first rung: the walk still builds one Gram per
    # stage (one shard), and each rung inverts a freshly damped 2 G
    from qlab import quant

    mcfg = tiny_model_config()
    ck, calib = init(mcfg), random_calibration(mcfg, 2)
    built, real_gram = [], quant.gram
    monkeypatch.setattr(quant, "gram", lambda X: built.append(real_gram(X)) or built[-1])
    inverted, real_inverse = [], quant.spd_inverse

    def flaky(h):
        inverted.append((h, h.copy()))
        if len(inverted) % 2:
            raise FactorizationError(0, -1.0)
        return real_inverse(h)

    monkeypatch.setattr(quant, "spd_inverse", flaky)
    kept, real_stage = [], quant._quantize_stage

    def stage(W, G, cfg, names):
        kept.append((G, G.copy()))
        return real_stage(W, G, cfg, names)

    monkeypatch.setattr(quant, "_quantize_stage", stage)
    _, stats = quantize_model(ck, calib, QuantConfig(bits=3, group_size=32))
    stages = 4 * mcfg.n_layers
    assert len(built) == len(kept) == stages and len(inverted) == 2 * stages
    assert {s.damping_used for s in stats} == {0.01 * 10.0}
    for k, (G, before) in enumerate(kept):
        assert G is built[k] and np.array_equal(G, before)  # G is never overwritten
        H = 2.0 * before
        mean = float(np.mean(np.diag(H)))
        for (h, entry), damping in zip(inverted[2 * k : 2 * k + 2], (0.01, 0.1)):
            assert not np.shares_memory(h, G)
            want = H.copy()
            want[np.diag_indices(len(H))] += damping * mean
            assert entry.tobytes() == want.tobytes()


def test_stage_failing_every_rung_names_its_first_layer(monkeypatch):
    mcfg = tiny_model_config()
    ck, calib = init(mcfg), random_calibration(mcfg, 2)
    calls = failing_spd_inverse(monkeypatch, lambda i: True)
    with pytest.raises(QuantizationError) as info:
        quantize_model(ck, calib, QuantConfig(bits=3, group_size=32))
    assert info.value.layer == "layers.0.attn.wq"
    # damping 0.01 and 0.1; the 1.0 rung is out of range
    assert len(calls) == 2


def test_indefinite_hessian_names_first_layer_and_pivot_in_its_own_order():
    # the factorisation runs on the reversed Hessian, where the bad pivot of
    # 40 sits at 30; the error gives it at 9, as H orders its columns
    from qlab import quant

    G = np.eye(40)
    G[9, 9] = -1.0  # not lifted by damping at 0.01 or 0.1 of the mean diagonal
    W = np.random.Generator(np.random.PCG64(9)).standard_normal((6, 40))
    names = ["layers.0.attn.wq", "layers.0.attn.wk", "layers.0.attn.wv"]
    with pytest.raises(QuantizationError) as info:
        quant._quantize_stage(W, G, QuantConfig(bits=3, group_size=8), names)
    assert info.value.layer == names[0]
    rung = info.value.__cause__
    assert isinstance(rung, QuantizationError) and rung.layer == names[0]
    assert names[0] in str(rung) and "pivot at index 9 " in str(rung)
    assert isinstance(rung.__cause__, FactorizationError) and rung.__cause__.pivot == 9


def test_quantized_model_file_roundtrip(tmp_path, corpus_splits):
    ck = trained_ckpt(corpus_splits, steps=10)
    calib = calib_from(corpus_splits, ck.config, n=4)
    qm, _ = quantize_model(ck, calib, QuantConfig(bits=3, group_size=32, method="gptq"))
    path = str(tmp_path / "q.qlab")
    save_quantized(path, qm)
    back = load_quantized(path)
    assert back.quant == qm.quant
    assert back.config == qm.config
    for name in qm.layers:
        assert np.array_equal(back.layers[name].codes, qm.layers[name].codes)
        assert np.array_equal(back.layers[name].scales, qm.layers[name].scales)
        assert np.array_equal(back.layers[name].zeros, qm.layers[name].zeros)
    for name in qm.passthrough:
        assert np.array_equal(back.passthrough[name], qm.passthrough[name])


@pytest.mark.parametrize("dropped", ["__meta__", "__quant_meta__"])
def test_load_quantized_without_metadata_is_config_error(tmp_path, dropped):
    from qlab import store

    ck = init(tiny_model_config())
    qm, _ = quantize_model(ck, None, QuantConfig(bits=4, group_size=32, method="rtn"))
    path = str(tmp_path / "q.qlab")
    save_quantized(path, qm)
    arrays = store.load_arrays(path)
    del arrays[dropped]
    store.save_arrays(path, arrays, overwrite=True)
    with pytest.raises(ConfigError, match="missing"):
        load_quantized(path)


def test_quant_config_validation():
    with pytest.raises(ConfigError):
        QuantConfig(bits=1)
    with pytest.raises(ConfigError):
        QuantConfig(bits=9)
    with pytest.raises(ConfigError):
        QuantConfig(group_size=0)
    with pytest.raises(ConfigError):
        QuantConfig(method="awq")
