import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import forward_stage_inputs, tiny_model_config
from qlab.data import TokenStream, build_calibration
from qlab.errors import ConfigError, ContractViolation
from qlab.ndkernel import cholesky, spd_inverse
from qlab.model import init, quantizable_layer_names
from qlab.quant import (
    QuantConfig,
    QuantizedLinear,
    dequantize,
    eval_checkpoint,
    gptq_quantize,
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
    qg = gptq_quantize(W, X, cfg)
    qr = rtn_quantize(W, cfg)
    assert np.array_equal(qg.codes, qr.codes)
    assert np.array_equal(qg.scales, qr.scales)
    assert np.array_equal(qg.zeros, qr.zeros)


def test_gptq_identity_inputs_equals_rtn():
    rng = np.random.Generator(np.random.PCG64(5))
    W = rng.standard_normal((6, 32))
    cfg = QuantConfig(bits=4, group_size=8)
    qg = gptq_quantize(W, np.eye(32), cfg)
    qr = rtn_quantize(W, cfg)
    assert np.array_equal(qg.codes, qr.codes)
    assert np.array_equal(qg.scales, qr.scales)


def test_gptq_shape_validation():
    with pytest.raises(ContractViolation):
        gptq_quantize(np.ones((2, 4)), np.ones((3, 5)), QuantConfig(bits=4, group_size=2))


def test_gptq_beats_rtn_on_tiny_instances_majority():
    # at 4x4 with 8 calibration rows greedy clamping can occasionally lose,
    # but the win/tie rate stays high
    wins = 0
    cfg = QuantConfig(bits=3, group_size=4)
    for seed in range(100):
        r = np.random.Generator(np.random.PCG64(seed))
        W = r.standard_normal((4, 4))
        X = r.standard_normal((8, 4))
        eg = reconstruction_error(W, dequantize(gptq_quantize(W, X, cfg)), X)
        er = reconstruction_error(W, dequantize(rtn_quantize(W, cfg)), X)
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
        eg = reconstruction_error(W, dequantize(gptq_quantize(W, X, cfg)), X)
        er = reconstruction_error(W, dequantize(rtn_quantize(W, cfg)), X)
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
    Hinv = spd_inverse(H)
    U = cholesky((Hinv + Hinv.T) * 0.5).T
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
        q = gptq_quantize(W, X, cfg)
        codes, scales, zeros = reference_gptq(W, X, cfg)
        assert np.array_equal(q.codes, codes)
        assert np.array_equal(q.scales, scales)
        assert np.array_equal(q.zeros, zeros)


def test_gptq_dead_columns_zeroed():
    rng = np.random.Generator(np.random.PCG64(6))
    W = rng.standard_normal((3, 6))
    X = rng.standard_normal((12, 6))
    X[:, 2] = 0.0  # dead input feature
    cfg = QuantConfig(bits=4, group_size=3)
    q = gptq_quantize(W, X, cfg)
    What = dequantize(q)
    # a dead input column is pinned to zero, which the grid represents exactly
    assert np.all(What[:, 2] == 0.0)


def test_bits_monotonicity_majority():
    rng = np.random.Generator(np.random.PCG64(7))
    good = 0
    for _ in range(50):
        d_in = int(rng.integers(16, 97))
        W = rng.standard_normal((6, d_in))
        X = rng.standard_normal((2 * d_in, d_in))
        b = int(rng.integers(2, 8))
        errs = []
        for bb in (b, b + 1):
            cfg = QuantConfig(bits=bb, group_size=32)
            errs.append(reconstruction_error(W, dequantize(gptq_quantize(W, X, cfg)), X))
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
    assert reconstruction_error(W, W, X) == 0.0
    assert reconstruction_error(W, W + 1.0, np.zeros((7, 5))) == 0.0
    What = W + rng.standard_normal((3, 5)) * 0.1
    diff = X @ (W - What).T
    oracle = np.sqrt(sum(diff[i, j] ** 2 for i in range(7) for j in range(3)))
    got = reconstruction_error(W, What, X)
    assert abs(got - oracle) < 1e-12 * max(oracle, 1.0)


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
    # every stage input, and with it every reconstruction error, bitwise
    cfg = tiny_model_config(vocab=16, d_model=8, n_layers=2, n_heads=2, d_ff=16,
                            seq_len=6, init_seed=7, init_std=0.2)
    ck = init(cfg, dtype=np.float64)
    rng = np.random.Generator(np.random.PCG64(11))
    stream = TokenStream(rng.integers(0, 16, 6 * 6 + 7).astype(np.int32), vocab=16)
    calib = build_calibration(stream, 5, 6, batch_size=2)
    qm, stats = quantize_model(ck, calib, QuantConfig(bits=3, group_size=4))
    rows = forward_stage_inputs(eval_checkpoint(qm, dtype=np.float64), calib.batches)
    assert [s.name for s in stats] == quantizable_layer_names(cfg)
    for s in stats:
        What = dequantize(qm.layers[s.name])
        assert s.recon_error == reconstruction_error(ck.tensors[s.name], What, rows[s.name])


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
