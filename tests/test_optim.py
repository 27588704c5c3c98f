import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import tiny_model_config
from qlab.errors import ConfigError, ContractViolation, NumericFailure
from qlab.model import Checkpoint, init
from qlab.optim import (
    OptimConfig,
    OptimState,
    ScheduleSpec,
    adamc_step,
    adamw_step,
    clip_grad_norm,
    init_opt_state,
    is_decay_exempt,
    schedule_value,
    train_loop,
)

CFG = tiny_model_config(vocab=16, d_model=8, n_layers=1, n_heads=2, d_ff=16, seq_len=6)


def scalar_ckpt(value=0.0):
    return Checkpoint({"w": np.full((1, 1), value, dtype=np.float64)}, 0, 0, CFG)


# -- schedules -----------------------------------------------------------------


def test_wsd_endpoints_exact():
    spec = ScheduleSpec("wsd", 1000, warmup_steps=10, decay_steps=100)
    assert schedule_value(spec, 3e-3, 0) == 0.0
    assert schedule_value(spec, 3e-3, 10) == 3e-3
    assert schedule_value(spec, 3e-3, 1000) == 0.0


def test_wsd_decays_to_min_lr():
    eta = 3e-3
    spec = ScheduleSpec("wsd", 200, warmup_steps=2, decay_steps=20, min_lr=0.1 * eta)
    values = [schedule_value(spec, eta, s) for s in range(180, 201)]
    assert values[-1] == 0.1 * eta
    assert abs(values[0] - eta) < 1e-12 * eta
    assert abs(values[10] - 0.55 * eta) < 1e-12 * eta
    assert all(a > b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("total,warmup,decay", [(2000, 20, 200), (997, 13, 101), (50, 4, 10)])
def test_wsd_default_min_lr_keeps_every_value(total, warmup, decay):
    """At the default min_lr of 0, every step is bitwise the linear decay
    to zero, written out."""
    eta = 3e-3
    spec = ScheduleSpec("wsd", total, warmup_steps=warmup, decay_steps=decay)
    for step in range(total + 1):
        if step <= warmup:
            want = eta * (step / warmup)
        elif step >= total - decay:
            want = eta * ((total - step) / decay)
        else:
            want = eta
        assert schedule_value(spec, eta, step).hex() == want.hex(), step


def test_wsd_stable_phase_value():
    spec = ScheduleSpec("wsd", 19000, warmup_steps=190, decay_steps=1900)
    for step in (191, 5000, 17100):
        assert schedule_value(spec, 3e-3, step) == 3e-3


def test_cosine_values():
    spec = ScheduleSpec("cosine", 100, warmup_steps=0)
    eta = 2e-3
    assert schedule_value(spec, eta, 0) == eta
    mid = schedule_value(spec, eta, 50)
    assert abs(mid - 0.5 * eta) < 1e-12 * eta
    assert mid == 0.5 * (eta - 0.0) * (1.0 + math.cos(math.pi * 0.5))
    assert schedule_value(spec, eta, 100) == 0.0


def test_cosine_floor():
    spec = ScheduleSpec("cosine", 100, warmup_steps=0, min_lr=1e-4)
    assert schedule_value(spec, 1e-3, 100) == 1e-4


def test_schedule_continuity_at_boundaries():
    eta = 3e-3
    spec = ScheduleSpec("wsd", 997, warmup_steps=13, decay_steps=101)
    assert abs(schedule_value(spec, eta, 13) - eta) < 1e-12 * eta
    assert abs(schedule_value(spec, eta, 997 - 101) - eta) < 1e-12 * eta
    cos = ScheduleSpec("cosine", 500, warmup_steps=11)
    assert abs(schedule_value(cos, eta, 11) - eta) < 1e-12 * eta


def test_schedule_out_of_range():
    spec = ScheduleSpec("wsd", 100, warmup_steps=10, decay_steps=10)
    with pytest.raises(ContractViolation):
        schedule_value(spec, 1e-3, 101)


def test_schedule_spec_validation():
    with pytest.raises(ConfigError):
        ScheduleSpec("wsd", 100, warmup_steps=60, decay_steps=60)
    with pytest.raises(ConfigError):
        ScheduleSpec("nope", 10)
    # an empty schedule, or a negative phase that would never start
    for kind, total, warmup, decay in [
        ("wsd", 0, 0, 0), ("constant", -5, 0, 0), ("cosine", 0, 0, 0),
        ("wsd", 10, 0, -3), ("wsd", 10, -1, 2), ("constant", 10, -1, 0),
    ]:
        with pytest.raises(ConfigError):
            ScheduleSpec(kind, total, warmup_steps=warmup, decay_steps=decay)


@given(st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_schedule_monotone_in_decay(step):
    spec = ScheduleSpec("wsd", 2**16, warmup_steps=100, decay_steps=2**14)
    eta = schedule_value(spec, 1e-3, step)
    assert 0.0 <= eta <= 1e-3


# -- clipping ------------------------------------------------------------------


def test_clip_below_threshold():
    g = {"a": np.array([[0.3, 0.4]])}
    out, norm = clip_grad_norm(g, 1.0)
    assert norm == 0.5
    assert out["a"] is g["a"]


def test_clip_scales_to_norm():
    g = {"a": np.array([[4.0, 0.0]]), "b": np.zeros((1, 1))}
    out, norm = clip_grad_norm(g, 1.0)
    assert norm == 4.0
    assert np.allclose(out["a"], [[1.0, 0.0]])
    total = math.sqrt(sum(float(np.sum(v**2)) for v in out.values()))
    assert abs(total - 1.0) < 1e-12


def test_clip_norm_matches_concatenation_oracle():
    rng = np.random.Generator(np.random.PCG64(0))
    g = {f"t{i}": rng.standard_normal((3, 4)) for i in range(5)}
    flat = np.concatenate([v.reshape(-1) for v in g.values()])
    _, norm = clip_grad_norm(g, 1e9)
    assert abs(norm - np.linalg.norm(flat)) < 1e-12 * norm


def test_clip_rejects_nonfinite():
    with pytest.raises(NumericFailure):
        clip_grad_norm({"a": np.array([[np.inf]])}, 1.0)


# -- adam steps ------------------------------------------------------------------


def test_adamw_noop_without_gradient_or_decay():
    ck = scalar_ckpt(1.5)
    cfg = OptimConfig(peak_lr=0.1, weight_decay=0.0)
    ck2, st = adamw_step(ck, init_opt_state(ck), {"w": np.zeros((1, 1))}, 0.1, cfg)
    assert ck2.tensors["w"][0, 0] == 1.5
    assert st.t == 1


def test_adamw_single_scalar_closed_form():
    ck = scalar_ckpt(0.0)
    cfg = OptimConfig(peak_lr=0.1, beta1=0.9, beta2=0.95, eps=0.0, weight_decay=0.0)
    ck2, _ = adamw_step(ck, init_opt_state(ck), {"w": np.ones((1, 1))}, 0.1, cfg)
    assert abs(ck2.tensors["w"][0, 0] - (-0.1)) < 1e-12


def test_adamw_pure_decay():
    ck = scalar_ckpt(1.0)
    cfg = OptimConfig(peak_lr=0.01, weight_decay=0.1)
    ck2, _ = adamw_step(ck, init_opt_state(ck), {"w": np.zeros((1, 1))}, 0.01, cfg)
    assert abs(ck2.tensors["w"][0, 0] - 0.999) < 1e-15


def test_adamw_decoupled_decay():
    ck = scalar_ckpt(1.0)
    cfg = OptimConfig(peak_lr=0.01, weight_decay=0.1, decoupled_wd=True)
    ck2, _ = adamw_step(ck, init_opt_state(ck), {"w": np.zeros((1, 1))}, 0.01, cfg)
    assert abs(ck2.tensors["w"][0, 0] - 0.9) < 1e-15


def test_decay_exemptions():
    assert is_decay_exempt("embed.tok")
    assert is_decay_exempt("layers.0.norm1.g")
    assert not is_decay_exempt("layers.0.attn.wq")
    assert not is_decay_exempt("unembed")
    ck = Checkpoint({"embed.tok": np.ones((1, 1))}, 0, 0, CFG)
    cfg = OptimConfig(peak_lr=0.01, weight_decay=0.1)
    ck2, _ = adamw_step(ck, init_opt_state(ck), {"embed.tok": np.zeros((1, 1))}, 0.01, cfg)
    assert ck2.tensors["embed.tok"][0, 0] == 1.0


def test_adamc_equals_adamw_at_peak_bitwise():
    rng = np.random.Generator(np.random.PCG64(1))
    ck = Checkpoint(
        {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal((2, 2))}, 0, 0, CFG
    )
    g = {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal((2, 2))}
    cfg = OptimConfig(peak_lr=3e-3, weight_decay=0.1)
    w, _ = adamw_step(ck, init_opt_state(ck), g, 3e-3, cfg)
    c, _ = adamc_step(ck, init_opt_state(ck), g, 3e-3, cfg)
    for k in w.tensors:
        assert np.array_equal(w.tensors[k], c.tensors[k])


def test_adamc_decay_scales_with_lr():
    cfg = OptimConfig(peak_lr=3e-3, weight_decay=0.1)
    gz = {"w": np.zeros((1, 1))}
    ck = scalar_ckpt(1.0)
    wa, _ = adamw_step(ck, init_opt_state(ck), gz, 1.5e-3, cfg)
    wc, _ = adamc_step(ck, init_opt_state(ck), gz, 1.5e-3, cfg)
    dec_a = 1.0 - wa.tensors["w"][0, 0]
    dec_c = 1.0 - wc.tensors["w"][0, 0]
    assert abs(dec_c - 0.5 * dec_a) < 1e-9 * dec_a


def test_adamc_zero_decay_equals_adamw_everywhere():
    rng = np.random.Generator(np.random.PCG64(2))
    ck = Checkpoint({"a": rng.standard_normal((2, 3))}, 0, 0, CFG)
    g = {"a": rng.standard_normal((2, 3))}
    cfg = OptimConfig(peak_lr=3e-3, weight_decay=0.0)
    for eta in (3e-3, 1e-3, 1e-5):
        w, _ = adamw_step(ck, init_opt_state(ck), g, eta, cfg)
        c, _ = adamc_step(ck, init_opt_state(ck), g, eta, cfg)
        assert np.array_equal(w.tensors["a"], c.tensors["a"])


def test_pure_decay_linear_in_weights():
    cfg = OptimConfig(peak_lr=0.01, weight_decay=0.3)
    gz = {"w": np.zeros((1, 1))}
    base, _ = adamw_step(scalar_ckpt(1.0), init_opt_state(scalar_ckpt(1.0)), gz, 0.01, cfg)
    scaled, _ = adamw_step(scalar_ckpt(4.0), init_opt_state(scalar_ckpt(4.0)), gz, 0.01, cfg)
    assert scaled.tensors["w"][0, 0] == 4.0 * base.tensors["w"][0, 0]


# -- training loop ------------------------------------------------------------------


def _stream(n=6000, vocab=16, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.integers(0, vocab, n).astype(np.uint8)


def test_train_loop_zero_steps_identity():
    ck = init(CFG)
    spec = ScheduleSpec("constant", 10, warmup_steps=2)
    out, st, cur = train_loop(
        ck, init_opt_state(ck), _stream(), 0, spec, OptimConfig(), 2, 6, 0
    )
    for k in ck.tensors:
        assert np.array_equal(out.tensors[k], ck.tensors[k])
    assert cur == 0 and st.t == 0


def test_train_loop_resume_matches_unbroken():
    stream = _stream()
    spec = ScheduleSpec("wsd", 40, warmup_steps=4, decay_steps=8)
    ocfg = OptimConfig(peak_lr=1e-3)

    ck = init(CFG)
    full, st_full, cur_full = train_loop(
        ck, init_opt_state(ck), stream, 0, spec, ocfg, 2, 6, 40
    )

    ck = init(CFG)
    half, st_half, cur_half = train_loop(
        ck, init_opt_state(ck), stream, 0, spec, ocfg, 2, 6, 20
    )
    resumed, st_res, cur_res = train_loop(
        half, st_half, stream, cur_half, spec, ocfg, 2, 6, 20
    )
    assert cur_res == cur_full and st_res.t == st_full.t
    for k in full.tensors:
        assert np.array_equal(resumed.tensors[k], full.tensors[k])
    for k in full.tensors:
        assert np.array_equal(st_res.m[k], st_full.m[k])
        assert np.array_equal(st_res.v[k], st_full.v[k])


def test_constant_plus_cooldown_equals_single_wsd():
    # trunk at constant lr for 30 steps, then a 10-step linear cooldown,
    # must match the single wsd run with the same total step-for-step
    stream = _stream(seed=3)
    ocfg = OptimConfig(peak_lr=2e-3)
    const = ScheduleSpec("constant", 40, warmup_steps=4)
    wsd = ScheduleSpec("wsd", 40, warmup_steps=4, decay_steps=10)

    ck = init(CFG)
    trunk, st, cur = train_loop(ck, init_opt_state(ck), stream, 0, const, ocfg, 2, 6, 30)
    branched, _, _ = train_loop(trunk, st, stream, cur, wsd, ocfg, 2, 6, 10)

    ck = init(CFG)
    single, _, _ = train_loop(ck, init_opt_state(ck), stream, 0, wsd, ocfg, 2, 6, 40)
    for k in single.tensors:
        assert np.array_equal(branched.tensors[k], single.tensors[k])


def test_train_loop_weight_norm_positive_finite():
    from qlab.ndkernel import frobenius_norm
    from qlab.optim import TrainHook

    ck = init(CFG)
    norms = []
    hook = TrainHook(5, lambda ev: norms.append(frobenius_norm(*ev.ckpt.tensors.values())))
    spec = ScheduleSpec("constant", 20, warmup_steps=2)
    train_loop(ck, init_opt_state(ck), _stream(), 0, spec, OptimConfig(), 2, 6, 20, [hook])
    assert len(norms) == 4
    assert all(np.isfinite(n) and n > 0 for n in norms)
