import hashlib
import os

import pytest

from qlab.config import (
    MANIFEST,
    REGISTRY,
    canonical_text,
    defaults,
    load_manifest,
    load_plan,
    model_config,
    optim_config,
    parse_config_text,
    parse_value,
    quant_config,
    resolve,
    run_id_of,
    schedule_spec,
    write_manifest,
)
from qlab.errors import ConfigError


def test_parse_basic_types():
    cfg = parse_config_text(
        """
# comment line
optim.peak_lr = 1e-3  # trailing comment
optim.decoupled_wd = true
quant.bits = 3,4
model.d_model = 64
data.path = /tmp/x.bin
"""
    )
    assert cfg["optim.peak_lr"] == 1e-3
    assert cfg["optim.decoupled_wd"] is True
    assert cfg["quant.bits"] == (3, 4)
    assert cfg["model.d_model"] == 64
    assert cfg["data.path"] == "/tmp/x.bin"


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("optim.momentum = 0.9")


def test_malformed_line_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("optim.peak_lr 1e-3")


def test_bad_value_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("model.d_model = tiny")


def test_resolve_defaults_and_overrides():
    cfg = resolve("", overrides=["optim.peak_lr=1e-4"])
    assert cfg["optim.peak_lr"] == 1e-4
    assert cfg["schedule.kind"] == "wsd"
    assert cfg["quant.group_size"] == 128
    assert cfg["lawa.k"] == 5 and cfg["lawa.interval"] == 500


def test_run_id_deterministic_and_sensitive():
    a = resolve("", overrides=["data.path=/tmp/c.bin"])
    b = resolve("", overrides=["data.path=/tmp/c.bin"])
    assert run_id_of(a) == run_id_of(b)
    c = resolve("", overrides=["data.path=/tmp/c.bin", "optim.peak_lr=1e-4"])
    assert run_id_of(c) != run_id_of(a)
    # a branch's lineage, carried in its settings, is hashed after them
    branch = dict(a, **{"run.parent_id": "ff" * 8, "run.branch_step": 100})
    assert run_id_of(branch) == hashlib.sha256(
        (canonical_text(a) + f"parent = {'ff' * 8}@100\n").encode()).hexdigest()[:16]
    assert run_id_of(branch) != run_id_of(a)
    assert run_id_of(dict(branch, **{"run.branch_step": "100"})) == run_id_of(branch)


def test_canonical_text_round_trips():
    cfg = resolve("", overrides=["optim.peak_lr=0.0003", "quant.bits=3"])
    text = canonical_text(cfg)
    cfg2 = parse_config_text(text)
    assert cfg2["optim.peak_lr"] == cfg["optim.peak_lr"]
    assert cfg2["quant.bits"] == cfg["quant.bits"]
    assert canonical_text({**cfg, **cfg2}) == text


def test_dataclass_views():
    cfg = resolve("", overrides=[
        "schedule.total_steps=1000", "schedule.warmup_frac=0.01",
        "schedule.decay_frac=0.1", "model.d_model=64", "model.n_heads=4",
    ])
    spec = schedule_spec(cfg)
    assert spec.warmup_steps == 10 and spec.decay_steps == 100
    mc = model_config(cfg)
    assert mc.d_model == 64 and mc.seq_len == cfg["data.seq_len"]
    oc = optim_config(cfg)
    assert oc.beta2 == 0.95
    qc = quant_config(cfg, bits=3)
    assert qc.bits == 3 and qc.group_size == 128


def test_schedule_spec_cosine_has_no_decay_phase():
    cfg = resolve("", overrides=["schedule.kind=cosine", "schedule.total_steps=100"])
    spec = schedule_spec(cfg)
    assert spec.kind == "cosine" and spec.decay_steps == 0


def test_parse_value_types_and_errors():
    assert parse_value("quant.bits", " 3, 4") == (3, 4)
    assert parse_value("quant.propagate", "off") is False
    assert parse_value("sweep.optim.peak_lr", "1e-3, 3e-3") == [1e-3, 3e-3]
    assert parse_value("sweep.quant.propagate", "true, off") == [True, False]
    assert parse_value("sweep.seeds", "1, 2,") == [1, 2]
    for key, raw in [
        ("optim.momentum", "0.9"), ("model.d_model", "1.5"), ("optim.decoupled_wd", "maybe"),
        ("sweep.optim.peak_lr", "abc, 1e-3"), ("sweep.seeds", "1, x"),
        ("sweep.quant.bits", "3, 4"), ("sweep.optim.momentum", "1"), ("sweep.sweep.seeds", "1"),
    ]:
        with pytest.raises(ConfigError):
            parse_value(key, raw)


def test_defaults_are_the_registry_defaults():
    cfg = defaults()
    assert cfg == {k: d for k, (_, d) in REGISTRY.items()}
    cfg["optim.peak_lr"] = 1.0
    assert defaults()["optim.peak_lr"] == 3e-3
    assert resolve() == defaults()


def test_load_plan_cells_and_seed_rule(tmp_path):
    plan = tmp_path / "plan.cfg"
    plan.write_text(
        "schedule.total_steps = 20\n"
        "sweep.optim.peak_lr = 1e-3, 3e-3\n"
        "sweep.seeds = 7, 8\n"
        "sweep.quant.propagate = true, off\n"
    )
    plan_ = load_plan(str(plan))
    axes, cells = plan_.axes, plan_.cells
    assert axes == ["optim.peak_lr", "quant.propagate"]
    got = [(c["data.seed"], c["model.init_seed"], c["optim.peak_lr"], c["quant.propagate"])
           for c in cells]
    assert got == [
        (s, s, lr, prop) for s in (7, 8) for lr in (1e-3, 3e-3) for prop in (True, False)
    ]
    for c in cells:
        assert c["schedule.total_steps"] == 20
        assert set(c) == set(REGISTRY)


def test_load_plan_without_seeds_uses_seed_0(tmp_path):
    plan = tmp_path / "plan.cfg"
    plan.write_text("model.init_seed = 4\n")
    cell = dict(defaults(), **{"data.seed": 0, "model.init_seed": 0})
    got = load_plan(str(plan))
    assert (got.axes, got.cells) == ([], [cell])


@pytest.mark.parametrize("line", [
    "sweep.optim.peak_lr = abc, 1e-3", "sweep.seeds = 1, x", "sweep.quant.bits = 3, 4",
    "run.id = abc",
])
def test_load_plan_rejects_malformed_lines(tmp_path, line):
    plan = tmp_path / "plan.cfg"
    plan.write_text(f"schedule.total_steps = 20\n{line}\n")
    with pytest.raises(ConfigError, match="line 2"):
        load_plan(str(plan))


@pytest.mark.parametrize("line, message", [
    ("sweep.seeds = 1, 2, 1", "sweep.seeds names 1 twice"),
    ("sweep.optim.peak_lr = 1e-3, 0.001", "sweep.optim.peak_lr names 0.001 twice"),
    ("sweep.seeds =", "sweep.seeds names no value"),
    ("sweep.optim.peak_lr = ,", "sweep.optim.peak_lr names no value"),
    ("plan.bits = 3, 3", "plan.bits names 3 twice"),
    ("quant.bits = 4, 3, 4", "quant.bits names 4 twice"),  # plan.bits falls back to it
    ("plan.eval_steps = 6, 6", "plan.eval_steps names 6 twice"),
    ("plan.branch_steps = 6, 12, 6", "plan.branch_steps names 6 twice"),
    ("plan.lawa_steps = 12, 12", "plan.lawa_steps names 12 twice"),
])
def test_load_plan_refuses_an_empty_axis_and_a_value_named_twice(tmp_path, line, message):
    # a repeated cell, bit width or step would be run and judged twice, and
    # an empty axis leaves no cell
    plan = tmp_path / "plan.cfg"
    plan.write_text(f"{line}\n")
    with pytest.raises(ConfigError, match=message):
        load_plan(str(plan))


def test_manifest_written_atomically_and_read_back(tmp_path, monkeypatch):
    from qlab import store

    writes = []
    real = store.atomic_write
    monkeypatch.setattr(store, "atomic_write",
                        lambda path, data: (writes.append(path), real(path, data)))
    cfg = resolve("", overrides=["optim.peak_lr=1e-3"])
    write_manifest(str(tmp_path), cfg, {"run.id": "abc", "run.parent_id": "p"})
    path = os.path.join(str(tmp_path), MANIFEST)
    assert writes == [path]
    with open(path, "rb") as f:
        text = f.read()
    assert text == canonical_text({**cfg, "run.id": "abc", "run.parent_id": "p"},
                                  include_run=True).encode()
    manifest = load_manifest(str(tmp_path))
    assert manifest["run.id"] == "abc" and manifest["optim.peak_lr"] == 1e-3
    assert resolve(path) == manifest
    # a rewrite from a read manifest keeps only the run keys it is given
    write_manifest(str(tmp_path), manifest, {"run.id": "def"})
    again = load_manifest(str(tmp_path))
    assert again["run.id"] == "def" and "run.parent_id" not in again


def test_run_keys_refused_outside_manifests(tmp_path):
    other = tmp_path / "run.cfg"
    other.write_text("run.id = abc\n")
    with pytest.raises(ConfigError, match="manifest-only"):
        resolve(str(other))
    with pytest.raises(ConfigError, match="manifest-only"):
        resolve("", overrides=["run.id=abc"])
    with pytest.raises(ConfigError, match="not found"):
        load_manifest(str(tmp_path))
