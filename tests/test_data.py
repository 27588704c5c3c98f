import os

import numpy as np
import pytest

from qlab import store
from qlab.config import resolve
from qlab.data import (
    build_calibration,
    fixed_eval_batches,
    load_corpus,
    next_batch,
    split,
    token_fingerprint,
    window_count,
)
from qlab.errors import ConfigError, IngestionError


def test_load_corpus_ascii(tmp_path):
    p = tmp_path / "c.bin"
    p.write_bytes(b"abc")
    assert load_corpus(str(p)).tolist() == [97, 98, 99]


def test_load_corpus_is_the_files_bytes(tmp_path):
    p = tmp_path / "c.bin"
    raw = bytes(range(256)) * 3
    p.write_bytes(raw)
    tokens = load_corpus(str(p))
    assert tokens.dtype == np.uint8 and tokens.ndim == 1
    assert tokens.tobytes() == raw


def test_load_corpus_limit(tmp_path):
    p = tmp_path / "c.bin"
    p.write_bytes(b"abc")
    assert load_corpus(str(p), limit=2).tolist() == [97, 98]


def test_load_corpus_mib(tmp_path):
    p = tmp_path / "big.bin"
    rng = np.random.Generator(np.random.PCG64(0))
    p.write_bytes(rng.integers(0, 256, 1 << 20, dtype=np.uint8).tobytes())
    stream = load_corpus(str(p))
    assert len(stream) == 1 << 20
    assert int(stream.max()) < 256


def test_load_corpus_errors(tmp_path):
    with pytest.raises(IngestionError):
        load_corpus(str(tmp_path / "missing.bin"))
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    with pytest.raises(IngestionError):
        load_corpus(str(empty))


def _stream(n, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.integers(0, 256, n).astype(np.uint8)


def test_split_sizes():
    train, val, calib = split(_stream(100), 0.1, 0.1, seed=1)
    assert (len(train), len(val), len(calib)) == (80, 10, 10)
    assert train.dtype == val.dtype == calib.dtype == np.uint8


def test_split_deterministic():
    s = _stream(500)
    a = split(s, 0.1, 0.1, seed=7)
    b = split(s, 0.1, 0.1, seed=7)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_split_seed_changes_offsets():
    s = _stream(5000)
    vals = [split(s, 0.1, 0.1, seed=k)[1].tobytes() for k in range(10)]
    assert len(set(vals)) == 10


def test_split_disjoint_and_covering():
    s = _stream(200)
    train, val, calib = split(s, 0.1, 0.1, seed=3)
    together = np.sort(np.concatenate([train, val, calib]))
    assert np.array_equal(together, np.sort(s))


def test_split_bad_fractions():
    s = _stream(50)
    for bad in ((0.0, 0.1), (0.5, 0.5), (-0.1, 0.2)):
        with pytest.raises(ConfigError):
            split(s, *bad, seed=0)


def test_next_batch_shifted_window():
    s = np.arange(10, dtype=np.uint8)
    b, cur = next_batch(s, 1, 4, 0)
    assert b.inputs.tolist() == [[0, 1, 2, 3]]
    assert b.targets.tolist() == [[1, 2, 3, 4]]
    assert cur == 1


def test_next_batch_no_overlap():
    s = _stream(1000)
    b1, cur = next_batch(s, 2, 16, 0)
    b2, cur = next_batch(s, 2, 16, cur)
    flat1 = b1.inputs.reshape(-1)
    flat2 = b2.inputs.reshape(-1)
    assert np.array_equal(flat1, s[:32])
    assert np.array_equal(flat2, s[32:64])


def test_epoch_covers_every_window_once():
    n, seq = 1003, 16
    s = _stream(n)
    windows = window_count(s, seq)
    assert windows == (n - 1) // seq
    seen = []
    cur = 0
    for _ in range(windows):
        b, cur = next_batch(s, 1, seq, cur)
        seen.append(b.inputs[0].copy())
    stacked = np.concatenate(seen)
    assert np.array_equal(stacked, s[: windows * seq])
    # wrap restarts the same sequence
    b, cur = next_batch(s, 1, seq, cur)
    assert np.array_equal(b.inputs[0], s[:seq])


def test_calibration_counts_and_eval_batches():
    s = _stream(4000)
    calib = build_calibration(s, sample_count=10, seq_len=16, batch_size=4)
    assert [b.inputs.shape[0] for b in calib] == [4, 4, 2]
    assert sum(b.inputs.shape[0] for b in calib) == 10
    ev = fixed_eval_batches(s, n_batches=3, batch_size=4, seq_len=16)
    assert len(ev) == 3
    again = fixed_eval_batches(s, n_batches=3, batch_size=4, seq_len=16)
    for a, b in zip(ev, again):
        assert np.array_equal(a.inputs, b.inputs)
    with pytest.raises(ConfigError):
        build_calibration(_stream(100), sample_count=50, seq_len=16)
    for n_batches, batch_size in ((0, 4), (3, 0), (-1, 4)):
        with pytest.raises(ConfigError):
            fixed_eval_batches(s, n_batches=n_batches, batch_size=batch_size, seq_len=16)


def test_token_fingerprint_hashes_ids_as_int32():
    s = _stream(4000)
    narrow = fixed_eval_batches(s, 3, 4, 16)
    wide = fixed_eval_batches(s.astype(np.int32), 3, 4, 16)
    assert narrow[0].inputs.dtype == np.uint8
    assert token_fingerprint(narrow) == token_fingerprint(wide)


@pytest.mark.parametrize("profile", ["tiny", "desk"])
def test_token_fingerprint_equals_per_array_chain(profile):
    cfg = resolve(os.path.join(os.path.dirname(__file__), os.pardir, "configs", f"{profile}.cfg"))
    n, rows, seq = cfg["eval.batches"], cfg["eval.batch_size"], cfg["data.seq_len"]
    batches = fixed_eval_batches(_stream(n * rows * (seq + 1) + 1), n, rows, seq)
    h = store.FNV_OFFSET
    for b in batches:
        h = store.fnv1a64(np.ascontiguousarray(b.inputs, dtype=np.int32).tobytes(), h)
        h = store.fnv1a64(np.ascontiguousarray(b.targets, dtype=np.int32).tobytes(), h)
    assert token_fingerprint(batches) == f"{h:016x}"
