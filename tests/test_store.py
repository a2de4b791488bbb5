import json

import numpy as np
import pytest

from mubench import (
    AdamHyper,
    Checkpoint,
    ModelLayout,
    OptimizerState,
    StateStore,
    init_params,
)
from mubench.errors import (
    InvalidArgument,
    NotFound,
    PolicyViolation,
    StoreCorruption,
    StoreVersionError,
)
from mubench.store import CHECKPOINT_SENTINEL, write_vector_file

LAYOUT = ModelLayout(4, (5,), 2)


def fresh_store(num_slices=4, threshold=3):
    return StateStore(
        layout=LAYOUT,
        num_slices=num_slices,
        threshold=threshold,
        n=100,
        batch_size=16,
        seeds={"train": 0},
        hyper=AdamHyper(),
        epochs_per_slice=1,
        phi=50.0,
    )


def make_checkpoint(i, seed=0):
    params = init_params(LAYOUT, seed + i)
    state = OptimizerState.fresh(LAYOUT)
    state.m[:] = np.float32(0.25) * (i + 1)
    state.step_count = 3 * i
    return Checkpoint(i, params, state, plan_version=0)


def test_checkpoint_roundtrip_in_memory():
    store = fresh_store()
    cp = make_checkpoint(2)
    store.put_checkpoint(cp)
    assert store.get_checkpoint(2).params.bits_equal(cp.params)


def test_checkpoint_indices_zero_through_s():
    store = fresh_store(num_slices=4)
    for i in range(5):
        store.put_checkpoint(make_checkpoint(i))
    assert sorted(store.checkpoints) == [0, 1, 2, 3, 4]
    with pytest.raises(InvalidArgument):
        store.put_checkpoint(make_checkpoint(5))


def test_get_missing_checkpoint():
    store = fresh_store(num_slices=4)
    with pytest.raises(NotFound):
        store.get_checkpoint(9)


def test_increment_roundtrip_and_consume_flag():
    store = fresh_store(threshold=3)
    delta = init_params(LAYOUT, 7)
    store.record_increment(1, 2, delta)
    rec = store.get_increment(1, 2)
    assert rec.delta.bits_equal(delta)
    assert rec.consumed is False
    assert store.mark_consumed(1, 2) is True
    assert store.mark_consumed(1, 2) is False  # reports already-consumed
    assert store.get_increment(1, 2).consumed is True


def test_record_at_or_above_threshold_rejected():
    store = fresh_store(threshold=3)
    with pytest.raises(PolicyViolation):
        store.record_increment(3, 1, init_params(LAYOUT, 0))


def test_get_missing_increment():
    store = fresh_store()
    with pytest.raises(NotFound):
        store.get_increment(1, 1)


def test_recorded_batch_lookup():
    store = fresh_store()
    store.set_recorded_batches(1, range(10, 30))  # batch size 16: 10..25, then 26..29
    assert store.recorded_batch_index(1, 25) == 1
    assert store.recorded_batch_index(1, 28) == 2
    with pytest.raises(NotFound):
        store.recorded_batch_index(1, 99)
    with pytest.raises(NotFound):
        store.recorded_batch_index(2, 10)


def populated_store():
    store = fresh_store(num_slices=2, threshold=2)
    for i in range(3):
        store.put_checkpoint(make_checkpoint(i, seed=40))
    store.record_increment(1, 1, init_params(LAYOUT, 91))
    store.record_increment(1, 2, init_params(LAYOUT, 92))
    store.mark_consumed(1, 2)
    store.set_recorded_batches(1, range(20))  # batch size 16: two batches
    store.set_tombstones([5, 9])
    store.dataset_fingerprint = "abc123"
    return store


def test_persist_load_bit_identical(tmp_path):
    store = populated_store()
    store.persist(tmp_path)
    loaded = StateStore.load(tmp_path)
    for i in range(3):
        a, b = loaded.get_checkpoint(i), store.get_checkpoint(i)
        assert a.params.bits_equal(b.params)
        assert np.array_equal(a.opt_state.m, b.opt_state.m)
        assert np.array_equal(a.opt_state.v, b.opt_state.v)
        assert a.opt_state.step_count == b.opt_state.step_count
    for key, rec in store.increments.items():
        got = loaded.get_increment(*key)
        assert got.delta.bits_equal(rec.delta)
        assert got.consumed == rec.consumed
    assert loaded.recorded_batches.keys() == store.recorded_batches.keys()
    for i, ids in store.recorded_batches.items():
        assert np.array_equal(loaded.recorded_batches[i], ids)
    assert loaded.tombstones == store.tombstones
    assert loaded.threshold == store.threshold
    assert loaded.dataset_fingerprint == "abc123"


def test_flipped_byte_reports_corruption_with_filename(tmp_path):
    store = populated_store()
    store.persist(tmp_path)
    victim = tmp_path / "checkpoint_0001.muck"
    raw = bytearray(victim.read_bytes())
    raw[40] ^= 0xFF  # somewhere in the payload
    victim.write_bytes(bytes(raw))
    with pytest.raises(StoreCorruption, match="checkpoint_0001.muck"):
        StateStore.load(tmp_path)


def test_manifest_version_99_rejected(tmp_path):
    store = populated_store()
    store.persist(tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    # version 1 kept each slice's recorded ids as nested per-batch lists
    manifest["recorded_batches"] = {"1": [list(range(16)), list(range(16, 20))]}
    for version in (99, 1):
        manifest["format_version"] = version
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreVersionError):
            StateStore.load(tmp_path)


def test_file_header_version_rejected(tmp_path):
    store = populated_store()
    store.persist(tmp_path)
    victim = tmp_path / "increment_0001_0001.muck"
    raw = bytearray(victim.read_bytes())
    raw[4] = 99  # u32 LE format version field
    # re-seal the CRC so only the version check can fire
    import struct
    import zlib

    body = bytes(raw[:-4])
    victim.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
    with pytest.raises(StoreVersionError):
        StateStore.load(tmp_path)


def test_missing_manifest(tmp_path):
    with pytest.raises(NotFound):
        StateStore.load(tmp_path / "nothing")


def test_checkpoint_sentinel_in_file(tmp_path):
    path = tmp_path / "x.muck"
    write_vector_file(path, 3, CHECKPOINT_SENTINEL, np.arange(4, dtype=np.float32))
    from mubench.store import read_vector_file

    si, bi, vec, _ = read_vector_file(path)
    assert (si, bi) == (3, CHECKPOINT_SENTINEL)
    assert np.array_equal(vec, np.arange(4, dtype=np.float32))


def test_clone_is_isolated():
    store = populated_store()
    dup = store.clone()
    dup.get_checkpoint(1).params.values[0] += 1.0
    dup.mark_consumed(1, 1)
    assert not store.get_increment(1, 1).consumed
    assert not store.get_checkpoint(1).params.bits_equal(dup.get_checkpoint(1).params)
