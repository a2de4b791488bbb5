import json
from dataclasses import replace

import numpy as np
import pytest

from mubench import (
    AdamHyper,
    Checkpoint,
    ModelLayout,
    OptimizerState,
    StateStore,
    UnlearnEngine,
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


def deltas(*seeds):
    """One delta row per seed, each a set of initial parameters."""
    return np.stack([init_params(LAYOUT, seed).values for seed in seeds])


def test_increment_roundtrip_and_consume_flag():
    store = fresh_store(threshold=3)
    delta = init_params(LAYOUT, 7)
    store.record_increment(1, range(20), deltas(6, 7))  # batch size 16: two batches
    assert store.get_increment(1, 2).bits_equal(delta)
    assert not store.ledgers[1].consumed[1]
    assert store.mark_consumed(1, 2) is True
    assert store.mark_consumed(1, 2) is False  # reports already-consumed
    assert store.ledgers[1].consumed.tolist() == [False, True]


def test_record_at_or_above_threshold_rejected():
    store = fresh_store(threshold=3)
    with pytest.raises(PolicyViolation):
        store.record_increment(3, range(16), deltas(0))


def test_get_missing_increment():
    store = fresh_store()
    with pytest.raises(NotFound):
        store.get_increment(1, 1)


def test_recorded_batch_lookup():
    store = fresh_store()
    store.record_increment(1, range(10, 30), deltas(0, 1))  # 10..25, then 26..29
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
    store.record_increment(1, range(20), deltas(91, 92))  # batch size 16: two batches
    store.mark_consumed(1, 2)
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
    assert loaded.ledgers.keys() == store.ledgers.keys()
    for i, ledger in store.ledgers.items():
        got = loaded.ledgers[i]
        assert np.array_equal(got.ids, ledger.ids)
        assert np.array_equal(got.deltas.view(np.uint32), ledger.deltas.view(np.uint32))
        assert np.array_equal(got.consumed, ledger.consumed)
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
    # version 2 kept one increment file per batch; version 1 also kept each
    # slice's recorded ids as nested per-batch lists
    manifest["recorded_batches"] = {"1": [list(range(16)), list(range(16, 20))]}
    for version in (99, 2, 1):
        manifest["format_version"] = version
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreVersionError):
            StateStore.load(tmp_path)


def _drop(key):
    return lambda m: m.pop(key)


def _set(key, value):
    return lambda m: m.update({key: value})


def _ledger_entry(edit):
    return lambda m: edit(m["ledgers"][0])


@pytest.mark.parametrize(
    "edit,match",
    [
        (_drop("S"), "manifest.json: missing field 'S'"),
        (_set("tombstones", ["x"]), "manifest.json: malformed .*'x'"),
        (_set("batch_size", 0), "manifest.json: batch_size must be positive"),
        (_set("seeds", {}), "manifest.json: missing field 'train'"),
        (_set("layout", []), "manifest.json: malformed"),
        (_set("l", 1), "manifest.json: malformed .*slices below 1"),
        (_ledger_entry(_set("ids", "abc")), "manifest.json: malformed .*'abc'"),
        (_ledger_entry(_drop("consumed")), "manifest.json: missing field 'consumed'"),
        (_ledger_entry(_set("ids", list(range(40)))), "ledger_0001.muck: 2 delta rows for 40 ids"),
        (_ledger_entry(_set("consumed", [False])), "ledger_0001.muck: .* and 1 consumed flags"),
    ],
    ids=[
        "no_S", "tombstone_string", "batch_size_zero", "no_train_seed", "layout_list",
        "threshold_one", "ids_string", "no_consumed", "rows_short_of_ids", "rows_past_consumed",
    ],
)
def test_damaged_manifest_reports_corruption(tmp_path, edit, match):
    populated_store().persist(tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    edit(manifest)
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(StoreCorruption, match=match):
        StateStore.load(tmp_path)


def test_one_ledger_file_per_recorded_slice(tiny_dataset, tiny_config, tmp_path):
    config = replace(tiny_config, phi=0.0)  # phi = 0 records every slice
    engine = UnlearnEngine.train(tiny_dataset, config)
    engine.store.persist(tmp_path)
    slices = range(1, config.num_slices + 1)
    assert sorted(engine.store.ledgers) == list(slices)
    assert sorted(p.name for p in tmp_path.glob("ledger_*")) == [
        f"ledger_{i:04d}.muck" for i in slices
    ]
    assert not list(tmp_path.glob("increment_*"))


def test_persist_removes_files_the_manifest_no_longer_names(tiny_dataset, tiny_config, tmp_path):
    """A phi > 0 store persisted over a phi = 0 one leaves only its own files;
    stale temp and per-batch increment files go too, other files stay."""
    UnlearnEngine.train(tiny_dataset, replace(tiny_config, phi=0.0)).store.persist(tmp_path)
    assert len(list(tmp_path.glob("ledger_*"))) == tiny_config.num_slices
    for stale in ("increment_0001_0002.muck", "ledger_0002.muck.tmp", "manifest.json.tmp"):
        (tmp_path / stale).write_bytes(b"stale")
    (tmp_path / "notes.txt").write_text("kept")
    store = UnlearnEngine.train(tiny_dataset, tiny_config).store  # t = 2: slice 1 recorded
    store.persist(tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    named = {e["file"] for e in manifest["checkpoints"] + manifest["ledgers"]}
    assert named == {f"checkpoint_{i:04d}.muck" for i in range(4)} | {"ledger_0001.muck"}
    assert {p.name for p in tmp_path.iterdir()} == named | {"manifest.json", "notes.txt"}
    loaded = StateStore.load(tmp_path)
    assert sorted(loaded.ledgers) == [1]
    assert loaded.get_checkpoint(3).params.bits_equal(store.get_checkpoint(3).params)


def test_file_header_version_rejected(tmp_path):
    store = populated_store()
    store.persist(tmp_path)
    victim = tmp_path / "ledger_0001.muck"
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
    """A clone shares the read-only checkpoints, ids and deltas and owns its
    consumed flags."""
    store = populated_store()
    dup = store.clone()
    for i, cp in store.checkpoints.items():
        assert dup.get_checkpoint(i) is cp
        for values in (cp.params.values, cp.opt_state.m, cp.opt_state.v):
            with pytest.raises(ValueError):
                values[0] += 1.0
    assert dup.ledgers[1].deltas is store.ledgers[1].deltas
    assert dup.tombstones is store.tombstones
    dup.mark_consumed(1, 1)
    assert not store.ledgers[1].consumed[0]
