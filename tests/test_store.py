import json
import re
import struct
import zlib
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from mubench import (
    Checkpoint,
    CostConfig,
    ModelLayout,
    OptimizerState,
    StateStore,
    TrainConfig,
    UnlearnEngine,
    UnlearnRequest,
    init_params,
    make_slice_plan,
    threshold,
)
from mubench.errors import (
    InvalidArgument,
    NotFound,
    PolicyViolation,
    StoreCorruption,
    StoreVersionError,
)
from mubench.store import CHECKPOINT_SENTINEL, FORMAT_VERSION, write_vector_file

from conftest import recorded_ids

LAYOUT = ModelLayout(4, (5,), 2)


def fresh_store(num_slices=4, phi=200.0):
    """n = 100; the default phi gives t = 3 at four slices."""
    config = TrainConfig(num_slices=num_slices, batch_size=16, phi=phi, hidden_dims=(5,))
    plan = make_slice_plan(100, num_slices, config.batch_size, config.seed)
    return StateStore(config, LAYOUT, plan)


def make_checkpoint(i, seed=0, num_slices=4):
    """Checkpoint i with its own params and Adam state; checkpoint S, as the
    store requires, without Adam state."""
    params = init_params(LAYOUT, seed + i)
    if i == num_slices:
        return Checkpoint(i, params, None)
    state = OptimizerState.fresh(LAYOUT)
    state.m[:] = np.float32(0.25) * (i + 1)
    state.step_count = 3 * i
    return Checkpoint(i, params, state)


def test_checkpoint_roundtrip_in_memory():
    store = fresh_store()
    cp = make_checkpoint(2)
    store.put_checkpoint(cp)
    assert store.get_checkpoint(2).params.bits_equal(cp.params)


def test_checkpoint_indices_zero_through_s():
    """Checkpoint 0 is derived, so only 1..S can be put; 1..S-1 hold Adam
    state and S none."""
    store = fresh_store(num_slices=4)
    for i in range(1, 5):
        store.put_checkpoint(make_checkpoint(i))
    assert sorted(store.checkpoints) == [0, 1, 2, 3, 4]
    for i in (0, 5):
        with pytest.raises(InvalidArgument, match=r"in \[1, 4\] \(checkpoint 0 is derived\)"):
            store.put_checkpoint(make_checkpoint(i))
    state = make_checkpoint(1).opt_state
    with_state, without = replace(make_checkpoint(4), opt_state=state), make_checkpoint(2)
    for bad in (with_state, replace(without, opt_state=None)):
        with pytest.raises(InvalidArgument, match="1..3 hold Adam state and checkpoint 4 none"):
            store.put_checkpoint(bad)
    assert store.get_checkpoint(4).opt_state is None and store.get_checkpoint(2).opt_state


def test_checkpoint_zero_is_derived_from_the_config():
    """A new store holds checkpoint 0, the start of every training run: the
    config seed's initial params with fresh Adam state, all read-only."""
    store = fresh_store()
    cp, zeros = store.get_checkpoint(0), np.zeros(LAYOUT.param_count, dtype=np.float32)
    assert cp.params.bits_equal(init_params(LAYOUT, store.config.seed))
    state = cp.opt_state
    assert state.step_count == 0
    assert state.m.tobytes() == state.v.tobytes() == zeros.tobytes()
    assert not any(a.flags.writeable for a in (cp.params.values, state.m, state.v))
    other = StateStore(replace(store.config, seed=9), LAYOUT, store.plan)
    assert other.get_checkpoint(0).params.bits_equal(init_params(LAYOUT, 9))


def test_trained_from_key_compares_bits():
    """The reuse key matches equal bits, not only the same objects, and one
    differing bit in the step count, params, m, v or ids (a -0.0 for a 0.0
    too) is a miss. The key is neither compared nor printed."""
    s0 = make_checkpoint(0).opt_state
    start = (5, init_params(LAYOUT, 3).values, s0.m, s0.v, np.arange(10, dtype=np.int64))
    cp = replace(make_checkpoint(1), trained_from=start)
    assert not any(a.flags.writeable for a in start[1:])
    assert cp.was_trained_from(start)
    assert cp.was_trained_from((5, *(a.copy() for a in start[1:])))
    assert not make_checkpoint(1).was_trained_from(start)
    key = next(f for f in fields(Checkpoint) if f.name == "trained_from")
    assert not key.compare and "trained_from" not in repr(cp)

    def flip(k, pos, new):
        values = start[k].copy()
        values[pos] = new
        return start[:k] + (values,) + start[k + 1 :]

    zero = int(np.flatnonzero(s0.v == 0)[0])
    assert not cp.was_trained_from((6, *start[1:]))
    assert not cp.was_trained_from(flip(1, 0, start[1][0] + 2**-40))
    assert not cp.was_trained_from(flip(2, 0, np.nextafter(s0.m[0], 1)))
    assert not cp.was_trained_from(flip(3, zero, -0.0))
    assert not cp.was_trained_from(flip(4, 3, 99))
    assert not cp.was_trained_from(start[:4] + (start[4][1:],))


def test_get_missing_checkpoint():
    store = fresh_store(num_slices=4)
    with pytest.raises(NotFound):
        store.get_checkpoint(9)


def deltas(*seeds):
    """One delta row per seed, each a set of initial parameters."""
    return np.stack([init_params(LAYOUT, seed).values for seed in seeds])


def keep_first(store, i, count):
    """Revoke slice i's live ids past its first ``count``, as requests do
    before a retrain re-records the slice; return the ids kept."""
    ids = store.plan.slice_ids(i)
    store.set_tombstones(ids[count:])
    return ids[:count]


def test_increment_roundtrip_and_consume_flag():
    """A recorded batch is consumed once one of its ids is revoked: the
    request's own tombstone is the mark, and asking writes nothing."""
    store = fresh_store()
    delta = init_params(LAYOUT, 7)
    ids = keep_first(store, 1, 20)
    store.record_increment(1, deltas(6, 7))  # two batches of 16
    assert store.get_increment(1, 2).bits_equal(delta)
    assert store.mark_consumed(1, 2) is store.mark_consumed(1, 2) is True
    store.set_tombstones([ids[17]])  # as the request that consumed batch 2
    assert store.mark_consumed(1, 2) is False  # reports already-consumed
    assert store.mark_consumed(1, 1) is True


def test_record_at_or_above_threshold_rejected():
    """Only slices 1..t-1 take a ledger; slice 0 would read slice S's mask."""
    store = fresh_store()
    assert store.threshold == 3
    for i in (3, 4, 5, 0, -1):
        with pytest.raises(PolicyViolation, match=f"slices below 3, got {i}"):
            store.record_increment(i, deltas(0, 1))
    assert not store.ledgers


def test_get_missing_increment():
    store = fresh_store()
    with pytest.raises(NotFound):
        store.get_increment(1, 1)


def test_recorded_batch_lookup():
    """A ledger is looked up by slice and as-planned index k, the k that
    ``SlicePlan.position`` gives; a k outside the slice or not recorded is
    NotFound, and a k that is not an integer InvalidArgument."""
    store = fresh_store()
    ids = keep_first(store, 1, 20)  # ids[:16], then ids[16:20]
    store.record_increment(1, deltas(0, 1))
    pos, size = store.plan.pos_of[ids], store.plan.order[0].size  # 25 planned
    assert store.recorded_batch_index(1, pos[15]) == 1
    assert store.recorded_batch_index(1, int(pos[18])) == 2
    unrecorded = np.setdiff1d(np.arange(size), pos)
    assert unrecorded.size == 5
    for absent in (*unrecorded.tolist(), -1, size, 10**12, 2**70):
        with pytest.raises(NotFound, match="slice 1 recorded no id at as-planned index"):
            store.recorded_batch_index(1, absent)
    with pytest.raises(NotFound, match="slice 2 recorded no id at as-planned index 0"):
        store.recorded_batch_index(2, 0)
    for bad in (float(pos[0]), 1.0, True, False, np.bool_(True), "1", None):
        with pytest.raises(InvalidArgument, match="as-planned index must be an integer"):
            store.recorded_batch_index(1, bad)
    store.set_tombstones(ids[[0, 3]])
    store.record_increment(1, deltas(0, 1))  # re-recorded without two
    assert store.recorded_batch_index(1, np.int32(pos[17])) == 1  # row 15
    assert store.recorded_batch_index(1, pos[18]) == 2
    for gone in pos[[0, 3]]:
        with pytest.raises(NotFound):
            store.recorded_batch_index(1, gone)  # in the old ledger only


def test_record_rejects_deltas_that_do_not_fit_the_ids():
    """A ledger takes one delta row per batch of ids, each as wide as the
    layout; any other shape is refused, and nothing is recorded."""
    store = fresh_store()  # batch size 16
    keep_first(store, 1, 20)
    width = LAYOUT.param_count
    for bad in (deltas(0), deltas(0, 1, 2), deltas(0, 1)[:, :3], deltas(0, 1).ravel()):
        with pytest.raises(InvalidArgument, match=f"20 ids take 2 delta rows of {width}"):
            store.record_increment(1, bad)
    assert not store.ledgers


@pytest.mark.parametrize("bad", [2.9, 2.0, True, np.float64(1.0), "1", None])
def test_store_indexes_must_be_integers(bad):
    """Every slice or batch index a store method takes is a Python or numpy
    int, never a bool: anything else is InvalidArgument and changes nothing."""
    store = populated_store()
    ledger, cp, rows = store.ledgers[1], make_checkpoint(2), deltas(91, 92)
    calls = [
        lambda: store.get_checkpoint(bad),
        lambda: store.put_checkpoint(replace(cp, slice_index=bad)),
        lambda: store.record_increment(bad, rows),
        lambda: store.get_increment(bad, 1),
        lambda: store.get_increment(1, bad),
        lambda: store.mark_consumed(bad, 2),
        lambda: store.mark_consumed(1, bad),
        lambda: store.recorded_batch_index(bad, 0),
        lambda: store.recorded_batch_index(1, bad),
    ]
    checkpoints, masks = dict(store.checkpoints), [m.copy() for m in store.plan.masks]
    for call in calls:
        with pytest.raises(InvalidArgument, match="index must be an integer, got"):
            call()
    assert store.checkpoints == checkpoints and store.ledgers[1] is ledger
    assert all(np.array_equal(a, b) for a, b in zip(store.plan.masks, masks))
    assert [store.mark_consumed(1, 1), store.mark_consumed(1, 2)] == [False, True]
    one, two = np.int64(1), np.int32(2)
    assert store.get_checkpoint(two) is store.get_checkpoint(2)
    assert store.get_increment(one, two).bits_equal(store.get_increment(1, 2))
    assert store.recorded_batch_index(one, np.int32(17)) == 2
    assert store.mark_consumed(one, two) is True


def populated_store():
    """A state the engine can reach: five slices of 20 ids, all checkpointed;
    slice 1 recorded (t = 2) as two batches of its plan ids; two ids of batch
    1 revoked, which consumes that batch."""
    store = fresh_store(num_slices=5, phi=290.0)
    for i in range(1, 6):
        store.put_checkpoint(make_checkpoint(i, seed=40, num_slices=5))
    store.record_increment(1, deltas(91, 92))  # batch size 16: two batches
    ids = store.plan.slice_ids(1)
    store.set_tombstones([ids[5], ids[9]])
    store.dataset_fingerprint = "abc123"
    return store


def test_persist_load_bit_identical(tmp_path):
    store = populated_store()
    store.persist(tmp_path)
    loaded = StateStore.load(tmp_path)
    assert loaded.checkpoints.keys() == store.checkpoints.keys()
    for i in store.checkpoints:
        a, b = loaded.get_checkpoint(i), store.get_checkpoint(i)
        assert a.params.bits_equal(b.params)
        if i == 5:  # checkpoint S holds no Adam state
            assert a.opt_state is b.opt_state is None
            continue
        assert np.array_equal(a.opt_state.m, b.opt_state.m)
        assert np.array_equal(a.opt_state.v, b.opt_state.v)
        assert a.opt_state.step_count == b.opt_state.step_count
    assert loaded.ledgers.keys() == store.ledgers.keys()
    for i, ledger in store.ledgers.items():
        got = loaded.ledgers[i]
        assert np.array_equal(recorded_ids(loaded, i), recorded_ids(store, i))
        assert np.array_equal(got.deltas.view(np.uint32), ledger.deltas.view(np.uint32))
        assert np.array_equal(got.index, ledger.index)  # derived on load
        assert np.array_equal(got.ends, ledger.ends)  # derived on load
        batches = range(1, len(ledger.deltas) + 1)
        assert [loaded.mark_consumed(i, j) for j in batches] == [
            store.mark_consumed(i, j) for j in batches
        ]
        assert got.index.dtype == np.int32 and not got.index.flags.writeable
    assert loaded.tombstones == store.tombstones == loaded.plan.tombstones
    for i in range(1, 6):
        assert np.array_equal(loaded.plan.slice_ids(i), store.plan.slice_ids(i))
    assert loaded.threshold == store.threshold == 2
    assert loaded.config == store.config
    assert loaded.layout == LAYOUT
    assert loaded.dataset_fingerprint == "abc123"


def test_ledger_recorded_after_tombstones_round_trips(tmp_path):
    """A ledger records its slice's live ids as of the call, as a retrain
    re-records it after a revocation: it reloads with equal deltas and index,
    and the same batch consumed."""
    store = populated_store()  # ids 5 and 9 of slice 1 revoked
    store.record_increment(1, deltas(93, 94))  # 18 live ids, none consumed
    held = recorded_ids(store, 1)
    assert held.tolist() == store.plan.slice_ids(1).tolist() and held.size == 18
    assert store.mark_consumed(1, 2)
    store.set_tombstones([held[17]])  # as a direct update that consumed batch 2
    store.persist(tmp_path)
    back = StateStore.load(tmp_path)
    loaded, ledger = back.ledgers[1], store.ledgers[1]
    want = deltas(93, 94).astype(np.float32).tobytes()
    assert loaded.deltas.tobytes() == ledger.deltas.tobytes() == want
    assert loaded.index.tobytes() == ledger.index.tobytes()
    for s in (store, back):
        assert [s.mark_consumed(1, 1), s.mark_consumed(1, 2)] == [True, False]


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
    # version 9 also kept the delta rows of every ledger, derivable or not,
    # and no served params;
    # version 8 also kept each ledger's ids as int64 in its file and their
    # count in the manifest;
    # version 7 also kept checkpoint 0 and checkpoint S's Adam state (see
    # test_version_7_store_is_refused_then_swept); version 6 also kept the
    # threshold; version 5 also kept each ledger's consumed flags and a plan
    # version;
    # version 4 also kept each ledger's ids in the manifest; version 3 also
    # spelled the training config as separate keys; version 2 also kept one
    # increment file per batch; version 1 also kept each slice's recorded ids
    # as nested per-batch lists
    manifest["threshold"] = 2
    manifest["plan_version"] = 0
    manifest["ledgers"][0]["consumed"] = [True, False]
    manifest["ledgers"][0]["id_count"] = 20
    manifest["recorded_batches"] = {"1": [list(range(16)), list(range(16, 20))]}
    for version in (99, 9, 8, 7, 6, 5, 4, 3, 2, 1):
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


def _checkpoint_entry(edit):
    return lambda m: edit(m["checkpoints"][1])


def _last_checkpoint(edit):
    return lambda m: edit(m["checkpoints"][-1])


def _ledger_slice(i):
    """The ledger entry moved to slice i, under the file name ``persist``
    gives that slice; the file is not read."""
    return _ledger_entry(lambda e: e.update(slice=i, file=f"ledger_{i:04d}.muck"))


def _tiny_n(n):
    """n cut to ``n`` with phi 0, which records every slice: slice 1's mask
    then sets bits past its ids."""
    return lambda m: (m.update(n=n), m["config"].update(phi=0.0))


def _list_checkpoint(i):
    """An entry for checkpoint i, ahead of the others; its file is not read."""
    entry = {"slice": i, "file": f"checkpoint_{i:04d}.muck", "step_count": 0, "crc32": 0}
    return lambda m: m["checkpoints"].insert(0, entry)


def _config(edit):
    return lambda m: edit(m["config"])


def _twice(kind):
    """The first ``kind`` entry listed again, after the others."""
    return lambda m: m[kind].append(dict(m[kind][0]))


_STEP_COUNT = "manifest.json: malformed .*step_count must be .*, got "
_RECORDED = "increments are recorded only for slices below 2, got "


@pytest.mark.parametrize(
    "edit,match",
    [
        (_config(_drop("num_slices")), "manifest.json: missing field 'num_slices'"),
        (_set("tombstones", ["x"]), "manifest.json: malformed .*'x'"),
        (_set("tombstones", [5, 100]), "manifest.json: malformed .*sample 100 is not in the plan"),
        (_set("tombstones", [-1]), "manifest.json: malformed .*sample -1 is not in the plan"),
        (_set("tombstones", [16.7]), "manifest.json: malformed .*sample id must be .* got 16.7"),
        (_set("tombstones", [True]), "manifest.json: malformed .*sample id must be .* got True"),
        (_config(_set("batch_size", 0)), "manifest.json: malformed .*batch_size must be >= 1"),
        (_config(_drop("seed")), "manifest.json: missing field 'seed'"),
        (_config(_set("seed", 1.5)), r"malformed .*seed must be an integer, got 1\.5"),
        (_config(_set("seed", True)), "malformed .*seed must be an integer, got True"),
        (_config(_set("num_slices", 5.0)), "malformed .*num_slices must be an integer, got 5.0"),
        (_config(_set("batch_size", 16.0)), "malformed .*batch_size must be an integer, got 16.0"),
        (_config(_set("phi", True)), "malformed .*phi must be a finite real number, got True"),
        (_config(_set("learning_rate", "0.1")), "malformed .*learning_rate must be a finite real"),
        (_config(_set("hidden_dims", [5.0])), r"malformed .*hidden_dims\[0\] must be .* got 5\.0"),
        (_config(_set("momentum", 0.5)), "malformed .*config field 'momentum' is not a TrainConfig"),
        (_set("input_dim", []), "manifest.json: malformed"),
        (_set("n", 100.0), r"manifest.json: malformed .*n must be .* got 100\.0"),
        (_ledger_slice(0), "ledger_0000.muck: " + _RECORDED + "0"),
        (_ledger_slice(2), "ledger_0002.muck: " + _RECORDED + "2"),
        (_config(_set("batch_size", 8)), "ledger_0001.muck: 2 delta rows for 20 ids"),
        (_set("n", 200), "ledger_0001.muck: ledger framing mismatch"),
        (_tiny_n(10), "ledger_0001.muck: mask sets a bit past slice 1's ids"),
        (_checkpoint_entry(_set("step_count", 1.5)), _STEP_COUNT + "1.5"),
        (_checkpoint_entry(_set("step_count", 3.0)), _STEP_COUNT + r"3\.0"),
        (_checkpoint_entry(_set("step_count", True)), _STEP_COUNT + "True"),
        (_checkpoint_entry(_set("step_count", -1)), _STEP_COUNT + "-1"),
        (_set("tombstones", [2**64]), f"manifest.json: malformed .*sample {2**64} is not in the"),
        (_list_checkpoint(0), r"manifest.json: stored checkpoints are 1..5, got 0"),
        (_list_checkpoint(6), r"manifest.json: stored checkpoints are 1..5, got 6"),
        (_last_checkpoint(_set("step_count", 0)), "checkpoint_0005.muck: checkpoint 5 has no"),
        (
            _checkpoint_entry(_set("file", "../a/checkpoint_0002.muck")),
            r"checkpoint file '\.\./a/checkpoint_0002\.muck' is not checkpoint_0002\.muck",
        ),
        (
            _checkpoint_entry(_set("file", "/elsewhere/checkpoint_0002.muck")),
            "checkpoint file '/elsewhere/checkpoint_0002.muck' is not checkpoint_0002.muck",
        ),
        (
            _checkpoint_entry(_set("file", "checkpoint_0003.muck")),
            "checkpoint file 'checkpoint_0003.muck' is not checkpoint_0002.muck",
        ),
        (
            _ledger_entry(_set("file", "../a/ledger_0001.muck")),
            "ledger file '../a/ledger_0001.muck' is not ledger_0001.muck",
        ),
        (
            _ledger_entry(_set("file", "checkpoint_0001.muck")),
            "ledger file 'checkpoint_0001.muck' is not ledger_0001.muck",
        ),
        (_ledger_entry(_set("slice", "1")), "malformed .*slice must be .* got '1'"),
        (_ledger_entry(_set("slice", True)), "malformed .*slice must be .* got True"),
        (_list_checkpoint(True), "malformed .*slice must be .* got True"),
        (_twice("checkpoints"), "manifest.json: lists checkpoint 1 twice"),
        (_twice("ledgers"), "manifest.json: lists ledger 1 twice"),
    ],
    ids=[
        "no_S", "tombstone_string", "tombstone_past_n", "tombstone_negative", "tombstone_float",
        "tombstone_bool", "batch_size_zero", "no_train_seed", "seed_not_int", "seed_bool",
        "num_slices_float", "batch_size_float", "phi_bool", "learning_rate_string",
        "hidden_dims_float", "config_unknown_field", "layout_list", "n_float", "ledger_slice_zero",
        "ledger_slice_at_threshold", "rows_short_of_ids", "mask_short_of_payload", "ids_past_n",
        "step_count_float", "step_count_integral_float",
        "step_count_bool", "step_count_negative", "tombstone_huge", "checkpoint_zero",
        "checkpoint_past_S", "step_count_at_S", "checkpoint_file_parent",
        "checkpoint_file_absolute", "checkpoint_file_other_slice", "ledger_file_parent",
        "ledger_file_checkpoint", "ledger_slice_string", "ledger_slice_bool",
        "checkpoint_slice_bool", "checkpoint_twice", "ledger_twice",
    ],
)
def test_damaged_manifest_reports_corruption(tmp_path, edit, match):
    populated_store().persist(tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    edit(manifest)
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(StoreCorruption, match=match):
        StateStore.load(tmp_path)


def test_missing_named_file_reports_corruption(tmp_path):
    """A checkpoint file the manifest names but the directory lacks is
    StoreCorruption naming it."""
    populated_store().persist(tmp_path)
    (tmp_path / "checkpoint_0002.muck").unlink()
    with pytest.raises(StoreCorruption, match="checkpoint_0002.muck: cannot be read"):
        StateStore.load(tmp_path)


def test_named_file_that_is_a_directory_reports_corruption(tmp_path):
    """A ledger path the manifest names that holds a directory is
    StoreCorruption naming it."""
    populated_store().persist(tmp_path)
    (tmp_path / "ledger_0001.muck").unlink()
    (tmp_path / "ledger_0001.muck").mkdir()
    with pytest.raises(StoreCorruption, match="ledger_0001.muck: cannot be read"):
        StateStore.load(tmp_path)


def _as_version_7(root, store):
    """Rewrite a persisted store the way format 7 wrote it: checkpoint 0 and
    checkpoint S's Adam state are stored too."""
    manifest = json.loads((root / "manifest.json").read_text())
    last, zeros = store.config.num_slices, np.zeros(2 * LAYOUT.param_count, dtype=np.float32)
    entries = {}
    for i in (0, last):
        name = f"checkpoint_{i:04d}.muck"
        payload = np.concatenate([store.get_checkpoint(i).params.values, zeros])
        crc = write_vector_file(root / name, i, CHECKPOINT_SENTINEL, payload)
        entries[i] = {"slice": i, "file": name, "step_count": 0, "crc32": crc}
    manifest["checkpoints"] = [entries[0], *manifest["checkpoints"][:-1], entries[last]]
    manifest["format_version"] = 7
    (root / "manifest.json").write_text(json.dumps(manifest))
    return manifest


def test_version_7_store_is_refused_then_swept(tmp_path):
    """A format-7 store, which also kept checkpoint 0 and checkpoint S's
    Adam state, is refused; a persist over it removes checkpoint 0's file
    and writes checkpoint S's params alone."""
    store = populated_store()
    store.persist(tmp_path)
    size = (tmp_path / "checkpoint_0005.muck").stat().st_size
    manifest = _as_version_7(tmp_path, store)
    assert (tmp_path / "checkpoint_0000.muck").exists()
    with pytest.raises(StoreVersionError, match="format version 7 is not supported"):
        StateStore.load(tmp_path)
    manifest["format_version"] = FORMAT_VERSION
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(StoreCorruption, match="stored checkpoints are 1..5, got 0"):
        StateStore.load(tmp_path)
    store.persist(tmp_path)
    assert not (tmp_path / "checkpoint_0000.muck").exists()
    assert (tmp_path / "checkpoint_0005.muck").stat().st_size == size
    assert size == 4 + 20 + 4 * LAYOUT.param_count + 4  # header, params, CRC
    assert StateStore.load(tmp_path).get_checkpoint(5).opt_state is None


def test_checkpoint_s_with_adam_state_reports_corruption(tmp_path):
    """A checkpoint S file that carries Adam state, with both CRCs re-sealed
    and no step count in its entry, fails its framing check."""
    store = populated_store()
    store.persist(tmp_path)
    manifest = _as_version_7(tmp_path, store)
    manifest["format_version"] = FORMAT_VERSION
    manifest["checkpoints"] = manifest["checkpoints"][1:]  # no checkpoint 0
    manifest["checkpoints"][-1].pop("step_count")
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(StoreCorruption, match="checkpoint_0005.muck: checkpoint framing mismatch"):
        StateStore.load(tmp_path)


def test_threshold_is_derived_not_persisted(tmp_path):
    """The manifest keeps no threshold: a load derives t from the config's
    phi and slice count and n, so editing phi moves t, and a t that leaves a
    stored ledger at or above it is refused."""
    populated_store().persist(tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert "threshold" not in manifest
    for phi, t in ((290.0, 2), (200.0, 4), (10.0, 6), (300.0, 1)):
        manifest["config"]["phi"] = phi
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        assert threshold(CostConfig(100, 5, phi)).t == t
        if t > 1:
            assert StateStore.load(tmp_path).threshold == t
        else:  # slice 1's ledger sits at the threshold
            with pytest.raises(StoreCorruption, match="ledger_0001.muck: .*below 1, got 1"):
                StateStore.load(tmp_path)


_ALL_20 = (1 << 20) - 1  # populated_store's slice 1 mask: its 20 ids, all recorded


def _rewrite_ledger_mask(root, word):
    """Put ``word`` in place of ledger 1's mask word and re-seal both CRCs,
    the file's and the manifest's."""
    path = root / "ledger_0001.muck"
    raw = bytearray(path.read_bytes())
    start = 4 + 20  # magic, then the u32 version, slice and batch fields and the u64 length
    raw[start : start + 4] = struct.pack("<I", word)
    crc = zlib.crc32(raw[:-4]) & 0xFFFFFFFF
    path.write_bytes(bytes(raw[:-4]) + struct.pack("<I", crc))
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["ledgers"][0]["crc32"] = crc
    (root / "manifest.json").write_text(json.dumps(manifest))


def test_ledger_ids_off_the_plan_report_corruption(tmp_path):
    """A ledger mask that sets a bit past its slice's as-planned ids, whose
    popcount takes another row count than its file holds, or that leaves out
    an id still live in its slice (a direct update could not find it) fails
    its load, even with both CRCs re-sealed."""
    store = populated_store()  # ids 5 and 9 of slice 1 revoked
    for word, match in (
        (_ALL_20 | 1 << 20, "mask sets a bit past slice 1's ids"),
        (0xFFFFFFFF, "mask sets a bit past slice 1's ids"),
        (_ALL_20 >> 4, "2 delta rows for 16 ids"),
        (0, "2 delta rows for 0 ids"),
        (_ALL_20 & ~(1 << 3), "leaves out a live id of slice 1"),
    ):
        store.persist(tmp_path)
        _rewrite_ledger_mask(tmp_path, word)
        with pytest.raises(StoreCorruption, match="ledger_0001.muck: " + match):
            StateStore.load(tmp_path)


def _ledger_file_size(store, i):
    """Header, one mask bit per as-planned id of slice i in whole 4-byte
    words, the float32 delta rows unless the ledger is derivable, and the CRC."""
    ledger = store.ledgers[i]
    rows = 0 if ledger.derivable else len(ledger.ends) - 1
    words = -(-store.plan.order[i - 1].size // 32)
    return 24 + 4 * words + 4 * rows * store.layout.param_count + 4


def test_ledger_ids_live_in_the_ledger_file(tmp_path):
    """A ledger's ids live in its file as its slice's live mask at
    recording time: the manifest keeps no id count, consumed flags or plan
    version; a truncated ledger file fails its checks."""
    store = populated_store()
    store.persist(tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert set(manifest["ledgers"][0]) == {"slice", "file", "crc32"}
    assert set(manifest["checkpoints"][0]) == {"slice", "file", "step_count", "crc32"}
    assert set(manifest["checkpoints"][-1]) == {"slice", "file", "crc32"}  # checkpoint S
    assert "plan_version" not in manifest and "served" not in manifest  # nothing served
    victim = tmp_path / "ledger_0001.muck"
    assert victim.stat().st_size == _ledger_file_size(store, 1) == 28 + 8 * LAYOUT.param_count + 4
    assert victim.read_bytes()[24:28] == struct.pack("<I", _ALL_20)
    victim.write_bytes(victim.read_bytes()[:-12])
    with pytest.raises(StoreCorruption, match="ledger_0001.muck"):
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
    for i in slices:  # 200 ids, each slice trained from its stored start: seven mask words
        size = (tmp_path / f"ledger_{i:04d}.muck").stat().st_size
        assert engine.store.ledgers[i].derivable
        assert size == _ledger_file_size(engine.store, i) == 24 + 4 * 7 + 4


def test_served_params_are_persisted_when_they_are_not_checkpoint_s(
    tiny_dataset, tiny_config, tmp_path
):
    """A freshly trained store serves checkpoint S and writes no served file;
    after a direct update it writes ``served.muck``, the float64 params as
    twice as many float32 words, which a load serves read-only. A persist
    that serves checkpoint S again removes the file; a damaged one, or one
    the manifest misnames, fails the load."""
    engine = UnlearnEngine.train(tiny_dataset, tiny_config)
    last, width = tiny_config.num_slices, engine.layout.param_count
    engine.store.persist(tmp_path)
    assert "served" not in json.loads((tmp_path / "manifest.json").read_text())
    assert not (tmp_path / "served.muck").exists()
    loaded = StateStore.load(tmp_path)
    assert loaded.served is loaded.get_checkpoint(last).params
    assert loaded.served.bits_equal(engine.model.params)

    served = engine.dispatch(UnlearnRequest(int(engine.plan.slice_ids(1)[3]), "dpus")).params_after
    assert engine.store.served is served and not served.bits_equal(
        engine.store.get_checkpoint(last).params
    )
    engine.store.persist(tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["served"] == {"file": "served.muck", "crc32": manifest["served"]["crc32"]}
    assert (tmp_path / "served.muck").stat().st_size == 24 + 8 * width + 4
    back = StateStore.load(tmp_path).served
    assert back.bits_equal(served) and not back.values.flags.writeable

    for edit, match in (
        (lambda m: m["served"].update(file="../served.muck"), "served file '../served.muck'"),
        (lambda m: m["served"].update(crc32=0), "served.muck: manifest checksum disagrees"),
    ):
        edited = json.loads(json.dumps(manifest))
        edit(edited)
        (tmp_path / "manifest.json").write_text(json.dumps(edited))
        with pytest.raises(StoreCorruption, match=re.escape(match)):
            StateStore.load(tmp_path)
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    raw = bytearray((tmp_path / "served.muck").read_bytes())
    raw[40] ^= 0x01
    (tmp_path / "served.muck").write_bytes(bytes(raw))
    with pytest.raises(StoreCorruption, match="served.muck: CRC32 mismatch"):
        StateStore.load(tmp_path)

    UnlearnEngine.train(tiny_dataset, tiny_config).store.persist(tmp_path)
    assert not (tmp_path / "served.muck").exists()


def test_ledger_rows_are_kept_only_when_not_derivable(tiny_dataset, tiny_config, tmp_path):
    """A ledger recorded from the stored checkpoint i-1 is written as its mask
    only and loads with no rows, which only an engine serving the store
    derives; rows put through ``record_increment`` by another caller are
    written and loaded as they are."""
    engine = UnlearnEngine.train(tiny_dataset, replace(tiny_config, phi=0.0))
    engine.store.persist(tmp_path)
    loaded = StateStore.load(tmp_path)
    assert all(ledger.deltas is None for ledger in loaded.ledgers.values())
    with pytest.raises(NotFound, match="derived by the engine serving the store"):
        loaded.get_increment(1, 1)
    assert loaded.mark_consumed(1, 1) and loaded.recorded_batch_index(1, 0) >= 1

    rows = np.asarray(engine.store.ledgers[1].deltas) + np.float32(1)
    engine.store.record_increment(1, rows)  # not derivable: kept
    engine.store.persist(tmp_path)
    assert (tmp_path / "ledger_0001.muck").stat().st_size == _ledger_file_size(engine.store, 1)
    kept = StateStore.load(tmp_path).ledgers[1]
    assert not kept.derivable and kept.deltas.tobytes() == rows.tobytes()


def _assert_ledger_indexes(store):
    """Each ledger recorded its slice's live ids: its index maps each live
    as-planned position to that id's row among them, and the others to -1."""
    plan = store.plan
    for i, ledger in store.ledgers.items():
        ids = plan.slice_ids(i)
        want = np.full(plan.order[i - 1].size, -1)
        want[plan.pos_of[ids]] = np.arange(ids.size)
        assert np.array_equal(ledger.index, want)
        assert ledger.index.dtype == np.int32 and not ledger.index.flags.writeable


def test_loaded_position_index_equals_the_in_memory_one(tiny_dataset, tiny_config, tmp_path):
    """Load builds each ledger's row index from its ids; it equals the index
    the engine built when it recorded the ledger, also over slices a request
    re-recorded without the revoked id."""
    engine = UnlearnEngine.train(tiny_dataset, replace(tiny_config, phi=0.0))
    engine.store.persist(tmp_path)
    loaded = StateStore.load(tmp_path)
    assert len(loaded.ledgers) == tiny_config.num_slices
    for store in (loaded, engine.store):
        _assert_ledger_indexes(store)
    for i, ledger in engine.store.ledgers.items():
        assert np.array_equal(loaded.ledgers[i].index, ledger.index)

    revoked = int(engine.plan.slice_ids(1)[3])
    engine.dispatch(UnlearnRequest(revoked, "prs"))  # re-records slices 1..3 without it
    engine.store.persist(tmp_path)
    loaded = StateStore.load(tmp_path)
    for store in (loaded, engine.store):
        _assert_ledger_indexes(store)
        assert store.ledgers[1].index[store.plan.pos_of[revoked]] == -1
        with pytest.raises(NotFound):
            store.recorded_batch_index(1, int(store.plan.pos_of[revoked]))
    for i, ledger in engine.store.ledgers.items():
        assert np.array_equal(loaded.ledgers[i].index, ledger.index)


@pytest.mark.parametrize("kind", ["checkpoints", "ledgers"])
def test_from_store_refuses_a_store_missing_a_slice(tiny_dataset, tiny_config, tmp_path, kind):
    """A store without checkpoint 2 or ledger 2 (phi = 0: every slice is
    recorded) still loads, but no engine is built around it."""
    config = replace(tiny_config, num_slices=4, phi=0.0)
    UnlearnEngine.train(tiny_dataset, config).store.persist(tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest[kind] = [entry for entry in manifest[kind] if entry["slice"] != 2]
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    store = StateStore.load(tmp_path)
    assert 2 not in getattr(store, kind) and store.threshold == 5
    with pytest.raises(StoreCorruption, match=f"store has no {kind[:-1]} for slice 2"):
        UnlearnEngine.from_store(tiny_dataset, store)


def test_config_survives_persist_and_reload(tiny_dataset, tmp_path):
    """The store keeps the engine's training config as one record, so a
    reloaded engine trains under exactly the config that wrote its store."""
    config = TrainConfig(
        num_slices=3, batch_size=32, learning_rate=0.01, epochs_per_slice=2, seed=5,
        phi=250.0, hidden_dims=(16,),
    )
    UnlearnEngine.train(tiny_dataset, config).store.persist(tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["hidden_dims"] == [16]
    for key in ("layout", "S", "l", "batch_size", "seeds", "phi", "hyper", "epochs_per_slice"):
        assert key not in manifest
    engine = UnlearnEngine.from_store(tiny_dataset, StateStore.load(tmp_path))
    assert engine.config == config
    assert engine.layout == engine.store.layout == ModelLayout(tiny_dataset.feature_dim, (16,), 2)


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
    assert named == {f"checkpoint_{i:04d}.muck" for i in range(1, 4)} | {"ledger_0001.muck"}
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
    """A clone shares the read-only checkpoints and ledgers and owns its
    plan, so a batch it consumes stays whole in the store; a ledger recorded
    after the clone leaves the clone's lookups as they were."""
    store = populated_store()
    ids = recorded_ids(store, 1)
    dup = store.clone()
    for i, cp in store.checkpoints.items():
        assert dup.get_checkpoint(i) is cp
        state = () if cp.opt_state is None else (cp.opt_state.m, cp.opt_state.v)
        for values in (cp.params.values, *state):
            with pytest.raises(ValueError):
                values[0] += 1.0
    assert dup.ledgers[1] is store.ledgers[1]
    store.set_tombstones([ids[11]])
    dup.set_tombstones([ids[12]])
    assert store.tombstones == set(ids[[5, 9, 11]].tolist())
    assert dup.tombstones == set(ids[[5, 9, 12]].tolist())
    dup.set_tombstones([ids[17]])  # consumes batch 2 in the clone only
    assert (store.mark_consumed(1, 2), dup.mark_consumed(1, 2)) == (True, False)
    store.set_tombstones(ids[:2])
    store.record_increment(1, deltas(0))  # ids 0, 1, 5, 9 and 11 revoked: 15 live
    at = store.plan.pos_of[ids]
    assert (store.recorded_batch_index(1, at[17]), dup.recorded_batch_index(1, at[17])) == (1, 2)
    assert dup.recorded_batch_index(1, at[0]) == 1
    with pytest.raises(NotFound):
        store.recorded_batch_index(1, at[0])


@pytest.mark.parametrize(
    "field,value,match",
    [
        ("num_slices", 4.0, "num_slices must be an integer, got 4.0"),
        ("batch_size", 32.0, "batch_size must be an integer, got 32.0"),
        ("epochs_per_slice", True, "epochs_per_slice must be an integer, got True"),
        ("seed", True, "seed must be an integer, got True"),
        ("learning_rate", True, "learning_rate must be a finite real number, got True"),
        ("learning_rate", float("nan"), "learning_rate must be a finite real number"),
        ("phi", "100", "phi must be a finite real number, got '100'"),
        ("phi", float("inf"), "phi must be a finite real number, got inf"),
        ("hidden_dims", (5.0,), r"hidden_dims\[0\] must be an integer, got 5\.0"),
        ("hidden_dims", (True,), r"hidden_dims\[0\] must be an integer, got True"),
        ("hidden_dims", (8, 0), r"hidden_dims\[1\] must be >= 1, got 0"),
        ("hidden_dims", 8, "hidden_dims must hold positive integers, got 8"),
        ("num_slices", 0, "num_slices must be >= 1"),
        ("batch_size", 0, "batch_size must be >= 1"),
        ("epochs_per_slice", 0, "epochs_per_slice must be >= 1"),
        ("learning_rate", -1.0, "learning_rate must be positive"),
        ("phi", -0.5, "phi must be non-negative"),
    ],
    ids=[
        "num_slices_float", "batch_size_float", "epochs_bool", "seed_bool",
        "learning_rate_bool", "learning_rate_nan", "phi_string", "phi_inf", "hidden_dims_float",
        "hidden_dims_bool", "hidden_dims_zero", "hidden_dims_int", "num_slices_zero",
        "batch_size_zero", "epochs_zero", "learning_rate_negative", "phi_negative",
    ],
)
def test_train_config_validate_checks_types(field, value, match):
    """A field of the wrong type or out of range is InvalidArgument when the
    config is built, so no engine, store or shadow trainer ever sees it."""
    with pytest.raises(InvalidArgument, match=match):
        TrainConfig(**{field: value})
    with pytest.raises(InvalidArgument, match=match):
        replace(TrainConfig(), **{field: value})


def test_train_config_is_frozen():
    """A store's ledgers and threshold were recorded under its config, so no
    caller can change it afterwards; a list ``hidden_dims`` is held as a tuple."""
    config = TrainConfig()
    with pytest.raises(FrozenInstanceError):
        config.phi = 0.0
    assert TrainConfig(hidden_dims=[3]).hidden_dims == (3,)


def test_train_config_keeps_numpy_ints_as_python_ints(tiny_dataset, tmp_path):
    """A numpy int field is held as the Python int it equals, so the config
    is the one built from Python ints and a store trained under it persists
    its config as JSON and loads it back equal."""
    config = TrainConfig(num_slices=np.int32(3), batch_size=np.int64(64), seed=np.int64(3))
    assert config == TrainConfig(num_slices=3, batch_size=64, seed=3)
    assert type(config.seed) is type(config.num_slices) is type(config.batch_size) is int
    dims = TrainConfig(hidden_dims=(np.int64(5),)).hidden_dims
    assert dims == (5,) and type(dims[0]) is int
    UnlearnEngine.train(tiny_dataset, config).store.persist(tmp_path)
    assert StateStore.load(tmp_path).config == config


def test_train_config_validate_accepts_numbers_of_either_kind():
    config = TrainConfig(learning_rate=1, phi=np.float64(2.5), hidden_dims=[3])
    assert (config.learning_rate, config.phi, config.hidden_dims) == (1, 2.5, (3,))
    assert TrainConfig(hidden_dims=()).hidden_dims == ()
