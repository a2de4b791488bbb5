from dataclasses import replace

import numpy as np
import pytest

from mubench import (
    Dataset,
    ModelLayout,
    TrainConfig,
    UnlearnEngine,
    UnlearnRequest,
    combine,
    evaluate,
    gen_synthetic,
    sample_request_ids,
    split_dataset,
)
from mubench.errors import (
    AlreadyRevoked,
    DispatchError,
    InvalidArgument,
    NotFound,
    TrainingDiverged,
)
from mubench.mia import fit_dense


# ------------------------------------------------------------------- training
def test_train_saves_all_checkpoints(trained_engine):
    assert sorted(trained_engine.store.checkpoints) == [0, 1, 2, 3]


def test_train_records_only_below_threshold(trained_engine):
    assert trained_engine.threshold == 2
    assert set(trained_engine.store.ledgers) == {1}
    assert trained_engine.store.ledgers[1].deltas.shape[0] == trained_engine.plan.num_batches(1)


def test_train_deterministic(tiny_dataset, tiny_config):
    a = UnlearnEngine.train(tiny_dataset, tiny_config)
    b = UnlearnEngine.train(tiny_dataset, tiny_config)
    assert a.model.params.bits_equal(b.model.params)
    for i in range(4):
        assert a.store.get_checkpoint(i).params.bits_equal(b.store.get_checkpoint(i).params)


def test_train_gathers_each_batch_once_per_slice(tiny_dataset, tiny_config, monkeypatch):
    """Every epoch of a slice reuses the batches gathered at its start."""
    from mubench import SlicePlan

    calls = []
    batch_ids = SlicePlan.batch_ids
    monkeypatch.setattr(
        SlicePlan, "batch_ids", lambda plan, i, j: calls.append((i, j)) or batch_ids(plan, i, j)
    )
    plan = UnlearnEngine.train(tiny_dataset, replace(tiny_config, epochs_per_slice=3)).plan
    assert calls == [(i, j) for i in range(1, 4) for j in range(1, plan.num_batches(i) + 1)]


def test_train_refuses_second_fit(trained_engine):
    with pytest.raises(InvalidArgument):
        trained_engine.fit()


def test_train_reaches_holdout_accuracy():
    source = gen_synthetic(2500, 20, seed=3)
    train, hold = split_dataset(source, 0.2, seed=11)
    cfg = TrainConfig(num_slices=4, epochs_per_slice=3, seed=0, phi=0.0)
    engine = UnlearnEngine.train(train, cfg)
    assert evaluate(engine.model.params, hold) >= 0.9


def _train_engine(ds):
    UnlearnEngine.train(ds, TrainConfig(num_slices=2, batch_size=16, seed=0, phi=0.0))


def _fit_dense(ds):
    fit_dense(ds.features, ds.labels, ModelLayout(4), epochs=1, batch_size=16,
              learning_rate=0.005, seed=0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("train", [_train_engine, _fit_dense], ids=["engine", "fit_dense"])
def test_train_divergence_detected(train):
    feats = np.ones((64, 4), dtype=np.float32)
    feats[3, 2] = np.inf
    bad = Dataset(feats, np.arange(64) % 2)
    with pytest.raises(TrainingDiverged):
        train(bad)


def test_telescoping_reconstruction(trained_engine):
    eng = trained_engine
    for i in eng.store.ledgers:
        total = eng.store.get_checkpoint(i - 1).params.values.copy()
        for j in range(eng.plan.num_batches(i)):
            total += eng.store.get_increment(i, j + 1).values
        err = np.abs(total - eng.store.get_checkpoint(i).params.values).max()
        assert err <= 1e-5


# ------------------------------------------------------------------------ prs
def test_prs_last_slice_retrains_only_last(trained_engine):
    eng = trained_engine
    victim = eng.plan.slice_ids(3)[0]
    out = eng.unlearn_prs(victim)
    assert out.strategy_executed == "prs"
    assert out.checkpoints_rewritten == [3]
    assert out.located_at[0] == 3


def test_prs_equals_scratch_retrain_slice1(tiny_dataset, tiny_config):
    eng = UnlearnEngine.train(tiny_dataset, tiny_config)
    victim = eng.plan.slice_ids(1)[0]
    out = eng.unlearn_prs(victim)

    oracle = UnlearnEngine(tiny_dataset, tiny_config)
    oracle.plan = oracle.plan.tombstone(victim)
    scratch = oracle.fit()
    assert out.params_after.bits_equal(scratch.params)
    for i in range(1, 4):
        assert eng.store.get_checkpoint(i).params.bits_equal(
            oracle.store.get_checkpoint(i).params
        )


def test_prs_double_revocation_errors(trained_engine):
    victim = trained_engine.plan.slice_ids(2)[0]
    trained_engine.unlearn_prs(victim)
    with pytest.raises(AlreadyRevoked):
        trained_engine.unlearn_prs(victim)


def test_prs_rerecords_increments_for_recorded_slices(trained_engine):
    eng = trained_engine
    before = eng.store.ledgers[1]
    victim = eng.plan.slice_ids(1)[3]
    eng.unlearn_prs(victim)
    after = eng.store.ledgers
    assert set(after) == {1}
    assert victim not in after[1].ids
    assert not np.array_equal(after[1].deltas, before.deltas)


# ----------------------------------------------------------------------- dpus
def test_dpus_subtract_and_restore(trained_engine):
    eng = trained_engine
    final_params = eng.model.params.copy()
    victim = eng.plan.slice_ids(1)[5]
    out = eng.unlearn_dpus(victim)
    assert out.strategy_executed == "dpus"
    delta = eng.store.get_increment(*out.located_at)
    expected = final_params.values - delta.values
    assert np.array_equal(out.params_after.values, expected)
    assert combine(out.params_after, delta, "+").bits_equal(final_params)


def test_dpus_consume_once(trained_engine):
    eng = trained_engine
    first = eng.plan.slice_ids(1)[0]
    out1 = eng.unlearn_dpus(first)
    i, j = out1.located_at
    size = eng.config.batch_size
    same_batch = eng.store.ledgers[i].ids[(j - 1) * size : j * size]
    second = next(x for x in same_batch if x != first)
    frozen = eng.model.params.copy()
    out2 = eng.unlearn_dpus(second)
    assert out2.strategy_executed == "noop-consumed"
    assert eng.model.params.bits_equal(frozen)
    assert second in eng.plan.tombstones
    assert eng.store.tombstones is eng.plan.tombstones  # kept once, not copied


def test_dpus_dispatch_guard(trained_engine):
    eng = trained_engine
    late = eng.plan.slice_ids(3)[0]
    with pytest.raises(DispatchError):
        eng.unlearn_dpus(late)


def test_dpus_force_requires_record(trained_engine):
    late = trained_engine.plan.slice_ids(3)[0]
    with pytest.raises(NotFound):
        trained_engine.unlearn_dpus(late, force=True)


# ------------------------------------------------------------------------- hs
def test_hs_dispatch_by_slice(tiny_dataset, tiny_config):
    eng = UnlearnEngine.train(tiny_dataset, tiny_config)
    early = eng.plan.slice_ids(1)[0]
    at_threshold = eng.plan.slice_ids(2)[0]  # t = 2; rule is strict i < t
    late = eng.plan.slice_ids(3)[0]
    assert eng.unlearn_hs(early).strategy_executed == "dpus"
    assert eng.unlearn_hs(at_threshold).strategy_executed == "prs"
    assert eng.unlearn_hs(late).strategy_executed == "prs"


def test_hs_matches_direct_prs_bitwise(tiny_dataset, tiny_config):
    base = UnlearnEngine.train(tiny_dataset, tiny_config)
    other = base.clone()
    victim = base.plan.slice_ids(3)[7]
    a = base.unlearn_hs(victim)
    b = other.unlearn_prs(victim)
    assert a.params_after.bits_equal(b.params_after)


# ------------------------------------------------------------------------ ohs
def test_ohs_above_threshold_equals_prs(tiny_dataset, tiny_config):
    a = UnlearnEngine.train(tiny_dataset, tiny_config)
    b = a.clone()
    victim = a.plan.slice_ids(3)[2]
    out_a = a.unlearn_ohs(victim)
    out_b = b.unlearn_prs(victim)
    assert out_a.strategy_executed == "prs"
    assert out_a.params_after.bits_equal(out_b.params_after)


def test_ohs_subtracts_then_retrains_trailing_slice(tiny_dataset, tiny_config):
    """depth 1: retrain the last slice from the S-1 checkpoint minus the batch delta.

    Reconstructed by hand on a clone; checkpoint S-1 itself stays pristine.
    """
    eng = UnlearnEngine.train(tiny_dataset, tiny_config)
    twin = eng.clone()
    s = eng.config.num_slices
    pristine_base = eng.store.get_checkpoint(s - 1).params.copy()
    victim = eng.plan.slice_ids(1)[4]
    out = eng.unlearn_ohs(victim, depth=1)
    assert out.strategy_executed == "ohs"
    assert out.checkpoints_rewritten == [s]
    assert eng.store.get_checkpoint(s - 1).params.bits_equal(pristine_base)
    i, j = out.located_at
    assert eng.store.ledgers[i].consumed[j - 1]

    delta = twin.store.get_increment(i, j)
    start = combine(twin.store.get_checkpoint(s - 1).params, delta, "-")
    state = twin.store.get_checkpoint(s - 1).opt_state
    twin.plan = twin.plan.tombstone(victim)
    expected, _ = twin._train_slice(start, state, s, record=False)
    assert out.params_after.bits_equal(expected)


def test_ohs_depth_zero_degenerates_to_dpus(tiny_dataset, tiny_config):
    a = UnlearnEngine.train(tiny_dataset, tiny_config)
    b = a.clone()
    victim = a.plan.slice_ids(1)[9]
    out_a = a.unlearn_ohs(victim, depth=0)
    out_b = b.unlearn_dpus(victim)
    assert out_a.strategy_executed == "dpus"
    assert out_a.params_after.bits_equal(out_b.params_after)


def test_ohs_consumed_record_still_retrains(tiny_dataset, tiny_config):
    eng = UnlearnEngine.train(tiny_dataset, tiny_config)
    first = eng.plan.slice_ids(1)[0]
    out1 = eng.unlearn_ohs(first)
    i, j = out1.located_at
    size = eng.config.batch_size
    same_batch = eng.store.ledgers[i].ids[(j - 1) * size : j * size]
    second = next(x for x in same_batch if x != first)
    out2 = eng.unlearn_ohs(second)
    assert out2.strategy_executed == "ohs"
    assert out2.checkpoints_rewritten == [2, 3]
    assert second in eng.plan.tombstones


def test_ohs_full_depth_tracks_prs_accuracy():
    """depth = S: checkpoint 0 holds no sample's delta, so every request
    retrains from its own slice and the stream stays within one point of pure
    partial retraining."""
    source = gen_synthetic(2500, 20, seed=6)
    train, hold = split_dataset(source, 0.2, seed=1)
    # t = 3 for S = 4: per-slice 500, costs 5000/4500/3500/2000
    cfg = TrainConfig(num_slices=4, epochs_per_slice=1, seed=0, phi=3500.0)
    prs_eng = UnlearnEngine.train(train, cfg)
    ohs_eng = UnlearnEngine.train(train, cfg, ohs_depth=4)
    assert ohs_eng.model.params.bits_equal(prs_eng.model.params)
    ids = sample_request_ids(prs_eng.plan, 30, seed=4)
    prs_eng.process_stream([UnlearnRequest(i, "prs") for i in ids], hold)
    report = ohs_eng.process_stream([UnlearnRequest(i, "ohs") for i in ids], hold)
    assert all(r.strategy_executed in ("ohs", "prs") for r in report.rows)
    acc_prs = evaluate(prs_eng.model.params, hold)
    acc_ohs = evaluate(ohs_eng.model.params, hold)
    assert abs(acc_prs - acc_ohs) <= 0.01


def _engine_state(eng):
    """An engine's checkpoints and served params as bytes, its consumed flags
    and its tombstones."""
    checkpoints = {
        k: (
            cp.params.values.tobytes(),
            cp.opt_state.m.tobytes(),
            cp.opt_state.v.tobytes(),
            cp.opt_state.step_count,
            cp.plan_version,
        )
        for k, cp in eng.store.checkpoints.items()
    }
    consumed = {k: ledger.consumed.tolist() for k, ledger in eng.store.ledgers.items()}
    served = eng.model.params.values.tobytes()
    return checkpoints, consumed, served, eng.store.tombstones, eng.plan.tombstones


@pytest.mark.parametrize("depth", [3, 4])
def test_ohs_depth_past_the_sample_runs_prs(depth):
    """With S-r < i, checkpoint S-r was written before slice i and never held
    the sample's delta: the request retrains from slice i, exactly as PRS."""
    train, _ = split_dataset(gen_synthetic(2000, 20, 3), 0.2, seed=1)
    # t = 3, r = 2 for S = 4: per-slice 400, costs 4000/3600/2800/1600
    eng = UnlearnEngine.train(train, TrainConfig(num_slices=4, batch_size=64, seed=7, phi=3500.0))
    a, b = eng.clone(), eng.clone()
    victim = eng.plan.slice_ids(2)[5]
    out_a = a.unlearn_ohs(victim, depth=depth)
    out_b = b.unlearn_prs(victim)
    assert (out_a.strategy_executed, out_a.checkpoints_rewritten) == ("prs", [2, 3, 4])
    assert out_a.located_at == out_b.located_at
    assert out_a.params_after.bits_equal(out_b.params_after)
    assert _engine_state(a) == _engine_state(b)


def test_clone_stream_leaves_the_original_bit_identical(tiny_dataset, tiny_config):
    """A mixed PRS/DPUS/HS/OHS stream on a clone writes nothing the original
    holds, and each outcome's params_after is a read-only snapshot that later
    requests leave alone."""
    eng = UnlearnEngine.train(tiny_dataset, tiny_config)
    before = _engine_state(eng)
    twin = eng.clone()
    outcomes, snapshots = [], []
    for k, sid in enumerate(sample_request_ids(eng.plan, 24, seed=6)):
        strategy = ("prs", "dpus", "hs", "ohs")[k % 4]
        if strategy == "dpus" and eng.plan.locate(sid)[0] >= eng.threshold:
            strategy = "hs"  # no recorded delta at or above the threshold
        outcomes.append(twin.dispatch(UnlearnRequest(sid, strategy)))
        snapshots.append(outcomes[-1].params_after.values.tobytes())
    assert {o.strategy_executed for o in outcomes} >= {"prs", "dpus", "ohs"}
    assert _engine_state(eng) == before
    assert not twin.model.params.bits_equal(eng.model.params)
    for outcome, snapshot in zip(outcomes, snapshots):
        assert outcome.params_after.values.tobytes() == snapshot
        with pytest.raises(ValueError):
            outcome.params_after.values[0] = 0.0


# ------------------------------------------------------------------- dispatch
@pytest.mark.parametrize(
    "strategy,phi,unlearn",
    [
        ("prs", 1000.0, lambda eng, i: eng.unlearn_prs(i)),
        ("dpus", 0.0, lambda eng, i: eng.unlearn_dpus(i, force=True)),
        ("hs", 1000.0, lambda eng, i: eng.unlearn_hs(i)),
        ("ohs", 1000.0, lambda eng, i: eng.unlearn_ohs(i)),
    ],
    ids=["prs", "dpus", "hs", "ohs"],
)
def test_dispatch_matches_strategy_method(tiny_dataset, tiny_config, strategy, phi, unlearn):
    a = UnlearnEngine.train(tiny_dataset, replace(tiny_config, phi=phi))
    b = a.clone()
    for i in sample_request_ids(a.plan, 30, seed=5):
        out_a = a.dispatch(UnlearnRequest(i, strategy))
        out_b = unlearn(b, i)
        assert (out_a.strategy_executed, out_a.located_at, out_a.checkpoints_rewritten) == (
            out_b.strategy_executed, out_b.located_at, out_b.checkpoints_rewritten
        )
        assert out_a.params_after.bits_equal(out_b.params_after)
    assert a.model.params.bits_equal(b.model.params)


# --------------------------------------------------------------------- stream
def test_stream_row_per_request(tiny_dataset, tiny_config):
    eng = UnlearnEngine.train(tiny_dataset, tiny_config)
    ids = sample_request_ids(eng.plan, 100, seed=3)
    report = eng.process_stream([UnlearnRequest(i, "hs") for i in ids], tiny_dataset)
    assert len(report.rows) == 100
    assert report.final_accuracy is not None
    assert report.avg_unlearn_time_s > 0
    assert not report.partial


@pytest.mark.parametrize("strategy", ["prs", "hs", "ohs"])
def test_stream_reports_served_model(tiny_dataset, tiny_config, strategy):
    eng = UnlearnEngine.train(tiny_dataset, tiny_config)
    ids = sample_request_ids(eng.plan, 20, seed=3)
    report = eng.process_stream([UnlearnRequest(i, strategy) for i in ids], tiny_dataset)
    assert report.final_accuracy == evaluate(eng.model.params, tiny_dataset)
    assert report.final_accuracy != report.pre_accuracy


def test_stream_empty_requests(trained_engine, tiny_dataset):
    report = trained_engine.process_stream([], tiny_dataset)
    assert report.rows == []
    assert report.pre_accuracy == report.final_accuracy


def test_stream_prs_equals_hs_on_last_slice(tiny_dataset, tiny_config):
    a = UnlearnEngine.train(tiny_dataset, tiny_config)
    b = a.clone()
    ids = list(a.plan.slice_ids(3)[:12])
    a.process_stream([UnlearnRequest(i, "prs") for i in ids])
    b.process_stream([UnlearnRequest(i, "hs") for i in ids])
    assert a.model.params.bits_equal(b.model.params)


def test_stream_aborts_partial_on_error(trained_engine, tiny_dataset):
    ids = [5, 5]  # duplicate: second is already revoked
    report = trained_engine.process_stream(
        [UnlearnRequest(i, "hs") for i in ids], tiny_dataset
    )
    assert report.partial
    assert len(report.rows) == 1
    assert "5" in report.error


def test_stream_dispatch_soundness(tiny_dataset, tiny_config):
    eng = UnlearnEngine.train(tiny_dataset, tiny_config)
    ids = sample_request_ids(eng.plan, 60, seed=9)
    slices = {i: eng.plan.locate(i)[0] for i in ids}
    report = eng.process_stream([UnlearnRequest(i, "hs") for i in ids])
    for row, i in zip(report.rows, ids):
        if slices[i] < eng.threshold:
            assert row.strategy_executed in ("dpus", "noop-consumed")
        else:
            assert row.strategy_executed == "prs"


def test_stream_tombstone_exclusion(tiny_dataset, tiny_config):
    eng = UnlearnEngine.train(tiny_dataset, tiny_config)
    ids = sample_request_ids(eng.plan, 25, seed=2)
    eng.process_stream([UnlearnRequest(i, "hs") for i in ids])
    live = set(eng.plan.live_ids().tolist())
    assert live.isdisjoint(ids)
    for i in range(1, 4):
        for j in range(eng.plan.num_batches(i)):
            assert set(eng.plan.batch_ids(i, j + 1)).isdisjoint(ids)


# ------------------------------------------------------------------ plumbing
def test_sample_request_ids_distinct_and_deterministic(trained_engine):
    ids_a = sample_request_ids(trained_engine.plan, 50, seed=13)
    ids_b = sample_request_ids(trained_engine.plan, 50, seed=13)
    assert ids_a == ids_b
    assert len(set(ids_a)) == 50
    with pytest.raises(InvalidArgument):
        sample_request_ids(trained_engine.plan, 10_000, seed=0)
    with pytest.raises(InvalidArgument):
        sample_request_ids(trained_engine.plan, -1, seed=0)
    with pytest.raises(InvalidArgument):
        sample_request_ids(trained_engine.plan, 3, seed=-1)


def test_request_validates_strategy():
    with pytest.raises(InvalidArgument):
        UnlearnRequest(0, "magic")


def test_reload_rebuilds_plan_and_ledger_index(tiny_dataset, tiny_config, tmp_path):
    """After a mixed stream, persist -> load -> from_store rebuilds the live
    plan and the recorded ledger index the engine held in memory."""
    from mubench import StateStore

    eng = UnlearnEngine.train(tiny_dataset, tiny_config)
    ids = sample_request_ids(eng.plan, 40, seed=8)
    requests = [UnlearnRequest(eng.plan.slice_ids(1)[0], "prs")]  # re-records slice 1
    for k, sid in enumerate(ids):
        strategy = ("hs", "ohs", "dpus")[k % 3]
        if strategy == "dpus" and eng.plan.locate(sid)[0] >= eng.threshold:
            strategy = "hs"
        if sid != requests[0].sample_id:
            requests.append(UnlearnRequest(sid, strategy))
    report = eng.process_stream(requests)
    assert not report.partial
    assert {row.strategy_executed for row in report.rows} >= {"prs", "dpus", "ohs"}

    eng.store.persist(tmp_path)
    back = UnlearnEngine.from_store(tiny_dataset, StateStore.load(tmp_path))
    for i in range(1, eng.config.num_slices + 1):
        assert np.array_equal(back.plan.slice_ids(i), eng.plan.slice_ids(i))
    assert back.store.ledgers.keys() == eng.store.ledgers.keys()
    for i, ledger in eng.store.ledgers.items():
        assert np.array_equal(back.store.ledgers[i].ids, ledger.ids)
        assert np.array_equal(back.store.ledgers[i].deltas, ledger.deltas)
        assert np.array_equal(back.store.ledgers[i].consumed, ledger.consumed)
    for sid in eng.plan.live_ids():
        assert back.plan.locate(sid) == eng.plan.locate(sid)
    for request in requests:
        with pytest.raises(AlreadyRevoked):
            back.plan.locate(request.sample_id)


def test_from_store_fingerprint_guard(tiny_dataset, tiny_config, tmp_path):
    eng = UnlearnEngine.train(tiny_dataset, tiny_config)
    eng.store.persist(tmp_path)
    from mubench import StateStore

    loaded = StateStore.load(tmp_path)
    other = gen_synthetic(600, 8, 2)
    with pytest.raises(InvalidArgument):
        UnlearnEngine.from_store(other, loaded)
