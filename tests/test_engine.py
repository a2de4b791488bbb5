from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mubench.engine
from mubench import (
    Batch,
    Dataset,
    ModelLayout,
    OptimizerState,
    ParameterVector,
    StateStore,
    TrainConfig,
    UnlearnEngine,
    UnlearnRequest,
    adam_step,
    combine,
    evaluate,
    gen_synthetic,
    init_params,
    sample_request_ids,
    split_dataset,
)
from mubench.errors import (
    AlreadyRevoked,
    DispatchError,
    InvalidArgument,
    TrainingDiverged,
)
from mubench.engine import _epoch_orders, train_batches
from mubench.mia import fit_dense
from mubench.nn import loss_grad

from conftest import engine_state, forget_training_starts, recorded_ids


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
    """Training, and a retrain from slice 2, read each trained slice's live
    ids from the plan once and cut its batches from them; every epoch of a
    slice reuses the batches gathered at its start."""
    import mubench.engine
    from mubench import SlicePlan

    calls = {"slice_ids": [], "batch_ids": []}
    for name in calls:
        original = getattr(SlicePlan, name)

        def counted(plan, *args, _name=name, _original=original):
            calls[_name].append(args)
            return _original(plan, *args)

        monkeypatch.setattr(SlicePlan, name, counted)
    gathered, batch = [], mubench.engine.Batch
    monkeypatch.setattr(mubench.engine, "Batch", lambda *a: gathered.append(a) or batch(*a))
    eng = UnlearnEngine.train(tiny_dataset, replace(tiny_config, epochs_per_slice=3))
    sizes = eng.plan.slice_sizes()  # 200 ids per slice, batches of 64: 4 per slice
    assert calls == {"slice_ids": [(1,), (2,), (3,)], "batch_ids": []} and len(gathered) == 12
    calls["slice_ids"], gathered[:] = [], []
    eng.dispatch(UnlearnRequest(int(eng.plan.order[1][0]), "prs"))
    assert calls == {"slice_ids": [(2,), (3,)], "batch_ids": []} and len(gathered) == 8
    assert eng.plan.slice_sizes() == (sizes[0], sizes[1] - 1, sizes[2])


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


def _reference_train(params, state, steps, lr, deltas=None):
    """The per-step loop on float64 vectors that train_batches must equal bit
    for bit: loss_grad, then adam_step, both without ``out``, and each step's
    change added to its batch's delta row as a float64 difference."""
    for _epoch, j, batch in steps:
        _, grad = loss_grad(params, batch)
        stepped, state = adam_step(params, state, grad, lr)
        if deltas is not None:
            deltas[j] += stepped.values - params.values
        params = stepped
    return params, state


def _u(values):
    return values.view(f"u{values.itemsize}")


@settings(max_examples=60, deadline=None)
@given(
    input_dim=st.integers(1, 6),
    hidden=st.lists(st.integers(1, 9), max_size=2),
    output_dim=st.integers(2, 3),
    nb=st.integers(1, 3),
    steps=st.integers(0, 7),
    off_grid=st.booleans(),
    warm=st.booleans(),
    record=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_train_batches_bit_equal_to_per_step_reference(
    input_dim, hidden, output_dim, nb, steps, off_grid, warm, record, seed
):
    """Float32 carried through the loop gives the bits of the float64
    per-step loop: params, moments, step count and ledger deltas, from an
    on-grid or an amended (off-grid) start, cold or warm Adam state."""
    layout = ModelLayout(input_dim, tuple(hidden), output_dim)
    n, rng = layout.param_count, np.random.default_rng(seed)
    start = init_params(layout, seed)
    if off_grid:  # as an OHS start: a checkpoint minus a recorded float32 delta
        delta = ParameterVector(rng.standard_normal(n).astype(np.float32) * 1e-3, layout)
        start = combine(start, delta, "-")
    state = OptimizerState.fresh(layout)
    if warm:
        state = OptimizerState(
            (rng.standard_normal(n) * 1e-2).astype(np.float32),
            (rng.standard_normal(n) * 1e-2).astype(np.float32) ** 2,
            int(rng.integers(1, 500)),
        )
    for values in (start.values, state.m, state.v):  # shared read-only, as a checkpoint's
        values.flags.writeable = False
    m0, v0 = state.m.copy(), state.v.copy()
    batches = [
        Batch(
            rng.standard_normal((rows, input_dim)).astype(np.float32),
            rng.integers(0, output_dim, rows),
        )
        for rows in rng.integers(1, 10, nb)
    ]
    order = [(k // nb + 1, int(j), batches[j]) for k, j in enumerate(rng.integers(0, nb, steps))]
    got_deltas, want_deltas = (np.zeros((nb, n)), np.zeros((nb, n))) if record else (None, None)

    got, got_state = train_batches(start, state, iter(order), 0.01, "test", got_deltas)
    want, want_state = _reference_train(start, state, order, 0.01, want_deltas)

    assert got.values.dtype == np.float64 and got.layout == layout
    assert np.array_equal(_u(got.values), _u(want.values))
    assert np.array_equal(_u(got_state.m), _u(want_state.m))
    assert np.array_equal(_u(got_state.v), _u(want_state.v))
    assert got_state.step_count == state.step_count + steps
    if record:
        assert np.array_equal(_u(got_deltas), _u(want_deltas))
    assert np.array_equal(_u(state.m), _u(m0)) and np.array_equal(_u(state.v), _u(v0))
    if steps == 0:
        assert got is start and got_state is state
        return
    # the results are the caller's: a later call writes none of their memory
    kept = [x.copy() for x in (got.values, got_state.m, got_state.v)]
    train_batches(start, state, iter(order), 0.01, "again")
    for now, before in zip((got.values, got_state.m, got_state.v), kept):
        assert np.array_equal(_u(now), _u(before))


def test_epoch_orders_are_the_seeded_permutations():
    """Each cached order is the (seed, slice, epoch) permutation, held in
    tuples; a changed batch count is a new key with a new order."""
    for seed in (0, 4, 2**40):
        for slice_index in (1, 2, 7):
            for nb in (0, 1, 2, 5, 49):
                orders = _epoch_orders(seed, slice_index, 3, nb)
                want = (
                    np.random.default_rng((seed, slice_index, epoch)).permutation(nb).tolist()
                    for epoch in (1, 2, 3)
                )
                assert orders == tuple(map(tuple, want))
                assert type(orders) is tuple and all(type(o) is tuple for o in orders)
                assert _epoch_orders(seed, slice_index, 3, nb) is orders


def test_epoch_order_cache_is_bounded():
    limit = _epoch_orders.cache_info().maxsize
    assert limit is not None
    for seed in range(2 * limit):
        _epoch_orders(seed, 1, 1, 3)
    assert _epoch_orders.cache_info().currsize <= limit


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
    out = eng.dispatch(UnlearnRequest(victim, "prs"))
    assert out.strategy_executed == "prs"
    assert out.checkpoints_rewritten == [3]
    assert out.located_at[0] == 3


def test_prs_equals_scratch_retrain_slice1(tiny_dataset, tiny_config):
    eng = UnlearnEngine.train(tiny_dataset, tiny_config)
    victim = eng.plan.slice_ids(1)[0]
    out = eng.dispatch(UnlearnRequest(victim, "prs"))

    oracle = UnlearnEngine(tiny_dataset, tiny_config)
    oracle.plan.tombstone(victim)
    scratch = oracle.fit()
    assert out.params_after.bits_equal(scratch.params)
    for i in range(1, 4):
        assert eng.store.get_checkpoint(i).params.bits_equal(
            oracle.store.get_checkpoint(i).params
        )


def test_prs_double_revocation_errors(trained_engine):
    victim = trained_engine.plan.slice_ids(2)[0]
    trained_engine.dispatch(UnlearnRequest(victim, "prs"))
    with pytest.raises(AlreadyRevoked):
        trained_engine.dispatch(UnlearnRequest(victim, "prs"))


def test_prs_rerecords_increments_for_recorded_slices(trained_engine):
    eng = trained_engine
    before = eng.store.ledgers[1]
    victim = eng.plan.slice_ids(1)[3]
    eng.dispatch(UnlearnRequest(victim, "prs"))
    after = eng.store.ledgers
    assert set(after) == {1}
    assert victim not in recorded_ids(eng.store, 1)
    assert not np.array_equal(after[1].deltas, before.deltas)


# ----------------------------------------------------------------------- dpus
def test_dpus_subtract_and_restore(trained_engine):
    eng = trained_engine
    final_params = eng.model.params.copy()
    victim = eng.plan.slice_ids(1)[5]
    out = eng.dispatch(UnlearnRequest(victim, "dpus"))
    assert out.strategy_executed == "dpus"
    delta = eng.store.get_increment(*out.located_at)
    expected = final_params.values - delta.values
    assert np.array_equal(out.params_after.values, expected)
    assert combine(out.params_after, delta, "+").bits_equal(final_params)


def test_dpus_consume_once(trained_engine):
    eng = trained_engine
    first = eng.plan.slice_ids(1)[0]
    out1 = eng.dispatch(UnlearnRequest(first, "dpus"))
    i, j = out1.located_at
    size = eng.config.batch_size
    same_batch = recorded_ids(eng.store, i)[(j - 1) * size : j * size]
    second = next(x for x in same_batch if x != first)
    frozen = eng.model.params.copy()
    out2 = eng.dispatch(UnlearnRequest(second, "dpus"))
    assert out2.strategy_executed == "noop-consumed"
    assert eng.model.params.bits_equal(frozen)
    assert second in eng.plan.tombstones
    assert eng.store.tombstones == eng.plan.tombstones == {first, second}


def test_dpus_stream_builds_no_slice_ids(monkeypatch):
    """A 400-request DPUS stream on an n=50,000, S=8 engine looks each
    sample's position up once, reads no slice's live ids and revokes in its
    one plan, which it never copies: its plan work does not grow with n/S."""
    from mubench import SlicePlan

    ds = gen_synthetic(50_000, 4, seed=3)
    config = TrainConfig(num_slices=8, batch_size=128, seed=1, hidden_dims=(4,))
    eng = UnlearnEngine.train(ds, config)
    plan = eng.plan
    ids = sample_request_ids(plan, 400, seed=2)
    calls = {"position": 0, "slice_ids": 0, "copy": 0}
    for name in calls:
        original = getattr(SlicePlan, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(SlicePlan, name, counted)
    report = eng.process_stream([UnlearnRequest(sid, "dpus") for sid in ids])
    assert not report.partial
    assert {row.strategy_executed for row in report.rows} <= {"dpus", "noop-consumed"}
    assert calls == {"position": 400, "slice_ids": 0, "copy": 0}
    assert eng.plan is plan and eng.store.plan is plan
    assert sum(plan.slice_sizes()) == 50_000 - 400


@pytest.mark.parametrize(
    "sid",
    [3.7, 3.0, np.float64(3.0), True, np.True_, "3", None],
    ids=["float", "integral_float", "numpy_float", "bool", "numpy_bool", "string", "none"],
)
def test_non_integer_ids_revoke_nothing(trained_engine, sid):
    """A float, a bool or any other non-integer id is InvalidArgument at
    ``dispatch``, for DPUS and PRS, and at ``locate``, and nothing is revoked;
    Python and numpy ints are accepted."""
    eng = trained_engine
    before = engine_state(eng)
    for call in (
        lambda: eng.dispatch(UnlearnRequest(sid, "dpus")),
        lambda: eng.dispatch(UnlearnRequest(sid, "prs")),
        lambda: eng.plan.locate(sid),
    ):
        with pytest.raises(InvalidArgument, match="sample id must be an integer"):
            call()
    assert engine_state(eng) == before and not eng.plan.tombstones
    early = eng.plan.slice_ids(1)[:2]
    assert eng.plan.locate(np.int32(early[0])) == eng.plan.locate(int(early[0]))
    assert eng.dispatch(UnlearnRequest(early[0], "dpus")).strategy_executed == "dpus"
    assert eng.dispatch(UnlearnRequest(int(early[1]), "prs")).strategy_executed == "prs"
    assert eng.plan.tombstones == set(early.tolist())


def test_dpus_dispatch_guard(trained_engine):
    eng = trained_engine
    late = eng.plan.slice_ids(3)[0]
    with pytest.raises(DispatchError):
        eng.dispatch(UnlearnRequest(late, "dpus"))


def test_dpus_force_requires_record(trained_engine):
    """A DPUS request at or above the threshold, where no delta is recorded,
    is refused through dispatch too, before any state changes."""
    eng = trained_engine
    before = engine_state(eng)
    for late in (eng.plan.slice_ids(2)[0], eng.plan.slice_ids(3)[0]):  # t = 2
        with pytest.raises(DispatchError, match="no increment is recorded") as caught:
            eng.dispatch(UnlearnRequest(late, "dpus"))
        assert "force" not in str(caught.value)
    assert engine_state(eng) == before


# ------------------------------------------------------------------------- hs
def test_hs_dispatch_by_slice(tiny_dataset, tiny_config):
    eng = UnlearnEngine.train(tiny_dataset, tiny_config)
    early = eng.plan.slice_ids(1)[0]
    at_threshold = eng.plan.slice_ids(2)[0]  # t = 2; rule is strict i < t
    late = eng.plan.slice_ids(3)[0]
    assert eng.dispatch(UnlearnRequest(early, "hs")).strategy_executed == "dpus"
    assert eng.dispatch(UnlearnRequest(at_threshold, "hs")).strategy_executed == "prs"
    assert eng.dispatch(UnlearnRequest(late, "hs")).strategy_executed == "prs"


def test_hs_matches_direct_prs_bitwise(tiny_dataset, tiny_config):
    base = UnlearnEngine.train(tiny_dataset, tiny_config)
    other = base.clone()
    victim = base.plan.slice_ids(3)[7]
    a = base.dispatch(UnlearnRequest(victim, "hs"))
    b = other.dispatch(UnlearnRequest(victim, "prs"))
    assert a.params_after.bits_equal(b.params_after)


# ------------------------------------------------------------------------ ohs
def test_ohs_above_threshold_equals_prs(tiny_dataset, tiny_config):
    a = UnlearnEngine.train(tiny_dataset, tiny_config)
    b = a.clone()
    victim = a.plan.slice_ids(3)[2]
    out_a = a.dispatch(UnlearnRequest(victim, "ohs"))
    out_b = b.dispatch(UnlearnRequest(victim, "prs"))
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
    out = eng.dispatch(UnlearnRequest(victim, "ohs", depth=1))
    assert out.strategy_executed == "ohs"
    assert out.checkpoints_rewritten == [s]
    assert eng.store.get_checkpoint(s - 1).params.bits_equal(pristine_base)
    i, j = out.located_at
    assert not eng.store.mark_consumed(i, j)

    delta = twin.store.get_increment(i, j)
    start = combine(twin.store.get_checkpoint(s - 1).params, delta, "-")
    state = twin.store.get_checkpoint(s - 1).opt_state
    twin.plan.tombstone(victim)
    expected, _ = twin._train_slice(start, state, s, twin.plan.slice_ids(s), record=False)
    assert out.params_after.bits_equal(expected)


def test_ohs_depth_zero_degenerates_to_dpus(tiny_dataset, tiny_config):
    a = UnlearnEngine.train(tiny_dataset, tiny_config)
    b = a.clone()
    victim = a.plan.slice_ids(1)[9]
    out_a = a.dispatch(UnlearnRequest(victim, "ohs", depth=0))
    out_b = b.dispatch(UnlearnRequest(victim, "dpus"))
    assert out_a.strategy_executed == "dpus"
    assert out_a.params_after.bits_equal(out_b.params_after)


def test_ohs_consumed_record_still_retrains(tiny_dataset, tiny_config):
    eng = UnlearnEngine.train(tiny_dataset, tiny_config)
    first = eng.plan.slice_ids(1)[0]
    out1 = eng.dispatch(UnlearnRequest(first, "ohs"))
    i, j = out1.located_at
    size = eng.config.batch_size
    same_batch = recorded_ids(eng.store, i)[(j - 1) * size : j * size]
    second = next(x for x in same_batch if x != first)
    out2 = eng.dispatch(UnlearnRequest(second, "ohs"))
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


def test_ohs_depth_must_be_an_integer(trained_engine, tiny_dataset, tiny_config):
    """A depth that is not a Python or numpy int in [0, S] is refused, by the
    constructor and by a request, which then revokes nothing."""
    sid = int(trained_engine.plan.slice_ids(1)[0])
    for bad in (2.7, True, "2", np.float64(1.0), np.bool_(True), -1, 4):
        with pytest.raises(InvalidArgument, match="ohs depth must be"):
            UnlearnEngine(tiny_dataset, tiny_config, ohs_depth=bad)
        with pytest.raises(InvalidArgument, match="ohs depth must be"):
            trained_engine.dispatch(UnlearnRequest(sid, "ohs", depth=bad))
    assert not trained_engine.plan.tombstones
    assert UnlearnEngine(tiny_dataset, tiny_config, ohs_depth=np.int64(3)).default_ohs_depth == 3
    out = trained_engine.dispatch(UnlearnRequest(sid, "ohs", depth=np.int32(0)))
    assert out.strategy_executed == "dpus"


def test_only_ohs_requests_take_a_depth():
    """A depth with any other strategy is refused when the request is made;
    an OHS depth is checked when it is served."""
    for strategy in ("prs", "dpus", "hs"):
        for depth in (0, 1, np.int64(1), 2.7):
            with pytest.raises(InvalidArgument, match="only ohs takes a depth"):
                UnlearnRequest(5, strategy, depth)
        assert UnlearnRequest(5, strategy, None).depth is None
    with pytest.raises(InvalidArgument, match="requested_strategy must be one of"):
        UnlearnRequest(5, "sisa")
    assert UnlearnRequest(5, "ohs", 2.7).depth == 2.7  # dispatch refuses it


@pytest.mark.parametrize("depth", [3, 4])
def test_ohs_depth_past_the_sample_runs_prs(item1_engine, depth):
    """With S-r < i, checkpoint S-r was written before slice i and never held
    the sample's delta: the request retrains from slice i, exactly as PRS."""
    a, b = item1_engine.clone(), item1_engine.clone()
    victim = item1_engine.plan.slice_ids(2)[5]
    out_a = a.dispatch(UnlearnRequest(victim, "ohs", depth=depth))
    out_b = b.dispatch(UnlearnRequest(victim, "prs"))
    assert (out_a.strategy_executed, out_a.checkpoints_rewritten) == ("prs", [2, 3, 4])
    assert out_a.located_at == out_b.located_at
    assert out_a.params_after.bits_equal(out_b.params_after)
    assert engine_state(a) == engine_state(b)


# ------------------------------------------- revocations across requests
# ROADMAP item 1: a later retraining start or a reload drops an earlier
# subtraction. Each test asserts the correct behaviour and fails today.
ITEM_1 = pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")


@pytest.fixture(scope="module")
def item1_engine():
    """t = 3, r = 2 for S = 4 (per-slice 400, costs 4000/3600/2800/1600);
    tests serve requests on clones."""
    train, _ = split_dataset(gen_synthetic(2000, 20, 3), 0.2, seed=1)
    return UnlearnEngine.train(train, TrainConfig(num_slices=4, batch_size=64, seed=7, phi=3500.0))


@ITEM_1
def test_hs_retrain_keeps_an_earlier_direct_update(item1_engine):
    a, b = item1_engine.plan.slice_ids(1)[5], item1_engine.plan.slice_ids(3)[5]
    both, only_b = item1_engine.clone(), item1_engine.clone()
    assert both.dispatch(UnlearnRequest(a, "hs")).strategy_executed == "dpus"
    assert both.dispatch(UnlearnRequest(b, "hs")).strategy_executed == "prs"
    only_b.dispatch(UnlearnRequest(b, "hs"))
    assert not both.model.params.bits_equal(only_b.model.params)


@ITEM_1
def test_ohs_keeps_an_earlier_subtraction(item1_engine):
    a, a2 = item1_engine.plan.slice_ids(1)[5], item1_engine.plan.slice_ids(1)[69]
    both, only_a2 = item1_engine.clone(), item1_engine.clone()
    first, second = (both.dispatch(UnlearnRequest(x, "ohs")) for x in (a, a2))
    assert first.located_at[0] == second.located_at[0] == 1
    assert first.located_at[1] != second.located_at[1]
    only_a2.dispatch(UnlearnRequest(a2, "ohs"))
    assert not both.model.params.bits_equal(only_a2.model.params)


@ITEM_1
def test_reload_keeps_a_direct_update(item1_engine, tmp_path):
    eng = item1_engine.clone()
    served = eng.dispatch(UnlearnRequest(eng.plan.slice_ids(1)[5], "dpus")).params_after
    eng.store.persist(tmp_path)
    back = UnlearnEngine.from_store(eng.dataset, StateStore.load(tmp_path))
    assert back.model.params.bits_equal(served)


def test_revocation_on_the_plan_consumes_its_batch_as_a_reload_does(tmp_path):
    """A tombstone set on the plan directly consumes its recorded batch: a
    direct update into that batch serves the same path and params in memory
    as after persist -> load -> from_store."""
    config = TrainConfig(num_slices=4, phi=0.0, hidden_dims=(8,))  # one batch per slice
    eng = UnlearnEngine.train(gen_synthetic(400, 6, 1), config)
    x, y = (int(v) for v in eng.plan.slice_ids(1)[:2])
    eng.plan.tombstone(x)
    eng.store.persist(tmp_path)
    back = UnlearnEngine.from_store(eng.dataset, StateStore.load(tmp_path))
    in_memory, reloaded = (e.dispatch(UnlearnRequest(y, "dpus")) for e in (eng, back))
    assert in_memory.strategy_executed == reloaded.strategy_executed == "noop-consumed"
    assert in_memory.params_after.bits_equal(reloaded.params_after)


# ----------------------------------------------------------- checkpoint reuse
def _rows(eng, slices):
    return eng.config.epochs_per_slice * sum(eng.plan.slice_ids(k).size for k in slices)


def test_repeated_consumed_batch_ohs_trains_nothing(item1_engine, monkeypatch):
    """The first OHS request into a consumed batch retrains slices 3 and 4
    from the pristine checkpoint 2; the next one finds both trained from that
    very start over the same ids, so it reuses them and calls loss_grad not
    once, yet reports what a retrain reports."""
    eng = item1_engine.clone()
    a, b, c = (int(x) for x in eng.plan.slice_ids(1)[5:8])  # all in recorded batch 1
    # subtracts, then retrains
    assert eng.dispatch(UnlearnRequest(a, "ohs")).rows_read == _rows(eng, [3, 4])
    # consumed: starts at the pristine checkpoint 2, not at the amended start
    assert eng.dispatch(UnlearnRequest(b, "ohs")).rows_read == _rows(eng, [3, 4])
    ref = eng.clone()
    forget_training_starts(ref)
    calls = []
    monkeypatch.setattr(
        mubench.engine, "loss_grad", lambda *args: calls.append(1) or loss_grad(*args)
    )
    out = eng.dispatch(UnlearnRequest(c, "ohs"))
    assert calls == []
    assert (out.strategy_executed, out.located_at, out.checkpoints_rewritten) == (
        "ohs", (1, 1), [3, 4]
    )
    assert out.rows_read == 0
    assert ref.dispatch(UnlearnRequest(c, "ohs")).rows_read == _rows(ref, [3, 4]) and calls
    assert engine_state(eng) == engine_state(ref)


def test_reused_recorded_slice_keeps_its_ledger(item1_engine):
    """A reused recorded slice keeps its ledger: its live ids are those the
    ledger recorded, and none of its batches is consumed, since a consumed
    batch in slice k holds a tombstone in slice k, which changes its live
    ids and forces a retrain. The state equals a retrain's."""
    eng = item1_engine.clone()
    a, b = (int(x) for x in eng.plan.slice_ids(1)[5:7])
    # consumes batch 1 of slice 1
    assert eng.dispatch(UnlearnRequest(a, "hs")).strategy_executed == "dpus"
    ledger = eng.store.ledgers[2]
    ref = eng.clone()
    forget_training_starts(ref)
    # pristine checkpoint 1, slices 2..4 unchanged
    out = eng.dispatch(UnlearnRequest(b, "ohs", depth=3))
    assert (out.strategy_executed, out.checkpoints_rewritten) == ("ohs", [2, 3, 4])
    assert out.rows_read == 0
    assert eng.store.ledgers[2] is ledger
    assert ref.dispatch(UnlearnRequest(b, "ohs", depth=3)).rows_read == _rows(ref, [2, 3, 4])
    assert engine_state(eng) == engine_state(ref)


def test_reloaded_store_trains_its_first_retrain(item1_engine, tmp_path):
    """The reuse key is not persisted: after persist -> load -> from_store the
    request the in-memory engine serves by reuse trains, to the same bits."""
    eng = item1_engine.clone()
    a, b, c = (int(x) for x in eng.plan.slice_ids(1)[5:8])
    eng.dispatch(UnlearnRequest(a, "ohs")), eng.dispatch(UnlearnRequest(b, "ohs"))
    eng.store.persist(tmp_path)
    back = UnlearnEngine.from_store(eng.dataset, StateStore.load(tmp_path))
    assert all(cp.trained_from is None for cp in back.store.checkpoints.values())
    in_memory, reloaded = (e.dispatch(UnlearnRequest(c, "ohs")) for e in (eng, back))
    assert (in_memory.rows_read, reloaded.rows_read) == (0, _rows(back, [3, 4]))
    assert reloaded.params_after.bits_equal(in_memory.params_after)
    assert engine_state(back) == engine_state(eng)


def test_rows_read_counts_the_rows_trained(tiny_dataset, tiny_config):
    """Live slice size times epochs, summed over the slices trained; 0 where
    nothing trains."""
    eng = UnlearnEngine.train(tiny_dataset, replace(tiny_config, epochs_per_slice=2))
    first, second = (int(x) for x in eng.plan.slice_ids(1)[:2])  # one recorded batch
    assert eng.dispatch(UnlearnRequest(first, "dpus")).rows_read == 0
    out = eng.dispatch(UnlearnRequest(second, "dpus"))
    assert (out.strategy_executed, out.rows_read) == ("noop-consumed", 0)
    out = eng.dispatch(UnlearnRequest(int(eng.plan.slice_ids(2)[0]), "prs"))
    assert out.rows_read == _rows(eng, [2, 3]) == 2 * sum(eng.plan.slice_sizes()[1:])
    report = eng.process_stream([UnlearnRequest(int(eng.plan.slice_ids(1)[0]), "prs")])
    assert report.rows[0].rows_read == 2 * sum(eng.plan.slice_sizes())


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
    assert sample_request_ids(trained_engine.plan, np.int64(50), seed=np.uint8(13)) == ids_a
    for count, seed in ((2.5, 0), (True, 0), (np.True_, 0), ("3", 0), (3, 1.5), (3, True)):
        with pytest.raises(InvalidArgument, match="(count|seed) must be an integer"):
            sample_request_ids(trained_engine.plan, count, seed)


def test_request_validates_strategy():
    with pytest.raises(InvalidArgument):
        UnlearnRequest(0, "magic")


def test_from_store_fingerprint_guard(tiny_dataset, tiny_config, tmp_path):
    """A store serves only the dataset it was trained on, also when its
    manifest's fingerprint is empty."""
    eng = UnlearnEngine.train(tiny_dataset, tiny_config)
    other = gen_synthetic(600, 8, 2)
    for fingerprint in (eng.store.dataset_fingerprint, ""):
        eng.store.dataset_fingerprint = fingerprint
        eng.store.persist(tmp_path)
        loaded = StateStore.load(tmp_path)
        with pytest.raises(InvalidArgument):
            UnlearnEngine.from_store(other, loaded)
