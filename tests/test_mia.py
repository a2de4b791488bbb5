import numpy as np
import pytest

from mubench import (
    AttackDataset,
    TrainConfig,
    UnlearnEngine,
    UnlearnRequest,
    audit,
    build_attack_dataset,
    evaluate,
    gen_synthetic,
    sample_request_ids,
    shuffle_member_labels,
    train_attack,
    train_shadows,
)
from mubench.errors import DegenerateAttackSet, InvalidArgument, NotFound

POOL_N = 400
OVERFIT = TrainConfig(num_slices=4, batch_size=64, epochs_per_slice=25, seed=9, phi=350.0)


@pytest.fixture(scope="module")
def pool():
    return gen_synthetic(POOL_N, 24, seed=9)


@pytest.fixture(scope="module")
def shadows(pool):
    return train_shadows(pool, 4, OVERFIT, split_seed=5)


@pytest.fixture(scope="module")
def attack_set(pool, shadows):
    return build_attack_dataset(shadows, pool)


@pytest.fixture(scope="module")
def attack(attack_set):
    return train_attack(attack_set, seed=11)


# -------------------------------------------------------------------- shadows
def test_shadow_split_sizes(pool, shadows):
    assert len(shadows) == 4
    for s in shadows:
        assert abs(len(s.in_ids) - len(s.out_ids)) <= 1
        merged = np.sort(np.concatenate([s.in_ids, s.out_ids]))
        assert np.array_equal(merged, np.arange(POOL_N))


def test_shadow_split_odd_pool():
    odd = gen_synthetic(101, 4, seed=0)
    quick = TrainConfig(num_slices=1, epochs_per_slice=1, seed=0, phi=0.0)
    s = train_shadows(odd, 1, quick, split_seed=2)[0]
    assert abs(len(s.in_ids) - len(s.out_ids)) <= 1


def test_shadow_halves_at_four_thousand():
    big = gen_synthetic(4000, 8, seed=1)
    quick = TrainConfig(num_slices=1, epochs_per_slice=1, seed=0, phi=0.0)
    shadows = train_shadows(big, 4, quick, split_seed=0)
    assert len(shadows) == 4
    assert all(len(s.in_ids) == 2000 and len(s.out_ids) == 2000 for s in shadows)


def test_shadows_deterministic(pool, shadows):
    again = train_shadows(pool, 4, OVERFIT, split_seed=5)
    for a, b in zip(shadows, again):
        assert a.params.bits_equal(b.params)
        assert np.array_equal(a.in_ids, b.in_ids)


def test_shadows_reject_bad_k(pool):
    with pytest.raises(InvalidArgument):
        train_shadows(pool, 0, OVERFIT)


def test_shadow_generalization_gap(pool, shadows):
    s = shadows[0]
    in_acc = evaluate(s.params, pool.subset(s.in_ids))
    out_acc = evaluate(s.params, pool.subset(s.out_ids))
    assert in_acc > out_acc


# ----------------------------------------------------------------- attack set
def test_attack_set_row_count(attack_set):
    assert attack_set.rows == 4 * POOL_N
    assert attack_set.features.shape == (4 * POOL_N, 4)


def test_attack_set_member_balance(attack_set):
    balance = attack_set.members.mean()
    assert 0.45 <= balance <= 0.55


def test_attack_set_out_rows_labeled_zero(pool, shadows, attack_set):
    s0 = shadows[0]
    first_block = attack_set.members[:POOL_N]
    assert np.all(first_block[s0.out_ids] == 0)
    assert np.all(first_block[s0.in_ids] == 1)


def test_degenerate_attack_set_rejected():
    with pytest.raises(DegenerateAttackSet):
        AttackDataset(np.zeros((8, 4), dtype=np.float32), np.ones(8, dtype=np.int64))


# --------------------------------------------------------------- attack model
def test_attack_beats_chance_on_overfit_shadows(attack):
    assert attack.holdout_accuracy >= 0.55


def test_attack_null_calibration(attack_set):
    null = train_attack(shuffle_member_labels(attack_set, seed=3), seed=11)
    assert 0.45 <= null.holdout_accuracy <= 0.55


def test_attack_deterministic(attack_set, attack):
    again = train_attack(attack_set, seed=11)
    assert again.params.bits_equal(attack.params)
    assert again.holdout_accuracy == attack.holdout_accuracy


# ---------------------------------------------------------------------- audit
@pytest.fixture(scope="module")
def target(pool):
    """Overfit target trained on the first half of the pool."""
    target_in = np.arange(POOL_N // 2)
    engine = UnlearnEngine.train(pool.subset(target_in), OVERFIT)
    return engine, target_in


def test_audit_detects_members_then_erasure(pool, attack, target):
    engine, target_in = target
    eng = engine.clone()
    local = sample_request_ids(eng.plan, 40, seed=21)
    revoked = target_in[local]
    before = audit(attack, eng.model.params, revoked, pool)
    report = eng.process_stream([UnlearnRequest(i, "prs") for i in local])
    assert not report.partial
    after = audit(attack, eng.model.params, revoked, pool)
    assert after.member_rate < before.member_rate


def test_audit_control_group_below_members(pool, attack, target):
    engine, target_in = target
    local = sample_request_ids(engine.plan, 40, seed=21)
    members = audit(attack, engine.model.params, target_in[local], pool)
    control = audit(attack, engine.model.params, np.arange(POOL_N // 2, POOL_N), pool)
    assert control.member_rate < members.member_rate


def test_audit_unknown_id(pool, attack, target):
    """An id outside the pool is NotFound, as ``tombstone_all`` answers it,
    also past int64 and past 64 bits, and the first such id is named, even
    when ids that numpy would mix into float64 come with it."""
    engine, _ = target
    for ids, bad in (([POOL_N + 7], POOL_N + 7), ([2**63], 2**63), ([2**70], 2**70),
                     ([3, 2**70], 2**70), ([2**63, -1], 2**63), ([3, -1], -1)):
        with pytest.raises(NotFound, match=f"id {bad} is not in the dataset"):
            audit(attack, engine.model.params, ids, pool)


@pytest.mark.parametrize(
    "ids", [[], [1.7], [1.0], [True], np.array([0, 1], dtype=bool), ["3"], [1, 2.5]],
    ids=["empty", "fraction", "whole_float", "bool", "bool_array", "string", "mixed"],
)
def test_audit_refuses_ids_that_are_not_integers(pool, attack, target, ids):
    """Ids are read without a dtype, so no float or bool is truncated to a row."""
    engine, _ = target
    with pytest.raises(InvalidArgument):
        audit(attack, engine.model.params, ids, pool)


def test_audit_verdict_shape(pool, attack, target):
    engine, target_in = target
    report = audit(attack, engine.model.params, target_in[:10], pool)
    assert report.verdicts.shape == (10,)
    assert set(np.unique(report.verdicts)).issubset({0, 1})
    assert report.member_rate == report.verdicts.mean()
