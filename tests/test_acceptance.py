"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Everything is seeded; reruns are deterministic apart from
wall-clock readings.
"""

import time

import numpy as np
import pytest

from mubench import (
    CostConfig,
    ModelLayout,
    TrainConfig,
    UnlearnEngine,
    UnlearnRequest,
    audit,
    build_attack_dataset,
    combine,
    gen_synthetic,
    init_params,
    loss_grad,
    retrain_cost,
    sample_request_ids,
    shuffle_member_labels,
    split_dataset,
    threshold,
    train_attack,
    train_shadows,
)

from conftest import balanced_batch
from test_nn import central_difference_grad


def report(criterion: int, elapsed: float, detail: str) -> None:
    print(f"\n[criterion {criterion}] PASS ({elapsed:.1f}s): {detail}")


# ---------------------------------------------------------------- criterion 1
def test_criterion_1_threshold_oracle():
    """threshold() matches a brute-force scan for 1,000 random (n, S, phi)."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(123)
    for _ in range(1000):
        s = int(rng.integers(1, 65))
        n = int(rng.integers(s, 1_000_000))
        phi = float(rng.uniform(0.0, 1.5 * s * n))
        cfg = CostConfig(n, s, phi)
        got = threshold(cfg)
        feasible = [i for i in range(1, s + 1) if retrain_cost(i, cfg) <= phi]
        expected_t = min(feasible) if feasible else s + 1
        assert got.t == expected_t
        assert got.r == (s - got.t + 1 if got.t <= s else 0)
    pinned = threshold(CostConfig(1000, 4, 2000.0))
    assert pinned.t == 3
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, elapsed, "1000-triple brute-force sweep + pinned t=3 for (1000, 4, 2000)")


# ---------------------------------------------------------------- criterion 2
def test_criterion_2_ledger_reconstruction():
    """Each slice checkpoint equals the previous one plus its recorded
    deltas, max-norm <= 1e-5."""
    t0 = time.perf_counter()
    ds = gen_synthetic(2000, 20, seed=3)
    # per-slice 500: costs 5000/4500/3500/2000, phi=3500 -> t=3, slices 1..2 recorded
    cfg = TrainConfig(num_slices=4, epochs_per_slice=1, seed=0, phi=3500.0)
    eng = UnlearnEngine.train(ds, cfg)
    recorded = sorted(eng.store.ledgers)
    assert recorded == [1, 2]
    worst = 0.0
    for i in recorded:
        total = eng.store.get_checkpoint(i - 1).params.values.copy()
        for j in range(eng.plan.num_batches(i)):
            total += eng.store.get_increment(i, j + 1).values
        worst = max(worst, float(np.abs(total - eng.store.get_checkpoint(i).params.values).max()))
    assert worst <= 1e-5
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(2, elapsed, f"telescoping max-norm {worst:.2e} over recorded slices {recorded}")


# ---------------------------------------------------------------- criterion 3
def test_criterion_3_prs_scratch_equivalence():
    """Slice-1 revocation via PRS == from-scratch retrain, bit for bit."""
    t0 = time.perf_counter()
    ds = gen_synthetic(2000, 20, seed=3)
    cfg = TrainConfig(num_slices=4, epochs_per_slice=1, seed=0, phi=3500.0)
    eng = UnlearnEngine.train(ds, cfg)
    victim = eng.plan.slice_ids(1)[0]
    outcome = eng.unlearn_prs(victim)

    scratch = UnlearnEngine(ds, cfg)
    scratch.plan = scratch.plan.tombstone(victim)
    scratch_model = scratch.fit()
    assert outcome.params_after.bits_equal(scratch_model.params)
    for i in range(0, 5):
        assert eng.store.get_checkpoint(i).params.bits_equal(
            scratch.store.get_checkpoint(i).params
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(3, elapsed, f"sample {victim} from slice 1: PRS output bit-identical to scratch")


# ---------------------------------------------------------------- criterion 4
def test_criterion_4_dpus_reversibility_and_consume_once():
    t0 = time.perf_counter()
    ds = gen_synthetic(2000, 20, seed=3)
    cfg = TrainConfig(num_slices=4, epochs_per_slice=1, seed=0, phi=3500.0)
    eng = UnlearnEngine.train(ds, cfg)
    final_params = eng.model.params.copy()

    victim = eng.plan.slice_ids(1)[11]
    outcome = eng.unlearn_dpus(victim)
    delta = eng.store.get_increment(*outcome.located_at)
    assert combine(outcome.params_after, delta, "+").bits_equal(final_params)

    i, j = outcome.located_at
    size = cfg.batch_size
    same_batch = eng.store.ledgers[i].ids[(j - 1) * size : j * size]
    second = next(x for x in same_batch if x != victim)
    frozen = eng.model.params.copy()
    second_outcome = eng.unlearn_dpus(second)
    assert second_outcome.strategy_executed == "noop-consumed"
    assert eng.model.params.bits_equal(frozen)
    elapsed = time.perf_counter() - t0
    report(4, elapsed, "subtract-then-add restored the final parameters bitwise; repeat request was a no-op")


# ---------------------------------------------------------------- criterion 5
def test_criterion_5_hs_dispatch():
    """100-request HS stream with t=3: strict slice dispatch, PRS side bitwise
    identical to calling unlearn_prs directly."""
    t0 = time.perf_counter()
    ds = gen_synthetic(1200, 16, seed=8)
    # per-slice 300: C(3) = 300 * 7 = 2100 -> t=3
    cfg = TrainConfig(num_slices=4, batch_size=128, epochs_per_slice=1, seed=1, phi=2100.0)
    eng = UnlearnEngine.train(ds, cfg)
    assert eng.threshold == 3
    ids = sample_request_ids(eng.plan, 100, seed=55)

    dpus_side = prs_side = 0
    for sample_id in ids:
        slice_index = eng.plan.locate(sample_id)[0]
        twin = eng.clone() if slice_index >= 3 else None
        outcome = eng.unlearn_hs(sample_id)
        if slice_index < 3:
            assert outcome.strategy_executed in ("dpus", "noop-consumed")
            dpus_side += 1
        else:
            assert outcome.strategy_executed == "prs"
            direct = twin.unlearn_prs(sample_id)
            assert outcome.params_after.bits_equal(direct.params_after)
            prs_side += 1
    assert dpus_side and prs_side
    elapsed = time.perf_counter() - t0
    report(5, elapsed, f"{dpus_side} direct-update and {prs_side} retraining dispatches, "
                       "PRS side bit-identical to direct PRS")


# ---------------------------------------------------------------- criterion 6
def test_criterion_6_efficiency_direction():
    """n=50,000, S=8, 100 uniform requests: DPUS < HS and OHS < SISA, with
    HS >= 2x and OHS >= 1.2x faster than SISA."""
    t0 = time.perf_counter()
    train = gen_synthetic(50_000, 20, seed=5)
    phi = (train.n / 8) * sum(range(6, 9))  # C(6) -> t=6, r=3
    base = UnlearnEngine.train(train, TrainConfig(num_slices=8, seed=0, phi=phi))
    base_dpus = UnlearnEngine.train(train, TrainConfig(num_slices=8, seed=0, phi=0.0))
    assert base.threshold == 6
    ids = sample_request_ids(base.plan, 100, seed=42)

    mean_time = {}
    for label, source, strategy in (
        ("dpus", base_dpus, "dpus"),
        ("hs", base, "hs"),
        ("ohs", base, "ohs"),
        ("sisa", base, "prs"),
    ):
        eng = source.clone()
        rep = eng.process_stream([UnlearnRequest(i, strategy) for i in ids])
        assert not rep.partial, rep.error
        mean_time[label] = rep.avg_unlearn_time_s
    assert mean_time["dpus"] < mean_time["hs"]
    assert mean_time["ohs"] < mean_time["sisa"]
    assert mean_time["sisa"] / mean_time["hs"] >= 2.0
    assert mean_time["sisa"] / mean_time["ohs"] >= 1.2
    elapsed = time.perf_counter() - t0
    assert elapsed < 1200.0
    report(
        6,
        elapsed,
        "mean unlearn ms: "
        + ", ".join(f"{k}={v * 1e3:.1f}" for k, v in mean_time.items())
        + f"; HS {mean_time['sisa'] / mean_time['hs']:.1f}x and "
        + f"OHS {mean_time['sisa'] / mean_time['ohs']:.1f}x faster than SISA",
    )


# ---------------------------------------------------------------- criterion 7
def test_criterion_7_accuracy_ordering():
    """Across 3 seeds on n=20,000: acc(DPUS) <= acc(HS), |HS-SISA| <= 2 points,
    |OHS-SISA| <= 1 point."""
    t0 = time.perf_counter()
    accs = {"dpus": [], "sisa": [], "hs": [], "ohs": []}
    for seed in (0, 1, 2):
        source = gen_synthetic(25_000, 20, seed=100 + seed)
        train, hold = split_dataset(source, 0.2, seed=seed)
        phi = (train.n / 4) * (3 + 4)  # C(3) -> t=3
        base = UnlearnEngine.train(train, TrainConfig(num_slices=4, seed=seed, phi=phi))
        base_dpus = UnlearnEngine.train(train, TrainConfig(num_slices=4, seed=seed, phi=0.0))
        ids = sample_request_ids(base.plan, 100, seed=77)
        for label, source_eng, strategy in (
            ("dpus", base_dpus, "dpus"),
            ("sisa", base, "prs"),
            ("hs", base, "hs"),
            ("ohs", base, "ohs"),
        ):
            eng = source_eng.clone()
            rep = eng.process_stream([UnlearnRequest(i, strategy) for i in ids], hold)
            assert not rep.partial, rep.error
            accs[label].append(rep.final_accuracy)
    mean = {k: float(np.mean(v)) for k, v in accs.items()}
    assert mean["dpus"] <= mean["hs"]
    assert abs(mean["hs"] - mean["sisa"]) <= 0.02
    assert abs(mean["ohs"] - mean["sisa"]) <= 0.01
    elapsed = time.perf_counter() - t0
    report(7, elapsed, "mean accuracy: " + ", ".join(f"{k}={v:.4f}" for k, v in mean.items()))


# ---------------------------------------------------------------- criterion 8
def _min_preactivation_distance(params, layout, features):
    """Smallest |pre-activation| over all hidden units and samples."""
    from mubench.nn import _layer_views

    act = np.asarray(features, dtype=np.float64)
    best = np.inf
    for w, b in _layer_views(params.values, layout)[:-1]:
        z = act @ w + b
        best = min(best, float(np.abs(z).min()))
        act = np.maximum(z, 0.0)
    return best


def test_criterion_8_gradient_correctness():
    """Backprop vs central differences: relative error <= 1e-4 on 100 sampled
    coordinates over random small instances.

    Instances whose pre-activations sit within 5e-3 of a ReLU kink are
    redrawn: a central difference that straddles the kink no longer estimates
    the one-sided derivative, so the oracle itself is undefined there.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    checked = 0
    worst = 0.0
    accepted = 0
    attempt = 0
    while accepted < 5:
        attempt += 1
        layout = ModelLayout(
            int(rng.integers(3, 8)), (int(rng.integers(4, 9)), int(rng.integers(3, 7))), 2
        )
        params = init_params(layout, seed=attempt)
        batch = balanced_batch(layout, 6, seed=attempt + 40)
        if _min_preactivation_distance(params, layout, batch.features) <= 5e-3:
            continue
        accepted += 1
        _, grad = loss_grad(params, batch)
        coords = rng.choice(layout.param_count, size=20, replace=False)
        fd = central_difference_grad(
            params, layout, batch.features, batch.labels, coords, h=1e-4
        )
        for c in coords:
            a, b = float(grad.values[c]), fd[c]
            err = abs(a - b) / max(abs(a), abs(b), 1e-3)
            worst = max(worst, err)
            assert err <= 1e-4
            checked += 1
    assert checked == 100
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(8, elapsed, f"100 coordinates across 5 random instances, worst error {worst:.2e}")


# ---------------------------------------------------------------- criterion 9
def test_criterion_9_mia_erasure_direction():
    """Overfit target: revoked member rate strictly drops for each strategy;
    label-shuffled attack sits at chance."""
    t0 = time.perf_counter()
    pool = gen_synthetic(400, 24, seed=9)
    half = pool.n // 2
    target_in = np.arange(half)
    target_ds = pool.subset(target_in)
    phi = (half / 4) * (3 + 4)  # t=3 on the target's own slicing
    overfit = dict(num_slices=4, batch_size=64, epochs_per_slice=25, seed=9)
    cfg = TrainConfig(**overfit, phi=float(phi))
    target = UnlearnEngine.train(target_ds, cfg)
    target_dpus = UnlearnEngine.train(target_ds, TrainConfig(**overfit, phi=0.0))

    shadows = train_shadows(pool, 4, cfg, split_seed=5)
    attack_set = build_attack_dataset(shadows, pool)
    attack = train_attack(attack_set, seed=11)
    null = train_attack(shuffle_member_labels(attack_set, seed=3), seed=11)
    assert 0.45 <= null.holdout_accuracy <= 0.55

    local = sample_request_ids(target.plan, 40, seed=21)
    revoked = target_in[local]
    before = audit(attack, target.model.params, revoked, pool).member_rate
    after = {}
    for strategy in ("prs", "dpus", "hs", "ohs"):
        eng = (target_dpus if strategy == "dpus" else target).clone()
        rep = eng.process_stream([UnlearnRequest(i, strategy) for i in local])
        assert not rep.partial, rep.error
        after[strategy] = audit(attack, eng.model.params, revoked, pool).member_rate
        assert after[strategy] < before
    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0
    report(
        9,
        elapsed,
        f"member rate before {before:.3f} -> after "
        + ", ".join(f"{k}={v:.3f}" for k, v in after.items())
        + f"; null-calibration accuracy {null.holdout_accuracy:.3f}",
    )
