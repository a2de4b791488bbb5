"""Shadow-model membership-inference auditor.

Shadow models share the target's architecture and training hyperparameters
and are each trained on a random half of a pool; their predictions on the
whole pool, labeled by in/out membership, train a small attack classifier.
Auditing a target model asks that classifier whether given ids look like
training members.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, as_int
from .engine import TrainConfig, train_batches
from .errors import DegenerateAttackSet, InvalidArgument, NotFound
from .nn import (
    Batch,
    ModelLayout,
    OptimizerState,
    ParameterVector,
    evaluate,
    forward,
    init_params,
)

F32 = np.float32

ATTACK_HIDDEN = (32,)
ATTACK_EPOCHS = 30


@dataclass
class ShadowModel:
    params: ParameterVector
    in_ids: np.ndarray
    out_ids: np.ndarray


@dataclass
class AttackDataset:
    """Rows of (probability vector + one-hot true label) with member labels."""

    features: np.ndarray
    members: np.ndarray

    def __post_init__(self) -> None:
        self.features = np.ascontiguousarray(self.features, dtype=F32)
        self.members = np.ascontiguousarray(self.members, dtype=np.int64).ravel()
        if self.features.shape[0] != self.members.size:
            raise InvalidArgument("features and members must have equal row counts")
        if np.unique(self.members).size < 2:
            raise DegenerateAttackSet("attack set needs both member classes")

    @property
    def rows(self) -> int:
        return int(self.members.size)


@dataclass
class AttackModel:
    params: ParameterVector
    holdout_accuracy: float


@dataclass
class AuditReport:
    verdicts: np.ndarray  # 1 = judged training member
    member_rate: float


def fit_dense(
    features: np.ndarray,
    labels: np.ndarray,
    layout: ModelLayout,
    epochs: int,
    batch_size: int,
    learning_rate: float,
    seed: int,
) -> ParameterVector:
    """Plain epoch/mini-batch Adam training used for shadows and the attacker."""
    n = features.shape[0]

    def batches():
        for epoch in range(1, epochs + 1):
            order = np.random.default_rng((seed, epoch)).permutation(n)
            for k in range(0, n, batch_size):
                idx = order[k : k + batch_size]
                yield epoch, k // batch_size, Batch(features[idx], labels[idx])

    state = OptimizerState.fresh(layout)
    params, _ = train_batches(
        init_params(layout, seed), state, batches(), learning_rate, "fit_dense"
    )
    return params


def _shadow_seed(split_seed: int, index: int) -> int:
    return int(np.random.SeedSequence((split_seed, index)).generate_state(1)[0])


def train_shadows(
    pool: Dataset, k: int, config: TrainConfig, split_seed: int = 0
) -> list[ShadowModel]:
    """Train k shadows, each on a half/half split of the pool."""
    k = as_int(k, "k", 1)
    split_seed = as_int(split_seed, "split_seed", 0)
    if pool.n < 2:
        raise InvalidArgument("shadow pool needs at least two samples")
    layout = ModelLayout(pool.feature_dim, config.hidden_dims, 2)
    shadows = []
    for s in range(k):
        perm = np.random.default_rng((split_seed, s)).permutation(pool.n)
        half = (pool.n + 1) // 2
        in_ids = np.sort(perm[:half])
        out_ids = np.sort(perm[half:])
        params = fit_dense(
            pool.features[in_ids],
            pool.labels[in_ids],
            layout,
            epochs=config.epochs_per_slice,
            batch_size=config.batch_size,
            learning_rate=config.learning_rate,
            seed=_shadow_seed(split_seed, s),
        )
        shadows.append(ShadowModel(params, in_ids, out_ids))
    return shadows


def _attack_features(params: ParameterVector, dataset: Dataset, ids: np.ndarray) -> np.ndarray:
    probs = forward(params, dataset.features[ids])
    onehot = np.eye(2, dtype=F32)[dataset.labels[ids]]
    return np.concatenate([probs.astype(F32), onehot], axis=1)


def build_attack_dataset(shadows: list[ShadowModel], pool: Dataset) -> AttackDataset:
    """One row per (shadow, pool sample): shadow prediction + true-label one-hot."""
    if not shadows:
        raise InvalidArgument("need at least one shadow model")
    all_ids = np.arange(pool.n)
    blocks = []
    members = []
    for shadow in shadows:
        blocks.append(_attack_features(shadow.params, pool, all_ids))
        flags = np.zeros(pool.n, dtype=np.int64)
        flags[shadow.in_ids] = 1
        members.append(flags)
    return AttackDataset(np.concatenate(blocks, axis=0), np.concatenate(members))


def shuffle_member_labels(attack_set: AttackDataset, seed: int) -> AttackDataset:
    """Null-calibration control: membership labels randomly permuted."""
    shuffled = np.random.default_rng(as_int(seed, "seed", 0)).permutation(attack_set.members)
    return AttackDataset(attack_set.features, shuffled)


def train_attack(attack_set: AttackDataset, seed: int) -> AttackModel:
    """Fit the 1x32 attack MLP; holdout accuracy from a 20% split."""
    layout = ModelLayout(attack_set.features.shape[1], ATTACK_HIDDEN, 2)
    seed = as_int(seed, "seed", 0)
    perm = np.random.default_rng((seed, 0xA77AC)).permutation(attack_set.rows)
    n_hold = max(1, attack_set.rows // 5)
    hold, train = perm[:n_hold], perm[n_hold:]
    if np.unique(attack_set.members[train]).size < 2:
        raise DegenerateAttackSet("training split lost one member class")
    params = fit_dense(
        attack_set.features[train],
        attack_set.members[train],
        layout,
        epochs=ATTACK_EPOCHS,
        batch_size=128,
        learning_rate=0.005,
        seed=seed,
    )
    holdout = Dataset(attack_set.features[hold], attack_set.members[hold], name="attack-holdout")
    return AttackModel(params, evaluate(params, holdout))


def audit(
    attack_model: AttackModel,
    target_params: ParameterVector,
    ids,
    dataset: Dataset,
) -> AuditReport:
    """Judge each id member/non-member from the target's predictions on it.
    Each id is read by ``as_int``'s rule, as ``SlicePlan.tombstone_all``
    reads them: one that is not an integer is InvalidArgument, and the first
    that is not a row of ``dataset`` NotFound."""
    idx = [as_int(x, "audit id") for x in ids]
    if not idx:
        raise InvalidArgument("audit needs at least one id")
    bad = next((x for x in idx if not 0 <= x < dataset.n), None)
    if bad is not None:
        raise NotFound(f"id {bad} is not in the dataset")
    feats = _attack_features(target_params, dataset, np.array(idx, np.int64))
    verdicts = forward(attack_model.params, feats).argmax(axis=1)
    return AuditReport(verdicts, float(verdicts.mean()))
