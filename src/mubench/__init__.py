"""Sliced training with checkpoint/increment ledgers and hybrid unlearning."""

from .costs import CostConfig, retrain_cost, threshold
from .data import (
    Dataset,
    SlicePlan,
    gen_synthetic,
    load_csv,
    make_slice_plan,
    save_csv,
    split_dataset,
)
from .engine import STRATEGIES, UnlearnEngine, UnlearnRequest, sample_request_ids
from .mia import (
    AttackDataset,
    AttackModel,
    audit,
    build_attack_dataset,
    shuffle_member_labels,
    train_attack,
    train_shadows,
)
from .nn import (
    Batch,
    ModelLayout,
    OptimizerState,
    ParameterVector,
    adam_step,
    combine,
    evaluate,
    forward,
    init_params,
    loss_grad,
)
from .store import Checkpoint, StateStore, TrainConfig

__all__ = [
    "AttackDataset",
    "AttackModel",
    "Batch",
    "Checkpoint",
    "CostConfig",
    "Dataset",
    "ModelLayout",
    "OptimizerState",
    "ParameterVector",
    "STRATEGIES",
    "SlicePlan",
    "StateStore",
    "TrainConfig",
    "UnlearnEngine",
    "UnlearnRequest",
    "adam_step",
    "audit",
    "build_attack_dataset",
    "combine",
    "evaluate",
    "forward",
    "gen_synthetic",
    "init_params",
    "load_csv",
    "loss_grad",
    "make_slice_plan",
    "retrain_cost",
    "sample_request_ids",
    "save_csv",
    "shuffle_member_labels",
    "split_dataset",
    "threshold",
    "train_attack",
    "train_shadows",
]
