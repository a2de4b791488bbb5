"""The one integer rule: every count, size, index and seed a caller hands the
package is read by ``data.as_int``, so each is a Python or numpy int (never a
bool, a float or a string) within its bounds, else InvalidArgument naming it,
and a numpy int behaves exactly as the Python int it equals."""

import pickle
import re
from types import SimpleNamespace

import numpy as np
import pytest

from mubench import (
    CostConfig,
    ModelLayout,
    TrainConfig,
    UnlearnEngine,
    UnlearnRequest,
    build_attack_dataset,
    gen_synthetic,
    init_params,
    make_slice_plan,
    retrain_cost,
    sample_request_ids,
    shuffle_member_labels,
    split_dataset,
    train_attack,
    train_shadows,
)
from mubench.errors import InvalidArgument

QUICK = TrainConfig(num_slices=2, batch_size=8, epochs_per_slice=1, seed=1, phi=0.0,
                    hidden_dims=(4,))


@pytest.fixture(scope="module")
def inputs():
    """Small inputs shared by the calls below."""
    pool = gen_synthetic(40, 3, 1)
    shadows = train_shadows(pool, 1, QUICK, split_seed=2)
    return SimpleNamespace(pool=pool, attack_set=build_attack_dataset(shadows, pool))


def _ohs_request(g, depth):
    engine = UnlearnEngine.train(g.pool, QUICK)
    return engine.dispatch(UnlearnRequest(5, "ohs", depth)).params_after


# (argument name as messages give it, call with x in its place, a good value,
# a value outside its bounds)
CASES = {
    "TrainConfig.num_slices": ("num_slices", lambda g, x: TrainConfig(num_slices=x), 4, 0),
    "TrainConfig.batch_size": ("batch_size", lambda g, x: TrainConfig(batch_size=x), 16, 0),
    "TrainConfig.epochs_per_slice": (
        "epochs_per_slice", lambda g, x: TrainConfig(epochs_per_slice=x), 2, 0,
    ),
    "TrainConfig.seed": ("seed", lambda g, x: TrainConfig(seed=x), 3, -1),
    "TrainConfig.hidden_dims": ("hidden_dims[1]", lambda g, x: TrainConfig(hidden_dims=(8, x)), 5, 0),
    "CostConfig.n": ("n", lambda g, x: CostConfig(x, 4, 100.0), 100, 3),
    "CostConfig.num_slices": ("num_slices", lambda g, x: CostConfig(100, x, 100.0), 4, 0),
    "retrain_cost.i": ("slice index", lambda g, x: retrain_cost(x, CostConfig(100, 4, 0.0)), 2, 5),
    "sample_request_ids.seed": (
        "seed", lambda g, x: sample_request_ids(make_slice_plan(40, 2, 8, 0), 3, x), 7, -1,
    ),
    "make_slice_plan.n": ("n", lambda g, x: make_slice_plan(x, 2, 8, 0), 40, 0),
    "make_slice_plan.num_slices": ("num_slices", lambda g, x: make_slice_plan(40, x, 8, 0), 3, 41),
    "make_slice_plan.batch_size": ("batch_size", lambda g, x: make_slice_plan(40, 2, x, 0), 8, 0),
    "make_slice_plan.seed": ("seed", lambda g, x: make_slice_plan(40, 2, 8, x), 5, -1),
    "gen_synthetic.n": ("n", lambda g, x: gen_synthetic(x, 3, 1), 30, 1),
    "gen_synthetic.dim": ("dim", lambda g, x: gen_synthetic(30, x, 1), 3, 0),
    "gen_synthetic.seed": ("seed", lambda g, x: gen_synthetic(30, 3, x), 1, -1),
    "split_dataset.seed": ("seed", lambda g, x: split_dataset(g.pool, 0.25, x), 6, -1),
    "init_params.seed": ("seed", lambda g, x: init_params(ModelLayout(3, (4,), 2), x), 2, -1),
    "ModelLayout.input_dim": ("input_dim", lambda g, x: ModelLayout(x, (4,), 2), 6, 0),
    "ModelLayout.hidden_dims": ("hidden_dims[1]", lambda g, x: ModelLayout(3, (4, x), 2), 7, 0),
    "ModelLayout.output_dim": ("output_dim", lambda g, x: ModelLayout(3, (4,), x), 2, 0),
    "train_shadows.k": ("k", lambda g, x: train_shadows(g.pool, x, QUICK), 2, 0),
    "train_shadows.split_seed": (
        "split_seed", lambda g, x: train_shadows(g.pool, 1, QUICK, split_seed=x), 3, -1,
    ),
    "train_attack.seed": ("seed", lambda g, x: train_attack(g.attack_set, x), 4, -1),
    "shuffle_member_labels.seed": (
        "seed", lambda g, x: shuffle_member_labels(g.attack_set, x), 8, -1,
    ),
    "UnlearnEngine.ohs_depth": (
        "ohs depth", lambda g, x: UnlearnEngine(g.pool, QUICK, x).default_ohs_depth, 1, 3,
    ),
    "dispatch.depth": ("ohs depth", _ohs_request, 1, 3),
}


@pytest.mark.parametrize("case", CASES)
def test_every_integer_argument_follows_the_one_rule(inputs, case):
    name, call, good, outside = CASES[case]
    for bad in (float(good), True, str(good)):
        with pytest.raises(InvalidArgument, match=re.escape(f"{name} must be an integer, got")):
            call(inputs, bad)
    side = ">=" if outside < good else "<="
    with pytest.raises(InvalidArgument, match=re.escape(f"{name} must be {side} ")):
        call(inputs, outside)
    # Bit-identical, types included: pickle writes a numpy int as one.
    assert pickle.dumps(call(inputs, np.int64(good))) == pickle.dumps(call(inputs, good))
